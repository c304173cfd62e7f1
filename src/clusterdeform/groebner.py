"""The weight cone selecting the squarefree monomial degeneration, its
simpliciality and smoothness certificates, and interior weight selection."""

from .cones import dual_cone, slack_ray
from .intlinalg import (identity_matrix, kernel_basis, primitive,
                        smith_normal_form, vec_dot)


class GroebnerError(Exception):
    pass


class GroebnerCone:
    __slots__ = ("cone", "dual_generators", "simplicial_mod_lineality",
                 "smooth_mod_lineality", "interior_weight")

    def __init__(self, cone, dual_generators, simplicial, smooth, weight):
        self.cone = cone
        self.dual_generators = [tuple(g) for g in dual_generators]
        self.simplicial_mod_lineality = simplicial
        self.smooth_mod_lineality = smooth
        self.interior_weight = list(weight)

    def __repr__(self):
        return ("GroebnerCone(rays=%d, lineality=%d, simplicial=%r, "
                "smooth=%r)") % (len(self.cone.rays), self.cone.lineality_dim,
                                 self.simplicial_mod_lineality,
                                 self.smooth_mod_lineality)


def interior_weight(cone, dual_generators=()):
    """A lattice point in the relative interior: the sum of the rays,
    shifted by a lineality vector to make all entries nonnegative when
    possible.  Certified by strict positivity against the given dual
    generators."""
    if not cone.rays:
        raise GroebnerError("cone has no rays; no usable interior weight")
    w = [sum(col) for col in zip(*cone.rays)]
    shifted = _nonnegative_shift(w, cone.lineality)
    if shifted is not None:
        w = shifted
    for g in dual_generators:
        if any(g) and vec_dot(w, g) <= 0:
            raise GroebnerError("interior weight not positive on %r" % (g,))
    return w


def _nonnegative_shift(w, lineality):
    """s*w + combination of lineality rows with all entries >= 0 and s > 0,
    returned already scaled to integers; None if infeasible."""
    if not lineality:
        return w if all(x >= 0 for x in w) else None
    r = len(lineality)
    dim = len(w)
    ray = slack_ray([[lineality[b][i] for b in range(r)] + [w[i]]
                     for i in range(dim)], r + 1)
    if ray is None:
        return None
    s = ray[r]
    return [s * w[i] + sum(ray[b] * lineality[b][i] for b in range(r))
            for i in range(dim)]


def groebner_cone(univ):
    """Dual generators are the coefficient degrees of the extension; the
    cone is their dual, with certificates from the ray matrix."""
    if univ.has_isolated_vertex:
        raise GroebnerError("isolated vertex: degenerate exchange relation")
    gens = univ.t_degrees
    dim = len(univ.variable_order)
    cone = dual_cone(gens, dim)
    simplicial, smooth = cone_certificates(cone)
    weight = interior_weight(cone, gens)
    return GroebnerCone(cone, gens, simplicial, smooth, weight)


def cone_certificates(cone):
    """(simplicial, smooth) of the cone modulo its lineality space.

    The quotient lattice is realized by pairing with a saturated basis of
    the lineality orthogonal; ray images are primitivized there, so the
    verdict is scaling-invariant.  The images span the quotient over Q
    when their Smith form has no zero on the diagonal, and over Z when
    every diagonal entry is 1."""
    k = cone.ambient_dim - cone.lineality_dim
    if len(cone.rays) != k:
        return False, False
    if cone.lineality:
        coords = kernel_basis([list(r) for r in cone.lineality])
    else:
        coords = identity_matrix(cone.ambient_dim)
    diag = smith_normal_form([primitive([vec_dot(c, r) for c in coords])
                              for r in cone.rays]).diag
    return 0 not in diag, all(x == 1 for x in diag)

"""Rational polyhedral cones in small dimension via double description.

A cone is stored in V-form: a lattice basis of its lineality space (in
Hermite normal form) plus primitive extreme rays.  A ray is canonicalized
by fraction-free reduction against the HNF rows until its pivot columns
are zero, then made primitive, so two descriptions of the same cone compare
equal.  `dual_cone` carries each ray's tight set along as a bitmask, and
tests a pair for adjacency only if its common tight set has the size that
a 2-face needs.
"""

from .intlinalg import identity_matrix, primitive, row_lattice_basis, vec_dot


class Cone:
    __slots__ = ("ambient_dim", "lineality", "rays")

    def __init__(self, ambient_dim, lineality, rays):
        self.ambient_dim = ambient_dim
        self.lineality = [list(r) for r in row_lattice_basis(lineality)]
        self.rays = sorted(_canonical_rays(rays, self.lineality))

    def __eq__(self, other):
        return (isinstance(other, Cone)
                and self.ambient_dim == other.ambient_dim
                and self.lineality == other.lineality
                and self.rays == other.rays)

    def __repr__(self):
        return "Cone(dim=%d, lineality=%r, rays=%r)" % (
            self.ambient_dim, self.lineality, self.rays)

    @property
    def lineality_dim(self):
        return len(self.lineality)


def _canonical_rays(rays, hnf):
    """Rays reduced modulo the lineality with HNF basis `hnf`: each step
    v <- p * v - v[c] * h zeroes the pivot column c of row h, scaling v by
    its pivot p > 0; rows are taken in pivot order, so later steps keep
    earlier pivot columns zero.  Rays inside the lineality are dropped."""
    pivots = [(h, next(c for c, x in enumerate(h) if x)) for h in hnf]
    out = set()
    for v in rays:
        for h, c in pivots:
            f = v[c]
            if f:
                p = h[c]
                v = [p * x - f * y for x, y in zip(v, h)]
        if any(v):
            out.add(tuple(primitive(v)))
    return [list(t) for t in out]


def dual_cone(generators, dim):
    """The cone {w : <w, g> >= 0 for all g}, by double description.

    An empty generator list yields the full space.  The lineality basis
    spans every integer point of the lineality space, the integer kernel
    of the generators.
    """
    lineality = identity_matrix(dim)
    rays = {}  # primitive ray -> tight set over the processed constraints
    bit = 1
    for a in generators:
        if not any(a):
            continue
        cuts = [vec_dot(a, v) for v in lineality]
        vals = [vec_dot(a, r) for r in rays]
        vecs, masks = list(rays), list(rays.values())
        if any(cuts):
            # the constraint cuts the lineality lattice.  Euclid's steps on
            # its basis leave one vector v0 off the hyperplane, so the rest
            # span the lattice's points on it.  v0 becomes a ray, and the
            # rays are projected along v0 into the hyperplane.
            while len(nz := [i for i, x in enumerate(cuts) if x]) > 1:
                idx = min(nz, key=lambda i: abs(cuts[i]))
                for i in nz:
                    if i != idx:
                        q = cuts[i] // cuts[idx]
                        cuts[i] -= q * cuts[idx]
                        lineality[i] = [x - q * y for x, y in
                                        zip(lineality[i], lineality[idx])]
            v0 = lineality.pop(nz[0])
            av0 = cuts[nz[0]]
            if av0 < 0:
                v0, av0 = [-x for x in v0], -av0
            rays = {tuple(primitive([av0 * x - c * y for x, y in zip(r, v0)])):
                    mask | bit for r, mask, c in zip(vecs, masks, vals)}
            rays[tuple(primitive(v0))] = bit - 1
        else:
            # p and m are adjacent iff no third ray is tight on every
            # constraint on which both are tight (Fukuda & Prodon 1996)
            need = dim - len(lineality) - 2
            pos = [i for i, v in enumerate(vals) if v > 0]
            neg = [i for i, v in enumerate(vals) if v < 0]
            rays = {r: mask | bit if v == 0 else mask
                    for r, mask, v in zip(vecs, masks, vals) if v >= 0}
            for p in pos:
                for m in neg:
                    common = masks[p] & masks[m]
                    if common.bit_count() >= need and not any(
                            common & b == common
                            for i, b in enumerate(masks) if i != p and i != m):
                        ray = [vals[p] * x - vals[m] * y
                               for x, y in zip(vecs[m], vecs[p])]
                        rays[tuple(primitive(ray))] = common | bit
        bit <<= 1

    return Cone(dim, lineality, rays)


def slack_ray(rows, dim):
    """A ray x of {x : <a, x> >= 0 for every row a, x[-1] >= 0} with
    x[-1] > 0, or None if there is none.

    This solves a feasibility problem homogenized by a slack coordinate,
    the last of `dim`: the first such ray of the dual cone, scaled down by
    x[-1], is a rational solution of the inhomogeneous problem."""
    cone = dual_cone(list(rows) + [[0] * (dim - 1) + [1]], dim)
    return next((ray for ray in cone.rays if ray[-1] > 0), None)

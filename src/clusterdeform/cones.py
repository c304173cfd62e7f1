"""Rational polyhedral cones in small dimension via double description.

A cone is stored in V-form: a lattice basis of its lineality space (in
Hermite normal form) plus primitive extreme rays.  Rays are canonicalized by
reducing the coordinates in the lineality pivot columns to zero over Q and
rescaling to a primitive integer vector, so two descriptions of the same
cone compare equal.
"""

from fractions import Fraction
from math import lcm

from .intlinalg import (identity_matrix, primitive, row_lattice_basis, rref,
                        vec_dot)


class Cone:
    __slots__ = ("ambient_dim", "lineality", "rays", "inequalities")

    def __init__(self, ambient_dim, lineality, rays, inequalities=None):
        self.ambient_dim = ambient_dim
        self.lineality = [list(r) for r in row_lattice_basis(lineality)]
        self.rays = sorted(_canonical_rays(rays, self.lineality, ambient_dim))
        self.inequalities = [list(a) for a in inequalities] if inequalities is not None else None

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

    def contains(self, v):
        if self.inequalities is None:
            raise ValueError("no inequality form stored")
        return all(vec_dot(a, v) >= 0 for a in self.inequalities)


def _canonical_rays(rays, lineality, dim):
    reduced, pivots = rref(lineality, dim)
    out = set()
    for ray in rays:
        v = [Fraction(x) for x in ray]
        for row, col in zip(reduced, pivots):
            if v[col] != 0:
                f = v[col]
                v = [a - f * b for a, b in zip(v, row)]
        if all(x == 0 for x in v):
            continue  # ray inside the lineality span: not a ray
        mult = lcm(*[x.denominator for x in v]) if v else 1
        iv = [int(x * mult) for x in v]
        out.add(tuple(primitive(iv)))
    return [list(t) for t in out]


def dual_cone(generators, dim):
    """The cone {w : <w, g> >= 0 for all g}, by double description.

    An empty generator list yields the full space.
    """
    lineality = identity_matrix(dim)
    rays = []
    processed = []
    for a in generators:
        a = list(a)
        if all(x == 0 for x in a):
            continue
        vals = [vec_dot(a, v) for v in lineality]
        if any(vals):
            # the constraint cuts the lineality space: one basis vector
            # becomes a ray, the rest are projected into the hyperplane
            idx = next(i for i, x in enumerate(vals) if x != 0)
            v0 = lineality[idx]
            if vals[idx] < 0:
                v0 = [-x for x in v0]
            av0 = abs(vals[idx])
            new_lin = []
            for i, v in enumerate(lineality):
                if i == idx:
                    continue
                new_lin.append(primitive([av0 * x - vals[i] * y for x, y in zip(v, v0)]))
            rays = [primitive([av0 * x - vec_dot(a, r) * y for x, y in zip(r, v0)])
                    for r in rays]
            rays.append(primitive(v0))
            lineality = new_lin
        else:
            vals = [vec_dot(a, r) for r in rays]
            if any(v < 0 for v in vals):
                # combinatorial adjacency test (Fukuda & Prodon 1996): p
                # and m are adjacent iff no third ray is tight on every
                # processed constraint on which both are tight.  Tight sets
                # are bitmasks over `processed`.
                masks = [sum(1 << i for i, c in enumerate(processed)
                             if vec_dot(c, r) == 0) for r in rays]
                pos = [i for i, v in enumerate(vals) if v > 0]
                neg = [i for i, v in enumerate(vals) if v < 0]
                new_rays = [rays[i] for i in pos]
                new_rays += [r for r, v in zip(rays, vals) if v == 0]
                for p in pos:
                    for m in neg:
                        common = masks[p] & masks[m]
                        if not any(common & b == common
                                   for i, b in enumerate(masks)
                                   if i != p and i != m):
                            new_rays.append(primitive(
                                [vals[p] * x - vals[m] * y
                                 for x, y in zip(rays[m], rays[p])]))
                rays = new_rays
        seen = set()
        unique = []
        for r in rays:
            t = tuple(r)
            if t not in seen:
                seen.add(t)
                unique.append(r)
        rays = unique
        processed.append(a)

    return Cone(dim, lineality, rays, inequalities=[list(g) for g in generators])


def slack_ray(rows, dim):
    """A ray x of {x : <a, x> >= 0 for every row a, x[-1] >= 0} with
    x[-1] > 0, or None if there is none.

    This solves a feasibility problem homogenized by a slack coordinate,
    the last of `dim`: the first such ray of the dual cone, scaled down by
    x[-1], is a rational solution of the inhomogeneous problem."""
    cone = dual_cone(list(rows) + [[0] * (dim - 1) + [1]], dim)
    return next((ray for ray in cone.rays if ray[-1] > 0), None)

"""Polyhedral cones: double description, canonical form, double dualization."""

from fractions import Fraction
from itertools import combinations
from math import lcm

from hypothesis import assume, example, given, settings, strategies as st

from clusterdeform.cones import Cone, dual_cone
from clusterdeform.intlinalg import (identity_matrix, kernel_basis, primitive,
                                    row_lattice_basis, vec_dot)
from tests.rational_oracle import rref
from tests.test_intlinalg import rank


def cone_generators(cone):
    """A generator description of a cone given in V-form."""
    gens = [list(r) for r in cone.rays]
    for l in cone.lineality:
        gens.append(list(l))
        gens.append([-x for x in l])
    return gens


def double_dual_is_identity(cone):
    polar = dual_cone(cone_generators(cone), cone.ambient_dim)
    back = dual_cone(cone_generators(polar), cone.ambient_dim)
    return back == cone


def test_orthant():
    cone = dual_cone([[1, 0], [0, 1]], 2)
    assert cone.lineality == []
    assert cone.rays == [[0, 1], [1, 0]]


def test_no_constraints_gives_full_space():
    cone = dual_cone([], 3)
    assert cone.lineality_dim == 3
    assert cone.rays == []


def test_halfspace():
    cone = dual_cone([[1, 1]], 2)
    assert cone.lineality_dim == 1
    assert len(cone.rays) == 1
    ray = cone.rays[0]
    assert vec_dot(ray, [1, 1]) > 0


def test_canonical_form_is_description_independent():
    a = dual_cone([[1, 0, 0], [0, 1, 0], [1, 1, 0]], 3)
    b = dual_cone([[0, 2, 0], [3, 0, 0]], 3)
    assert a == b


def test_scaled_generators_same_cone():
    a = dual_cone([[1, 2], [2, -1]], 2)
    b = dual_cone([[3, 6], [4, -2]], 2)
    assert a == b


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_double_dualization(gens):
    cone = dual_cone(gens, 3)
    assert double_dual_is_identity(cone)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_dual_cone_satisfies_constraints(gens):
    cone = dual_cone(gens, 3)
    for r in cone.rays:
        assert all(vec_dot(g, r) >= 0 for g in gens)
    for l in cone.lineality:
        assert all(vec_dot(g, l) == 0 for g in gens)


def lineality_lattice(gens, dim):
    """The integer kernel of the generators: the lattice points of the
    lineality space of {w : <w, g> >= 0}."""
    rows = [list(g) for g in gens if any(g)]
    return kernel_basis(rows) if rows else identity_matrix(dim)


def reduce_modulo(v, lineality, dim):
    """The primitive integer multiple of the vector in v + span(lineality)
    whose coordinates in the pivot columns of the lineality's RREF over Q
    are zero."""
    reduced, pivots = rref(lineality, dim)
    v = [Fraction(x) for x in v]
    for row, col in zip(reduced, pivots):
        v = [a - v[col] * b for a, b in zip(v, row)]
    mult = lcm(*[x.denominator for x in v])
    return tuple(primitive([int(x * mult) for x in v]))


def brute_force_rays(gens, dim):
    """Extreme rays of {w : <w, g> >= 0} modulo its lineality space L, the
    integer kernel of the generators.  A ray spans, together with L, the
    kernel of some subset of the constraints of rank dim - dim L - 1; each
    such kernel gives the candidates +v and -v for any v in it outside L,
    kept if they satisfy every constraint."""
    lineality = lineality_lattice(gens, dim)
    rank_needed = dim - len(lineality) - 1
    if rank_needed < 0:
        return []
    out = set()
    for subset in combinations(gens, rank_needed):
        basis = lineality_lattice(subset, dim)
        if len(basis) != len(lineality) + 1:
            continue
        v = next(b for b in basis if any(vec_dot(g, b) for g in gens))
        for w in (v, [-x for x in v]):
            if all(vec_dot(g, w) >= 0 for g in gens):
                out.add(reduce_modulo(w, lineality, dim))
    return sorted(list(r) for r in out)


@given(st.integers(3, 4).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
             min_size=dim, max_size=8))))
@settings(max_examples=80, deadline=None)
def test_dual_cone_matches_brute_force(case):
    dim, gens = case
    assume(rank(gens) == dim)
    cone = dual_cone(gens, dim)
    assert cone.lineality == []
    assert cone.rays == brute_force_rays(gens, dim)


@st.composite
def degenerate_generators(draw):
    """Generator lists in dim 1-6 with zero, duplicated and opposite rows
    mixed in, so that the dual cone may have lineality."""
    dim = draw(st.integers(1, 6))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    gens = draw(st.lists(row, max_size=6))
    for kind, i in draw(st.lists(st.tuples(
            st.sampled_from(["zero", "duplicate", "opposite"]),
            st.integers(0, 5)), max_size=3)):
        if kind == "zero":
            gens.append([0] * dim)
        elif gens:
            g = gens[i % len(gens)]
            gens.append(list(g) if kind == "duplicate" else [-x for x in g])
    return dim, draw(st.permutations(gens))


@given(degenerate_generators())
# Two lists where a ray kept by a constraint that cuts the cone and
# vanishes on the ray must record that constraint in its tight set.
@example((4, [[-3, 1, -2, 0], [-2, -1, -2, -1], [-3, -2, 0, 3],
              [-2, 3, -3, 1], [0, 0, 0, 0], [2, 1, 2, 1], [0, -3, 1, 2],
              [2, -2, 2, 1], [-3, 0, -3, 1], [-6, 2, -4, 6], [-3, 2, 3, 0],
              [4, -4, 4, 2], [-3, 1, -2, 3]]))
@example((6, [[0, -1, 0, 0, 0, 0], [0, -1, 0, 0, 2, 1], [1, -1, 1, 1, 1, 0],
              [-1, 0, 0, 2, 0, 0], [1, 0, 0, 0, 0, 1], [0, -1, 0, -1, 1, 0],
              [2, 0, -1, 1, 2, 0], [0, 0, 1, 2, -1, 0],
              [-1, 1, 0, 1, 0, -1]]))
@settings(max_examples=150, deadline=None)
def test_dual_cone_with_lineality_matches_brute_force(case):
    dim, gens = case
    cone = dual_cone(gens, dim)
    assert cone.lineality == row_lattice_basis(lineality_lattice(gens, dim))
    assert cone.rays == brute_force_rays(gens, dim)


def test_pointed_cone_from_simplex_constraints():
    gens = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 1]]
    cone = dual_cone(gens, 3)
    assert cone.lineality == []
    for r in cone.rays:
        assert all(vec_dot(g, r) >= 0 for g in gens)


def test_cone_equality_requires_same_dim():
    assert dual_cone([[1, 0]], 2) != dual_cone([[1, 0, 0]], 3)


def test_lineality_is_hnf_basis():
    cone = dual_cone([[0, 0, 1]], 3)
    assert cone.lineality == [[1, 0, 0], [0, 1, 0]]
    assert Cone(3, [[2, 2, 0], [0, 2, 0]], [[0, 0, 1]]).lineality == \
        [[2, 0, 0], [0, 2, 0]]

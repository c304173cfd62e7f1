"""Polyhedral cones: double description, canonical form, double dualization."""

from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from clusterdeform.cones import Cone, dual_cone
from clusterdeform.intlinalg import kernel_basis, primitive, rank, vec_dot


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
    assert cone.contains([3, 5])
    assert not cone.contains([-1, 0])


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


def brute_force_rays(gens, dim):
    """Extreme rays of a pointed cone {w : <w, g> >= 0}: the primitive
    spanning vectors of the 1-dimensional kernels of (dim - 1)-subsets of
    the constraints that satisfy every constraint."""
    out = set()
    for subset in combinations(gens, dim - 1):
        basis = kernel_basis([list(g) for g in subset])
        if len(basis) != 1:
            continue
        for v in (basis[0], [-x for x in basis[0]]):
            if all(vec_dot(g, v) >= 0 for g in gens):
                out.add(tuple(primitive(v)))
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

"""The weight cone of the squarefree degeneration and its certificates."""

import pytest
from hypothesis import example, given, settings, strategies as st

from clusterdeform.atlas import enumerate_atlas
from clusterdeform.cones import Cone
from clusterdeform.groebner import (GroebnerError, cone_certificates,
                                    groebner_cone, interior_weight)
from clusterdeform.intlinalg import vec_dot
from clusterdeform.universal import build_universal
from tests.conftest import data_seed, path_seed
from tests.rational_oracle import determinant


# reference cone data in the order (x25, x13, x24, x35, x14, s1, s2, s3),
# independently tabulated for this seed
REF_ORDER = ["x(-1,0,0,2,0)", "x13", "x(-1,1,0,1,0)", "x(0,-1,0,1,1)",
             "x14", "s1", "s2", "s3"]
REF_LINEALITY = [
    [-1, 1, 0, 0, 1, 0, 0, 1],
    [0, 2, -1, 2, 0, 0, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1],
]
REF_RAYS = [
    [-1, 1, 0, 0, 1, 0, 0, 0],
    [1, -1, 1, 0, 0, 0, 0, 0],
    [0, 1, -1, 1, 0, 0, 0, 0],
    [0, 0, 1, -1, 1, 0, 0, 0],
    [1, 0, 0, 1, -1, 0, 0, 0],
]


def _reorder(vec, from_order, to_order):
    lookup = dict(zip(from_order, vec))
    return [lookup[v] for v in to_order]


def test_a2_cone_matches_reference(a2_univ):
    gc = groebner_cone(a2_univ)
    order = a2_univ.variable_order
    expected = Cone(
        8,
        [_reorder(r, REF_ORDER, order) for r in REF_LINEALITY],
        [_reorder(r, REF_ORDER, order) for r in REF_RAYS])
    assert gc.cone == expected
    assert gc.simplicial_mod_lineality
    assert gc.smooth_mod_lineality


def test_a2_interior_weight(a2_univ):
    gc = groebner_cone(a2_univ)
    w = gc.interior_weight
    assert all(x >= 0 for x in w)
    for deg in a2_univ.t_degrees:
        assert vec_dot(w, deg) >= 1


def test_g2_cone(g2_univ):
    gc = groebner_cone(g2_univ)
    assert len(gc.dual_generators) == 8
    assert not gc.smooth_mod_lineality


def test_pullback_cone_simplicial_not_smooth():
    univ = build_universal(enumerate_atlas(data_seed("gr26_pullback")))
    gc = groebner_cone(univ)
    assert gc.simplicial_mod_lineality
    assert not gc.smooth_mod_lineality


def test_sink_source_cone():
    univ = build_universal(enumerate_atlas(data_seed("a1f")))
    gc = groebner_cone(univ)
    assert len(gc.dual_generators) == 2
    assert len(gc.cone.rays) == 2
    assert gc.cone.lineality_dim == 1
    assert gc.simplicial_mod_lineality and gc.smooth_mod_lineality


def test_isolated_vertex_rejected():
    univ = build_universal(enumerate_atlas(path_seed([])))
    with pytest.raises(GroebnerError):
        groebner_cone(univ)


def test_interior_weight_needs_rays():
    from clusterdeform.cones import dual_cone

    full = dual_cone([], 3)
    with pytest.raises(GroebnerError):
        interior_weight(full)


def test_certificates_direct():
    from clusterdeform.cones import dual_cone

    orthant = dual_cone([[1, 0], [0, 1]], 2)
    assert cone_certificates(orthant) == (True, True)
    nonsmooth = Cone(2, [], [[1, 0], [1, 2]])
    assert cone_certificates(nonsmooth) == (True, False)
    too_few = Cone(2, [], [[1, 0]])
    assert cone_certificates(too_few) == (False, False)
    # all lineality: the quotient is 0, spanned by no rays
    assert cone_certificates(dual_cone([], 2)) == (True, True)


@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.integers(-3, 3), min_size=k, max_size=k),
    min_size=k, max_size=k)))
@example([[1, 0], [0, 1]])
@example([[1, 0], [1, 2]])
@example([[1, 1], [-1, -1]])
@example([[1, 2], [2, 4]])
@example([[0, 0, 1], [1, 0, 0], [0, 3, 0]])
@settings(max_examples=200, deadline=None)
def test_certificates_match_the_determinant(rays):
    """Simplicial iff the stored (primitive) rays have a nonzero
    determinant, smooth iff it is +-1.  A zero ray or a repeated direction
    leaves fewer than k stored rays, and the drawn matrix was singular."""
    k = len(rays)
    cone = Cone(k, [], rays)
    d = determinant(cone.rays) if len(cone.rays) == k else 0
    assert cone_certificates(cone) == (d != 0, abs(d) == 1)


def test_weight_selects_exchange_monomials(a2_univ):
    """Under the interior weight, every exchange monomial strictly dominates
    both opposite sides once coefficients are set to one."""
    gc = groebner_cone(a2_univ)
    order = a2_univ.variable_order
    index = {v: i for i, v in enumerate(order)}
    w = gc.interior_weight
    for rel in a2_univ.univ_relations:
        lead = sum(w[index[v]] for v in rel["pair"])
        for _, z_part in rel["sides"]:
            side = sum(w[index[v]] * e for v, e in z_part.items())
            assert side < lead

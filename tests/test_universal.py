"""The canonical coefficient extension and its exchange relations."""

import copy
import re

import pytest

from clusterdeform import universal
from clusterdeform.atlas import enumerate_atlas
from clusterdeform.seeds import ExtendedExchangeMatrix, Seed, mutate
from clusterdeform.simplicial import cluster_complex, sr_ideal, support_mask
from clusterdeform.universal import (UniversalError, build_universal,
                                     fiber_at_zero)
from tests.atlas_oracle import SEARCH_SEEDS, transpose_u_rows
from tests.conftest import data_seed, owning_sides, path_seed


A2_U_ROWS = [[-1, 0], [0, -1], [0, 1], [1, -1], [1, 0]]
A2_T_IDS = ["t(-1,0)", "t(0,-1)", "t(0,1)", "t(1,-1)", "t(1,0)"]

# each relation: exchange pair, then the two sides as (t exponents, z exponents)
A2_RELATIONS = [
    (("x(-1,1,0,1,0)", "x(0,-1,0,1,1)"),
     ({"t(1,-1)": 1}, {"x(-1,0,0,2,0)": 1, "s3": 1}),
     ({"t(-1,0)": 1, "t(0,1)": 1}, {"s1": 1, "s2": 1})),
    (("x14", "x(-1,0,0,2,0)"),
     ({"t(0,-1)": 1}, {"x(-1,1,0,1,0)": 1, "s2": 1}),
     ({"t(0,1)": 1, "t(1,0)": 1}, {"s1": 2})),
    (("x14", "x(0,-1,0,1,1)"),
     ({"t(0,1)": 1}, {"x13": 1, "s1": 1}),
     ({"t(0,-1)": 1, "t(1,-1)": 1}, {"s2": 1, "s3": 1})),
    (("x13", "x(-1,0,0,2,0)"),
     ({"t(1,0)": 1}, {"x(0,-1,0,1,1)": 1, "s1": 1}),
     ({"t(-1,0)": 1, "t(0,-1)": 1}, {"s2": 2})),
    (("x13", "x(-1,1,0,1,0)"),
     ({"t(-1,0)": 1}, {"x14": 1, "s2": 1}),
     ({"t(1,-1)": 1, "t(1,0)": 1}, {"s1": 1, "s3": 1})),
]


def test_a2_extension_shape(a2_univ):
    assert a2_univ.p == 5
    assert a2_univ.u_rows == A2_U_ROWS
    assert a2_univ.t_ids == A2_T_IDS
    assert a2_univ.variable_order == [
        "x13", "x14", "x(-1,1,0,1,0)", "x(0,-1,0,1,1)", "x(-1,0,0,2,0)",
        "s1", "s2", "s3"]
    assert not a2_univ.has_isolated_vertex


def test_a2_relations(a2_univ):
    got = {frozenset(r["pair"]):
           {(tuple(sorted(t.items())), tuple(sorted(z.items())))
            for t, z in r["sides"]}
           for r in a2_univ.univ_relations}
    for pair, side1, side2 in A2_RELATIONS:
        expected = {(tuple(sorted(t.items())), tuple(sorted(z.items())))
                    for t, z in (side1, side2)}
        assert got[frozenset(pair)] == expected
    assert len(got) == 5


def _degrees(relations, owners, order):
    """t -> the exponent vector over `order` of its owning relation's pair
    minus the z-part of its owning side."""
    out = {}
    for t, (rel_idx, side_idx) in owners.items():
        rel = relations[rel_idx]
        _, z_part = rel["sides"][side_idx]
        out[t] = tuple((v in rel["pair"]) - z_part.get(v, 0) for v in order)
    return out


def test_owner_bookkeeping(a2_univ):
    """Each coefficient's degree is its owning relation's pair minus the
    z-part of the side that carries it alone."""
    owners = owning_sides(a2_univ.univ_relations,
                          a2_univ.base_atlas.frozen_ids)
    assert set(owners) == set(a2_univ.t_ids)
    assert _degrees(a2_univ.univ_relations, owners,
                    a2_univ.variable_order) == dict(
        zip(a2_univ.t_ids, a2_univ.t_degrees))
    for t, (rel_idx, side_idx) in owners.items():
        t_part, _ = a2_univ.univ_relations[rel_idx]["sides"][side_idx]
        assert t_part == {t: 1}


def test_relation_count_preserved():
    seed = path_seed([(1, -1), (1, -1)])
    univ = build_universal(enumerate_atlas(seed))
    assert univ.p == 9
    assert len(univ.univ_relations) == 15


def test_sink_and_source_relation():
    univ = build_universal(enumerate_atlas(data_seed("a1f")))
    assert univ.p == 2
    assert not univ.has_isolated_vertex
    (rel,) = univ.univ_relations
    sides = {(tuple(sorted(t.items())), tuple(sorted(z.items())))
             for t, z in rel["sides"]}
    assert sides == {((("t(1)", 1),), (("f1", 1),)),
                     ((("t(-1)", 1),), ())}
    # both coefficients are distinguished through the single relation
    assert univ.variable_order == ["x1", "x(-1,0)", "f1"]
    assert dict(zip(univ.t_ids, univ.t_degrees)) == {
        "t(1)": (1, 1, -1), "t(-1)": (1, 1, 0)}


def test_isolated_vertex_flag():
    univ = build_universal(enumerate_atlas(path_seed([])))
    assert univ.has_isolated_vertex


def test_fiber_at_zero(a2_univ, a2_ideal):
    result = fiber_at_zero(a2_univ, a2_ideal)
    assert result["verdict"]
    assert len(result["monomials"]) == 5
    for e in result["monomials"]:
        assert sum(e) == 2
        assert a2_ideal.contains(support_mask(e))


def _enumerated_extension(seed, univ):
    """Relations and coefficient degrees from a full enumeration of the
    extended pattern: the seed with the coefficient rows stacked under its
    matrix, its variables mapped to base ones by g-vector prefix, each side
    split into a t-part and a z-part."""
    n, m = seed.matrix.n, seed.matrix.m
    base = univ.base_atlas
    rows = [list(r) for r in seed.matrix.entries] + univ.u_rows
    ext = enumerate_atlas(Seed(ExtendedExchangeMatrix(rows, n=n),
                               list(seed.var_ids) + univ.t_ids))
    t_set = set(univ.t_ids)
    to_base = {v.id: v.id if v.id in t_set or v.id in seed.var_ids
               else base.id_by_g[v.g_vector[:m]]
               for v in ext.variables.values()}
    relations = []
    for ep in ext.exchange_pairs.values():
        pair = frozenset(to_base[v] for v in ep.pair)
        assert len(pair) == 2
        sides = tuple(({v: e for v, e in side if v in t_set},
                       {to_base[v]: e for v, e in side if v not in t_set})
                      for side in ep.monomials)
        relations.append({"pair": pair, "sides": sides})
    relations.sort(key=lambda r: tuple(sorted(r["pair"])))
    # specializing t -> 1 recovers the base exchange relations
    for rel in relations:
        z_sides = sorted(tuple(sorted(z.items())) for _, z in rel["sides"])
        assert tuple(z_sides) == base.exchange_pairs[rel["pair"]].monomials
    owners = owning_sides(relations, base.frozen_ids)
    return relations, _degrees(relations, owners, univ.variable_order)


BUNDLED = ("a1f", "a2", "a3", "a3_bad", "b2", "c2", "d4", "g2",
           "gr26_pullback")
MORE_SEEDS = {
    "B3": lambda: path_seed([(1, -1), (1, -2)]),
    "C3": lambda: path_seed([(1, -1), (2, -1)]),
    "A4": lambda: path_seed([(1, -1), (1, -1), (1, -1)]),
    "gr26_moved": lambda: mutate(mutate(mutate(
        data_seed("gr26_pullback"), 0), 2), 1),
}


@pytest.mark.parametrize("name", BUNDLED + tuple(MORE_SEEDS))
def test_relations_match_enumerated_extension(name):
    """The relations read off the base atlas equal those of a full
    enumeration of the extended pattern, side order included."""
    seed = MORE_SEEDS[name]() if name in MORE_SEEDS else data_seed(name)
    univ = build_universal(enumerate_atlas(seed))
    relations, degrees = _enumerated_extension(seed, univ)
    assert len(relations) == len(univ.base_atlas.exchange_pairs)
    assert univ.univ_relations == relations
    assert dict(zip(univ.t_ids, univ.t_degrees)) == degrees


@pytest.mark.parametrize("name", SEARCH_SEEDS)
def test_u_rows_are_the_transpose_g_vectors(name):
    """The rows read off the base atlas by tropical duality are the
    g-vectors of an enumerated transpose pattern."""
    seed = SEARCH_SEEDS[name]()
    univ = build_universal(enumerate_atlas(seed))
    assert univ.u_rows == transpose_u_rows(seed)


def test_duality_check_names_a_moved_variable(g2_atlas):
    """With d = (3, 1), a copy of the atlas with the two positions of the
    first seed after the root swapped holds z2 where d_i = 3."""
    atlas = copy.deepcopy(g2_atlas)
    state = atlas.seeds[1]
    assert state.ids[1] == "z2"
    state.ids = (state.ids[1], state.ids[0]) + state.ids[2:]
    with pytest.raises(UniversalError, match=r"^duality check: the "
                       r"coefficient row of z2 differs between seeds 0 "
                       r"and 1$"):
        build_universal(atlas)


def test_duality_check_names_a_non_integral_row(g2_atlas):
    """With d = (3, 1), the row of the variable at position 0 divides its
    g-vector's second coordinate by 3."""
    atlas = copy.deepcopy(g2_atlas)
    z1 = atlas.variables["z1"]
    z1.g_vector = (z1.g_vector[0], z1.g_vector[1] + 1) + z1.g_vector[2:]
    with pytest.raises(UniversalError, match=r"^duality check: the "
                       r"coefficient row of z1 is not integral at seed 0$"):
        build_universal(atlas)


@pytest.mark.parametrize("mover", [
    lambda atlas: universal.frozen_mover(atlas, [])(atlas.seeds[1]),
    build_universal], ids=["frozen_mover", "build_universal"])
def test_mover_names_a_seed_whose_path_is_doctored(g2_atlas, mover):
    """The first seed after the root, with its path doctored to the root's,
    holds -B where the mover puts B: the shared mover, and so
    build_universal, refuses it and names the seed."""
    atlas = copy.deepcopy(g2_atlas)
    atlas.seeds[1].path = ()
    with pytest.raises(UniversalError, match=r"^mutable block moved along "
                       r"the path of seed 1 does not match it$"):
        mover(atlas)


def _doctored_a1f(monkeypatch, t_doctor=None, z_doctor=None):
    """build_universal on a1f, whose one relation is
    x1 x(-1,0) = t(1) f1 + t(-1), with the sides read off the coefficient
    rows passed through t_doctor and those read off the base rows through
    z_doctor."""
    atlas = enumerate_atlas(data_seed("a1f"))
    read = universal.exchange_monomials

    def doctored(ids, rows, k):
        sides = read(ids, rows, k)
        doctor = t_doctor if ids[0].startswith("t(") else z_doctor
        return sides if doctor is None else tuple(map(doctor, sides))

    monkeypatch.setattr(universal, "exchange_monomials", doctored)
    return universal.build_universal(atlas)


def test_distinguished_side_must_carry_one_coefficient(monkeypatch):
    """A coefficient with exponent 2 on a distinguished side is refused,
    and the message names the pair."""
    with pytest.raises(UniversalError, match=r"^distinguished side of "
                       r"\{x\(-1,0\), x1\} does not carry a single "
                       r"coefficient with exponent 1$"):
        _doctored_a1f(monkeypatch,
                      t_doctor=lambda side: {t: 2 * e for t, e in side.items()})


def test_every_coefficient_must_appear_alone(monkeypatch):
    """With x1 added to the side of f1, that side is no longer frozen, so
    the opposite side no longer owns t(-1)."""
    with pytest.raises(UniversalError, match=re.escape(
            "coefficients never appear alone: ['t(-1)']")):
        _doctored_a1f(monkeypatch, z_doctor=lambda side: (
            {**side, "x1": 1} if "f1" in side else side))


def test_owning_sides_must_agree_on_the_degree(monkeypatch):
    """With t(-1) renamed t(1), both sides own t(1), with the degrees of
    t(1) and of t(-1)."""
    with pytest.raises(UniversalError, match=re.escape(
            "inconsistent degrees for t(1): (1, 1, -1) and (1, 1, 0)")):
        _doctored_a1f(monkeypatch, t_doctor=lambda side: {
            t.replace("t(-1)", "t(1)"): e for t, e in side.items()})

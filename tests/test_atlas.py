"""Exchange-pattern enumeration: variables, g-vectors, Laurent data."""

import pytest

from clusterdeform import atlas as atlas_module
from clusterdeform.atlas import AtlasError, enumerate_atlas
from clusterdeform.intlinalg import identity_matrix, mat_vec
from clusterdeform.polynomials import Poly, exact_divide
from clusterdeform.seeds import ExtendedExchangeMatrix, Seed
from tests.atlas_oracle import (SEARCH_SEEDS, f_polynomial, reference_atlas,
                                separation_check, tropical_g_vector)
from tests.conftest import data_seed, path_seed, tree_seed
from tests.groebner_oracle import constant_term
from tests.rational_oracle import invert_unimodular


A2_GVECTORS = {
    "x13": (1, 0, 0, 0, 0),
    "x14": (0, 1, 0, 0, 0),
    "s1": (0, 0, 1, 0, 0),
    "s2": (0, 0, 0, 1, 0),
    "s3": (0, 0, 0, 0, 1),
    "x(-1,1,0,1,0)": (-1, 1, 0, 1, 0),
    "x(0,-1,0,1,1)": (0, -1, 0, 1, 1),
    "x(-1,0,0,2,0)": (-1, 0, 0, 2, 0),
}

# Laurent expansions over (x13, x14, s1, s2, s3)
A2_LAURENT = {
    "x(-1,1,0,1,0)": {(-1, 0, 1, 0, 1): 1, (-1, 1, 0, 1, 0): 1},
    "x(0,-1,0,1,1)": {(1, -1, 1, 0, 0): 1, (0, -1, 0, 1, 1): 1},
    "x(-1,0,0,2,0)": {(0, -1, 2, 0, 0): 1, (-1, -1, 1, 1, 1): 1,
                      (-1, 0, 0, 2, 0): 1},
}


def test_a2_variables(a2_atlas):
    assert {v.id: v.g_vector for v in a2_atlas.variables.values()} \
        == A2_GVECTORS
    assert len(a2_atlas.mutable_variables) == 5
    for vid, terms in A2_LAURENT.items():
        assert dict(a2_atlas.laurent_expansion(vid).terms) == terms


def test_a2_clusters_and_pairs(a2_atlas):
    assert len(a2_atlas.seeds) == 5
    assert len(a2_atlas.exchange_pairs) == 5
    mutable = {v.id for v in a2_atlas.mutable_variables}
    for pair in a2_atlas.exchange_pairs:
        assert pair <= mutable
        assert len(pair) == 2


def test_a2_exchange_relation(a2_atlas):
    pair = frozenset({"x13", "x(-1,1,0,1,0)"})
    ep = a2_atlas.exchange_pairs[pair]
    sides = {frozenset(dict(s).items()) for s in ep.monomials}
    assert sides == {frozenset([("x14", 1), ("s2", 1)]),
                     frozenset([("s1", 1), ("s3", 1)])}


def test_exchange_partners(a2_atlas):
    partners = [v for pair in a2_atlas.exchange_pairs if "x13" in pair
                for v in pair - {"x13"}]
    assert sorted(partners) == ["x(-1,0,0,2,0)", "x(-1,1,0,1,0)"]


def test_g2_counts(g2_atlas):
    assert len(g2_atlas.mutable_variables) == 8
    assert len(g2_atlas.seeds) == 8
    assert len(g2_atlas.exchange_pairs) == 8


def test_separation(a2_atlas, g2_atlas):
    assert separation_check(a2_atlas)
    assert separation_check(g2_atlas)


def test_tropical_g_cross_check(a2_atlas, g2_atlas):
    for atlas in (a2_atlas, g2_atlas):
        initial = set(atlas.initial_seed.var_ids)
        for var in atlas.variables.values():
            if var.id in initial:
                continue
            assert tropical_g_vector(atlas, var.id) == var.g_vector


def test_laurent_positivity(g2_atlas):
    for var in g2_atlas.variables.values():
        assert all(c > 0 for c in
                   g2_atlas.laurent_expansion(var.id).terms.values())
        assert constant_term(f_polynomial(g2_atlas, var.id)) == 1


def test_f_polynomial_of_initial_is_one(a2_atlas):
    for vid in a2_atlas.initial_seed.var_ids:
        assert f_polynomial(a2_atlas, vid) == Poly.one(a2_atlas.n)


def test_graph_symmetry(a2_atlas):
    # every edge has a reverse edge, possibly in a different direction
    # because identification permutes cluster positions
    for (i, k), j in a2_atlas.seed_graph.items():
        assert any(a2_atlas.seed_graph.get((j, kk)) == i
                   for kk in range(a2_atlas.n))


def test_budget_exceeded():
    with pytest.raises(AtlasError, match=r"^exchange-graph search: more than "
                       r"2 seeds \(--max-seeds 2\)$"):
        enumerate_atlas(data_seed("a2"), max_seeds=2)


def test_infinite_type_exhausts_the_budget():
    """The Markov quiver is of infinite type: the search, which certifies
    finite type, stops at the budget and names it."""
    markov = Seed(ExtendedExchangeMatrix(
        [[0, 2, -2], [-2, 0, 2], [2, -2, 0]], n=3), ["z1", "z2", "z3"])
    with pytest.raises(AtlasError, match=r"--max-seeds 200\)$"):
        enumerate_atlas(markov, max_seeds=200)


def test_unknown_variable():
    atlas = enumerate_atlas(path_seed([]))
    with pytest.raises(KeyError):
        atlas.laurent_expansion("nope")


def test_a4_counts():
    atlas = enumerate_atlas(path_seed([(1, -1)] * 3))
    assert len(atlas.mutable_variables) == 14
    assert len(atlas.seeds) == 42


def test_cross_check_fires_on_a_wrong_g_vector(g2_seed):
    atlas = enumerate_atlas(g2_seed)
    initial = set(atlas.initial_seed.var_ids)
    var = next(v for v in atlas.variables.values() if v.id not in initial)
    var.g_vector = tuple(-x for x in var.g_vector)
    with pytest.raises(AtlasError, match="disagrees with separation"):
        atlas.laurent_expansion(var.id)


@pytest.mark.parametrize("seed, divisions", [
    (path_seed([(1, -1)] * 5), 1287),
    (tree_seed(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]), 2016),
], ids=["a6", "d6"])
def test_laurent_layer_divides_once_per_edge(monkeypatch, seed, divisions):
    calls = []

    def counted(f, g):
        calls.append(1)
        return exact_divide(f, g)

    monkeypatch.setattr(atlas_module, "exact_divide", counted)
    atlas = enumerate_atlas(seed)
    assert not calls
    for vid in atlas.variables:
        atlas.laurent_expansion(vid)
    edges = sum(1 for (s, _), j in atlas.seed_graph.items() if j > s)
    assert len(calls) == edges == divisions


def _search_record(atlas):
    """Everything the search decides but its seeds, in the order it decides
    it."""
    return {
        "variables": [(v.id, v.g_vector, v.is_frozen)
                      for v in atlas.variables.values()],
        "seed_graph": list(atlas.seed_graph.items()),
        "exchange_pairs": [(key, ep.pair, ep.monomials, ep.seed, ep.k)
                           for key, ep in atlas.exchange_pairs.items()]}


@pytest.mark.parametrize("name", SEARCH_SEEDS)
def test_search_matches_full_mutation_reference(name):
    """The sparse search and the full mutation on every edge agree on
    variables, edges and pairs, insertion order included, and seed by
    seed: B~_t, ids and path are the reference's, H_t d_k / d_i is its
    c-matrix, and H_t inverts its mutable g-matrix block."""
    seed = SEARCH_SEEDS[name]()
    n, m, d = seed.matrix.n, seed.matrix.m, seed.matrix.skew_symmetrizer
    atlas, reference = enumerate_atlas(seed), reference_atlas(seed)
    assert _search_record(atlas) == _search_record(reference)
    assert len(atlas.seeds) == len(reference.seeds)
    for state, ref in zip(atlas.seeds, reference.seeds):
        assert (state.index, state.matrix, state.ids, state.path) \
            == (ref.index, ref.matrix[:m], ref.ids, ref.path)
        H = state.inverse
        assert [[H[k][i] * d[k] for k in range(n)] for i in range(n)] \
            == [[c * d[i] for c in row]
                for i, row in enumerate(ref.matrix[m:])], state.path
        block = [row[:n] for row in ref.g_matrix[:n]]
        assert [mat_vec(H, col) for col in zip(*block)] \
            == identity_matrix(n), state.path


@pytest.mark.parametrize("name", [name for name in SEARCH_SEEDS
                                  if not name.endswith(("_op", "_mu"))])
def test_inverses_match_invert_unimodular(name):
    """Each seed's H_t, updated from its BFS parent's, is the one
    `invert_unimodular` computes from scratch from its variables'
    g-vectors."""
    atlas = enumerate_atlas(SEARCH_SEEDS[name]())
    n = atlas.n
    for state in atlas.seeds:
        block = [atlas.variables[v].g_vector[:n] for v in state.ids[:n]]
        assert state.inverse == invert_unimodular(list(zip(*block))), \
            state.index


def test_inverse_names_a_singular_cone(monkeypatch, a2_seed):
    """A doubled new column fails the pivot test of the inverse update at
    the first seed the search builds."""
    pivot = atlas_module._pivot
    monkeypatch.setattr(atlas_module, "_pivot",
                        lambda H, g, k: pivot(H, [2 * x for x in g], k))
    with pytest.raises(AtlasError,
                       match=r"^the cone of seed 1 is not unimodular$"):
        enumerate_atlas(a2_seed)

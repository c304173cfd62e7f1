"""Graded deformation degrees, witnesses, and the obstruction lookup."""

import pytest

from clusterdeform import cotangent, intlinalg
from clusterdeform.atlas import enumerate_atlas
from clusterdeform.cotangent import (CotangentError, T1Degree,
                                     obstruction_class, t1_degree_families,
                                     t1_invariant, t1_witnesses,
                                     variable_weights)
from clusterdeform.gradings import find_strictly_positive
from clusterdeform.intlinalg import lattice_coordinates, smith_normal_form
from clusterdeform.properties import check_t1
from clusterdeform.seeds import ExtendedExchangeMatrix
from clusterdeform.simplicial import cluster_complex, sr_ideal
from clusterdeform.universal import build_universal
from tests.conftest import augmented_seed, data_seed, path_seed


def characteristic_image(univ):
    """One pinned degree per universal coefficient, read off the relation
    that carries the coefficient alone with exponent 1: the reference for
    the degrees that t1_invariant pins."""
    if univ.has_isolated_vertex:
        raise CotangentError("isolated vertex: characteristic map degenerate")
    mutable = {v.id for v in univ.base_atlas.mutable_variables}
    out = []
    for t_id in univ.t_ids:
        rel_idx, side_idx = univ.owners[t_id][0]
        rel = univ.univ_relations[rel_idx]
        _, z_part = rel["sides"][side_idx]
        b = {v: 1 for v in rel["pair"]}
        omega = {v for v in z_part if v in mutable}
        out.append(T1Degree(None, None, rel["pair"], omega,
                            dict(z_part), b, family=False))
    return out


def degree_vector(degree, order):
    """The degree a - b as a vector over the variable ids in `order`."""
    index = {v: i for i, v in enumerate(order)}
    vec = [0] * len(order)
    for v, e in degree.a.items():
        vec[index[v]] += e
    for v, e in degree.b.items():
        vec[index[v]] -= e
    return tuple(vec)


def test_a2_families(a2_atlas):
    K = cluster_complex(a2_atlas)
    fams = t1_degree_families(a2_atlas, K)
    # rank 2: the mutated vertex always has its single neighbor required,
    # so omega is forced and there is one family per exchangeable pair
    assert len(fams) == 5
    for d in fams:
        assert d.family
        assert len(d.pair) == 2
        assert len(d.omega) == 1
        assert not d.omega & d.pair


def test_a2_pinned_degrees(a2_atlas, a2_univ):
    K = cluster_complex(a2_atlas)
    J = sr_ideal(K, a2_atlas.frozen_ids)
    D = find_strictly_positive(a2_atlas)
    pinned = t1_invariant(a2_atlas, K, J, D)
    image = characteristic_image(a2_univ)
    order = a2_univ.variable_order
    assert len(pinned) == 5
    assert sorted(degree_vector(d, order) for d in pinned) == \
        sorted(degree_vector(d, order) for d in image)


def test_characteristic_image_structure(a2_univ):
    image = characteristic_image(a2_univ)
    assert len(image) == a2_univ.p
    for deg in image:
        assert sum(deg.b.values()) == 2
        assert deg.omega <= set(deg.a)


def test_characteristic_image_rejects_isolated():
    univ = build_universal(enumerate_atlas(path_seed([])))
    with pytest.raises(CotangentError):
        characteristic_image(univ)


def test_witnesses_a3_counterexample(a3_bad_seed):
    from clusterdeform.atlas import enumerate_atlas

    atlas = enumerate_atlas(a3_bad_seed)
    D = find_strictly_positive(atlas)
    root = atlas.seeds[0]
    matrix = root.base_matrix(atlas.n, atlas.m)
    weights = variable_weights(atlas, root.ids, D)
    ws = t1_witnesses(matrix, 0, weights, _snf(matrix))
    assert ws == [[0, 0, 0, 0, -1, 1], [0, 0, 0, 0, 0, 0]]


def test_witnesses_a2_trivial(a2_atlas):
    D = find_strictly_positive(a2_atlas)
    for state in a2_atlas.seeds:
        matrix = state.base_matrix(a2_atlas.n, a2_atlas.m)
        weights = variable_weights(a2_atlas, state.ids, D)
        snf = _snf(matrix)
        for j in range(a2_atlas.n):
            neg_col = [-matrix.entries[i][j] for i in range(a2_atlas.m)]
            for w in t1_witnesses(matrix, j, weights, snf):
                assert w == [0] * a2_atlas.m or w == neg_col


def _snf(matrix):
    return smith_normal_form([list(r) for r in matrix.entries])


def witnesses_by_lattice_coordinates(matrix, j, weights):
    """Reference: the same search box, each candidate of weight 0 filtered
    by its own lattice_coordinates solve.  Returns the witnesses and the
    number of candidates the filter rejected."""
    m, n = matrix.m, matrix.n
    entries = matrix.entries
    lower = []
    for i in range(m):
        if i == j:
            lower.append(0)
        elif i < n and entries[i][j] != 0:
            lower.append(1 - max(0, entries[i][j]))
        else:
            lower.append(-max(0, entries[i][j]))
    cols = [list(r) for r in entries]
    tail = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        tail[i] = tail[i + 1] + weights[i] * lower[i]
    out = []
    rejected = [0]
    w = [0] * m

    def rec(i, acc):
        if i == m:
            if acc == 0:
                if lattice_coordinates(list(w), cols) is not None:
                    out.append(list(w))
                else:
                    rejected[0] += 1
            return
        if i == j:
            w[i] = 0
            rec(i + 1, acc)
            return
        v = lower[i]
        while acc + weights[i] * v + tail[i + 1] <= 0:
            w[i] = v
            rec(i + 1, acc + weights[i] * v)
            v += 1

    rec(0, 0)
    return out, rejected[0]


# On d4 and aug_c4 the Smith form has zero rows, whose equalities prune
# the search.
@pytest.mark.parametrize("name", ["a2", "a3_bad", "gr26_pullback", "aug_b3",
                                  "d4", "aug_c4"])
def test_witnesses_match_per_candidate_solve(name):
    seed = augmented_seed(name) if name.startswith("aug_") else data_seed(name)
    atlas = enumerate_atlas(seed)
    D = find_strictly_positive(atlas)
    found = rejected = 0
    for state in atlas.seeds:
        matrix = state.base_matrix(atlas.n, atlas.m)
        weights = variable_weights(atlas, state.ids, D)
        snf = _snf(matrix)
        for j in range(atlas.n):
            ws = t1_witnesses(matrix, j, weights, snf)
            expected, dropped = witnesses_by_lattice_coordinates(
                matrix, j, weights)
            assert ws == expected
            found += len(ws)
            rejected += dropped
    # the lattice test both kept and dropped candidates
    assert found > 0 and rejected > 0


def test_witnesses_compute_one_smith_form(monkeypatch, a3_bad_seed):
    """t1_witnesses reads the caller's Smith form and computes none."""
    atlas = enumerate_atlas(a3_bad_seed)
    state = atlas.seeds[0]
    matrix = state.base_matrix(atlas.n, atlas.m)
    weights = variable_weights(atlas, state.ids,
                               find_strictly_positive(atlas))
    snf = _snf(matrix)
    calls = []
    monkeypatch.setattr(cotangent, "smith_normal_form", calls.append)
    monkeypatch.setattr(intlinalg, "smith_normal_form", calls.append)
    assert len(t1_witnesses(matrix, 0, weights, snf)) == 2
    assert calls == []


def test_witness_searches_compute_one_smith_form_per_seed(monkeypatch):
    """check_t1 and t1_invariant search every mutable index of a seed
    against that seed's one Smith form, with unchanged results."""
    atlas = enumerate_atlas(data_seed("a3_bad"))
    D = find_strictly_positive(atlas)
    K = cluster_complex(atlas)
    J = sr_ideal(K, atlas.frozen_ids)
    expected = (check_t1(atlas, D).witnesses, t1_invariant(atlas, K, J, D))
    calls = []

    def counted(A):
        calls.append(A)
        return snf(A)

    snf = intlinalg.smith_normal_form
    for module in (cotangent, intlinalg):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    assert check_t1(atlas, D).witnesses == expected[0]
    assert len(calls) == len(atlas.seeds)
    calls.clear()
    assert [d.degree_key() for d in t1_invariant(atlas, K, J, D)] == \
        [d.degree_key() for d in expected[1]]
    assert len(calls) == len(atlas.seeds)


def test_witnesses_require_grading(a2_atlas):
    matrix = a2_atlas.seeds[0].base_matrix(a2_atlas.n, a2_atlas.m)
    with pytest.raises(CotangentError):
        t1_witnesses(matrix, 0, [1, 2, 3, 4, 5], _snf(matrix))


def test_seed_weights_positive(a2_atlas):
    D = find_strictly_positive(a2_atlas)
    for state in a2_atlas.seeds:
        assert all(w >= 1 for w in variable_weights(a2_atlas, state.ids, D))


def test_obstruction_class():
    assert obstruction_class(data_seed("a2").matrix)["unobstructed"]
    assert obstruction_class(path_seed([(1, -1), (1, -1)]).matrix)[
        "unobstructed"]
    for name in ("g2", "b2", "c2"):
        report = obstruction_class(data_seed(name).matrix)
        assert not report["unobstructed"]
    # the Markov quiver is of infinite type
    with pytest.raises(CotangentError):
        obstruction_class(ExtendedExchangeMatrix(
            [[0, 2, -2], [-2, 0, 2], [2, -2, 0]], n=3))


def test_obstruction_class_oriented_three_cycle():
    """The Cartan test rejects the oriented 3-cycle as given, but one
    mutation turns it into the path A3."""
    report = obstruction_class(ExtendedExchangeMatrix(
        [[0, 1, -1], [-1, 0, 1], [1, -1, 0]], n=3))
    assert report == {"unobstructed": True,
                      "reason": "all components simply laced: A3"}

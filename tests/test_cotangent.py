"""Graded deformation degrees and witnesses."""

import copy
import re
from collections import Counter

import pytest

import clusterdeform
from clusterdeform import intlinalg
from clusterdeform.atlas import enumerate_atlas
from clusterdeform.cli import _data_path, main
from clusterdeform.cotangent import (CotangentError, t1_invariant,
                                     t1_witnesses, variable_weights)
from clusterdeform.intlinalg import lattice_coordinates, mat_vec
from clusterdeform.properties import check_t1
from clusterdeform.universal import build_universal
from tests.atlas_oracle import SEARCH_SEEDS
from tests.conftest import (augmented_seed, data_seed, gradings_of,
                            owning_sides, path_seed)


def characteristic_image(univ):
    """One degree {"pair", "a", "b"} per universal coefficient, read off
    the relation that carries the coefficient alone with exponent 1: the
    reference for the degrees that t1_invariant pins."""
    if univ.has_isolated_vertex:
        raise CotangentError("isolated vertex: characteristic map degenerate")
    owners = owning_sides(univ.univ_relations, univ.base_atlas.frozen_ids)
    out = []
    for t_id in univ.t_ids:
        rel_idx, side_idx = owners[t_id]
        rel = univ.univ_relations[rel_idx]
        _, z_part = rel["sides"][side_idx]
        out.append({"pair": sorted(rel["pair"]), "a": dict(z_part),
                    "b": {v: 1 for v in rel["pair"]}})
    return out


def degree_vector(degree, order):
    """The degree a - b as a vector over the variable ids in `order`."""
    index = {v: i for i, v in enumerate(order)}
    vec = [0] * len(order)
    for v, e in degree["a"].items():
        vec[index[v]] += e
    for v, e in degree["b"].items():
        vec[index[v]] -= e
    return tuple(vec)


def test_a2_pinned_degrees(a2_atlas, a2_univ):
    pinned = t1_invariant(a2_atlas, *gradings_of(a2_atlas))
    image = characteristic_image(a2_univ)
    order = a2_univ.variable_order
    assert len(pinned) == 5
    assert sorted(degree_vector(d, order) for d in pinned) == \
        sorted(degree_vector(d, order) for d in image)


def test_characteristic_image_structure(a2_univ):
    image = characteristic_image(a2_univ)
    assert len(image) == a2_univ.p
    for deg in image:
        assert sum(deg["b"].values()) == 2
        assert not set(deg["a"]) & set(deg["pair"])


def test_characteristic_image_rejects_isolated():
    univ = build_universal(enumerate_atlas(path_seed([])))
    with pytest.raises(CotangentError):
        characteristic_image(univ)


def _seed_inputs(atlas, state, D, grading):
    """What t1_witness_walk passes t1_witnesses at one seed, j aside."""
    return ((state.matrix, variable_weights(atlas, state.ids, D))
            + grading.degree_rows(state.ids))


def test_witnesses_a3_counterexample(a3_bad_seed):
    atlas = enumerate_atlas(a3_bad_seed)
    rows, weights, free, torsion = _seed_inputs(
        atlas, atlas.seeds[0], *gradings_of(atlas))
    ws = t1_witnesses(rows, 0, weights, free, torsion)
    assert ws == [[0, 0, 0, 0, -1, 1], [0, 0, 0, 0, 0, 0]]


def test_witnesses_a2_trivial(a2_atlas):
    D, grading = gradings_of(a2_atlas)
    for state in a2_atlas.seeds:
        rows, weights, free, torsion = _seed_inputs(a2_atlas, state, D,
                                                    grading)
        for j in range(a2_atlas.n):
            neg_col = [-row[j] for row in rows]
            for w in t1_witnesses(rows, j, weights, free, torsion):
                assert w == [0] * a2_atlas.m or w == neg_col


def witnesses_by_lattice_coordinates(rows, j, weights):
    """Reference: the same search box, each candidate of weight 0 filtered
    by its own lattice_coordinates solve against the seed's rows.  Returns
    the witnesses and the number of candidates the filter rejected."""
    m, n = len(rows), len(rows[0])
    lower = []
    for i in range(m):
        if i == j:
            lower.append(0)
        elif i < n and rows[i][j] != 0:
            lower.append(1 - max(0, rows[i][j]))
        else:
            lower.append(-max(0, rows[i][j]))
    cols = [list(r) for r in rows]
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


# On d4 and aug_c4 the M-grading has free coordinates, whose equalities
# prune the search.
@pytest.mark.parametrize("name", ["a2", "a3_bad", "gr26_pullback", "aug_b3",
                                  "d4", "aug_c4"])
def test_witnesses_match_per_candidate_solve(name):
    seed = augmented_seed(name) if name.startswith("aug_") else data_seed(name)
    atlas = enumerate_atlas(seed)
    D, grading = gradings_of(atlas)
    found = rejected = 0
    for state in atlas.seeds:
        rows, weights, free, torsion = _seed_inputs(atlas, state, D, grading)
        for j in range(atlas.n):
            ws = t1_witnesses(rows, j, weights, free, torsion)
            expected, dropped = witnesses_by_lattice_coordinates(
                rows, j, weights)
            assert ws == expected
            found += len(ws)
            rejected += dropped
    # the lattice test both kept and dropped candidates
    assert found > 0 and rejected > 0


def check_coefficient_degrees(atlas, univ, uncovered):
    """The multiset {-deg_T(t_i)} of the coefficient degrees lies inside
    the pinned T1 degrees {a - b}, both over univ.variable_order; the two
    are equal exactly when T1 holds, and `uncovered` pinned degrees have
    no coefficient."""
    D, grading = gradings_of(atlas)
    order = univ.variable_order
    pinned = Counter(degree_vector(d, order)
                     for d in t1_invariant(atlas, D, grading))
    coefficients = Counter(tuple(-x for x in deg) for deg in univ.t_degrees)
    assert not coefficients - pinned, \
        "coefficient degrees not pinned: %r" % sorted(coefficients - pinned)
    gap = sorted((pinned - coefficients).elements())
    assert (not gap) == check_t1(atlas, D, grading).holds, \
        "pinned degrees without a coefficient: %r" % gap
    assert len(gap) == uncovered, gap


# Every bundled and augmented seed with a strictly positive grading; a1f,
# a3, b2, c2 and g2 have none.
@pytest.mark.parametrize("name, uncovered", [
    ("a2", 0), ("a3_bad", 5), ("d4", 6), ("gr26_pullback", 0),
    ("aug_b3", 0), ("aug_c3", 2), ("aug_a4", 0), ("aug_b4", 1),
    ("aug_c4", 5), ("aug_d4", 6), ("aug_f4", 17)])
def test_coefficient_degrees_are_pinned_t1_degrees(name, uncovered):
    """The degree-level shadow of A^univ as the semiuniversal deformation:
    the base's coordinates t_i sit in pinned T1 degrees, and fill them
    exactly on the seeds where T1 holds."""
    seed = augmented_seed(name) if name.startswith("aug_") else data_seed(name)
    atlas = enumerate_atlas(seed)
    check_coefficient_degrees(atlas, build_universal(atlas), uncovered)


def test_a_dropped_coefficient_row_names_its_degree(a2_atlas, a2_univ):
    """With the first coefficient row gone, T1 still holds on a2 but one
    pinned degree, the dropped coefficient's, has no coefficient."""
    univ = copy.copy(a2_univ)
    univ.t_ids, univ.u_rows = a2_univ.t_ids[1:], a2_univ.u_rows[1:]
    univ.t_degrees = a2_univ.t_degrees[1:]
    dropped = tuple(-x for x in a2_univ.t_degrees[0])
    with pytest.raises(AssertionError, match=re.escape(
            "pinned degrees without a coefficient: %r" % [dropped])):
        check_coefficient_degrees(a2_atlas, univ, 0)


@pytest.mark.parametrize("name", sorted(SEARCH_SEEDS))
def test_tropical_duality_on_every_seed(name):
    """G_t B~_t = B~_0 C_t on every seed: the g-matrix, read off the
    variables, times the extended exchange matrix is the initial matrix
    times the c-matrix c_ik = H_ki d_k / d_i, the identity behind
    t1_witness_walk's lemma."""
    atlas = enumerate_atlas(SEARCH_SEEDS[name]())
    n, d = atlas.n, atlas.initial_seed.matrix.skew_symmetrizer
    B0 = atlas.seeds[0].matrix
    for state in atlas.seeds:
        G = list(zip(*(atlas.variables[v].g_vector for v in state.ids)))
        H = state.inverse
        C = [[H[k][i] * d[k] // d[i] for k in range(n)] for i in range(n)]
        assert ([mat_vec(G, col) for col in zip(*state.matrix)]
                == [mat_vec(B0, col) for col in zip(*C)]), state.path


def _smith_calls(monkeypatch):
    """Count smith_normal_form calls made anywhere in the package."""
    calls = []
    snf = intlinalg.smith_normal_form

    def counted(A):
        calls.append(A)
        return snf(A)

    for module in vars(clusterdeform).values():
        if getattr(module, "smith_normal_form", None) is snf:
            monkeypatch.setattr(module, "smith_normal_form", counted)
    return calls


def test_witnesses_compute_one_smith_form(monkeypatch, a3_bad_seed):
    """t1_witnesses reads the degree rows of the caller's one M-grading
    and computes no Smith form."""
    atlas = enumerate_atlas(a3_bad_seed)
    rows, weights, free, torsion = _seed_inputs(
        atlas, atlas.seeds[0], *gradings_of(atlas))
    calls = _smith_calls(monkeypatch)
    assert len(t1_witnesses(rows, 0, weights, free, torsion)) == 2
    assert calls == []


@pytest.mark.parametrize("name", ["a2", "a3_bad", "d4"])
def test_witness_searches_compute_one_smith_form_per_pipeline(
        monkeypatch, capsys, name):
    """check_t1 and t1_invariant walk every seed against the given
    M-grading and take no Smith form, with unchanged results; a whole
    `check --property t1` run takes one, the M-grading's, whatever the
    number of seeds."""
    atlas = enumerate_atlas(data_seed(name))
    D, grading = gradings_of(atlas)
    expected = (check_t1(atlas, D, grading).witnesses,
                t1_invariant(atlas, D, grading))
    calls = _smith_calls(monkeypatch)
    assert check_t1(atlas, D, grading).witnesses == expected[0]
    assert t1_invariant(atlas, D, grading) == expected[1]
    assert calls == []
    main(["check", "--property", "t1", _data_path(name)])
    capsys.readouterr()
    assert len(calls) == 1


def test_grading_command_computes_one_smith_form(monkeypatch, capsys):
    """The rank flags are read off the M-grading: a `grading
    --find-positive` run factors B~ once."""
    calls = _smith_calls(monkeypatch)
    assert main(["grading", "--find-positive", "--json",
                 _data_path("d4")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_witnesses_require_grading(a2_atlas):
    rows, _, free, torsion = _seed_inputs(a2_atlas, a2_atlas.seeds[0],
                                          *gradings_of(a2_atlas))
    with pytest.raises(CotangentError):
        t1_witnesses(rows, 0, [1, 2, 3, 4, 5], free, torsion)


def test_seed_weights_positive(a2_atlas):
    D, _ = gradings_of(a2_atlas)
    for state in a2_atlas.seeds:
        assert all(w >= 1 for w in variable_weights(a2_atlas, state.ids, D))

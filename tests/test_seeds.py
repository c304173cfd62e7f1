"""Exchange matrices, mutation, serialization."""

import json
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from clusterdeform.intlinalg import identity_matrix
from clusterdeform.seeds import (ExtendedExchangeMatrix,
                                 is_isolated_vertex_free, load_seed,
                                 mutate_entries, seed_from_dict, seed_to_dict)
from tests.atlas_oracle import e_column
from tests.conftest import data_seed


SAMPLE_MATRICES = [
    ExtendedExchangeMatrix([[0, 1], [-1, 0], [1, 1], [-1, -1], [1, -1]], n=2),
    ExtendedExchangeMatrix([[0, 1], [-3, 0]], n=2),
    ExtendedExchangeMatrix([[0, 1], [-2, 0]], n=2),
    ExtendedExchangeMatrix([[0, -1, 0], [1, 0, -1], [0, 1, 0],
                            [-1, 0, 1], [1, 0, -2], [0, 0, 1]], n=3),
]


@given(st.sampled_from(SAMPLE_MATRICES),
       st.lists(st.integers(0, 2), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_mutation_involution(matrix, path):
    current = matrix.entries
    for k in path:
        k = k % matrix.n
        assert mutate_entries(mutate_entries(current, k), k) == current
        current = mutate_entries(current, k)


def test_skew_symmetrizer():
    b2 = ExtendedExchangeMatrix([[0, 1], [-2, 0]], n=2)
    assert b2.skew_symmetrizer == (2, 1)
    g2 = ExtendedExchangeMatrix([[0, 1], [-3, 0]], n=2)
    assert g2.skew_symmetrizer == (3, 1)
    with pytest.raises(ValueError):
        ExtendedExchangeMatrix([[0, 1], [1, 0]], n=2)
    with pytest.raises(ValueError):
        ExtendedExchangeMatrix([[0, 1], [0, 0]], n=2)


@st.composite
def skew_symmetrizable(draw):
    """(B, components, d) with B_ij = d_j K_ij for a skew-symmetric K that
    is block-diagonal over 1-3 blocks, each connected through its chain
    K_{i,i+1} != 0, with the indices shuffled."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    d = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    K = [[0] * n for _ in range(n)]
    blocks, start = [], 0
    for size in sizes:
        block = list(range(start, start + size))
        for a, i in enumerate(block):
            for j in block[a + 1:]:
                entry = (st.integers(-2, 2).filter(bool) if j == i + 1
                         else st.integers(-2, 2))
                K[i][j] = draw(entry)
                K[j][i] = -K[i][j]
        blocks.append(block)
        start += size
    perm = draw(st.permutations(range(n)))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            B[perm[i]][perm[j]] = d[j] * K[i][j]
    components = [[perm[i] for i in block] for block in blocks]
    return B, components, [d[perm.index(i)] for i in range(n)]


@given(skew_symmetrizable())
@settings(max_examples=150, deadline=None)
def test_skew_symmetrizer_is_minimal_per_component(case):
    B, components, d = case
    n = len(B)
    found = ExtendedExchangeMatrix(B).skew_symmetrizer
    for comp in components:
        g = 0
        for i in comp:
            g = gcd(g, d[i])
        assert [found[i] for i in comp] == [d[i] // g for i in comp]
    # mutation keeps the components and the symmetrizers, so a mutated
    # matrix derives the parent's d again
    for k in range(n):
        mutated = ExtendedExchangeMatrix(mutate_entries(B, k), n=n)
        assert mutated.skew_symmetrizer == found


def test_mutation_preserves_skew_symmetrizability():
    m = ExtendedExchangeMatrix([[0, 1], [-3, 0]], n=2)
    for k in (0, 1, 0, 1):
        m = ExtendedExchangeMatrix(mutate_entries(m.entries, k), n=m.n)
        assert m.skew_symmetrizer == (3, 1)


def e_matrix(matrix, k, sign):
    """The m x m elementary matrix E_{k,eps}: identity off column k."""
    E = identity_matrix(matrix.m)
    for row, x in zip(E, e_column(matrix.entries, k, sign)):
        row[k] = x
    return E


def test_e_matrix_inverts_mutation_on_g():
    m = SAMPLE_MATRICES[0]
    E = e_matrix(m, 0, 1)
    # E is an involution for fixed sign data
    EE = [[sum(E[i][k] * E[k][j] for k in range(m.m)) for j in range(m.m)]
          for i in range(m.m)]
    assert EE == [[1 if i == j else 0 for j in range(m.m)]
                  for i in range(m.m)]


def test_is_isolated_vertex_free():
    assert is_isolated_vertex_free(SAMPLE_MATRICES[0])
    lonely = ExtendedExchangeMatrix([[0]], n=1)
    assert not is_isolated_vertex_free(lonely)
    frozen = ExtendedExchangeMatrix([[0], [1]], n=1)
    assert is_isolated_vertex_free(frozen)


def test_seed_dict_roundtrip(tmp_path):
    seed = data_seed("a3_bad")
    data = seed_to_dict(seed)
    assert list(data) == ["n", "m", "B", "labels"]
    assert seed_from_dict(data) == seed
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    assert load_seed(str(p)) == seed
    # grading rows "D" are not part of the format: the key is ignored, even
    # when B~^T D = 0 fails
    assert seed_from_dict(dict(data, D=[[2], [1], [2], [3], [2], [2]])) == seed
    assert seed_from_dict(dict(data, D=[[5], [1], [2], [3], [2], [2]])) == seed


def test_seed_dict_validation():
    with pytest.raises(ValueError):
        seed_from_dict({"n": 2, "m": 1, "B": [[0, 1]], "labels": ["a"]})
    with pytest.raises(ValueError):
        seed_from_dict({"n": 1, "m": 2, "B": [[0], [1]], "labels": ["a"]})
    ok = seed_from_dict({"n": 1, "m": 2, "B": [[0], [1]]})
    assert ok.var_ids == ("x1", "f1")

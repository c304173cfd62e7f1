"""Fine grading, positive grading search, frozen augmentation, t-degrees."""

import pytest

from clusterdeform.atlas import enumerate_atlas
from clusterdeform.gradings import (add_frozen_for_positivity,
                                    find_positive_grading,
                                    find_strictly_positive, m_grading,
                                    rank_flags)
from clusterdeform.intlinalg import vec_dot
from clusterdeform.seeds import ExtendedExchangeMatrix, Seed
from tests.conftest import data_seed


A2_DEG_H = {
    "x13": ((-1, 1, 1), ()),
    "x14": ((1, -1, 1), ()),
    "x(-1,1,0,1,0)": ((2, -1, 0), ()),
    "x(0,-1,0,1,1)": ((-1, 2, 0), ()),
    "x(-1,0,0,2,0)": ((1, 1, -1), ()),
    "s1": ((1, 0, 0), ()),
    "s2": ((0, 1, 0), ()),
    "s3": ((0, 0, 1), ()),
}

A2_T_DEGREES = {
    "t(-1,0)": (1, -1, 1, 0, 0, 0, -1, 0),
    "t(0,-1)": (0, 1, -1, 0, 1, 0, -1, 0),
    "t(0,1)": (-1, 1, 0, 1, 0, -1, 0, 0),
    "t(1,-1)": (0, 0, 1, 1, -1, 0, 0, -1),
    "t(1,0)": (1, 0, 0, -1, 1, -1, 0, 0),
}


def test_a2_fine_grading(a2_atlas):
    grading = m_grading(a2_atlas)
    assert grading.free_rank == 3
    assert grading.torsion == []
    assert grading.deg_H == A2_DEG_H


def test_exchange_relations_homogeneous(a2_atlas):
    grading = m_grading(a2_atlas)
    for ep in a2_atlas.exchange_pairs.values():
        degs = set()
        pair_deg = tuple(map(sum, zip(*(grading.deg_H[v][0]
                                        for v in ep.pair))))
        degs.add(pair_deg)
        for side in ep.monomials:
            free = (0, 0, 0)
            for v, e in side:
                f = grading.deg_H[v][0]
                free = tuple(a + e * b for a, b in zip(free, f))
            degs.add(free)
        assert len(degs) == 1


def test_torsion_grading():
    """A1 x A1 with frozen rows 2 e_1 and 2 e_2: M = Z^2 + (Z/2)^2, and the
    exchange relations x_i x_i' = f_i^2 + 1 are homogeneous only modulo 2."""
    atlas = enumerate_atlas(Seed(ExtendedExchangeMatrix(
        [[0, 0], [0, 0], [2, 0], [0, 2]], n=2), ["x1", "x2", "f1", "f2"]))
    grading = m_grading(atlas)
    assert grading.free_rank == 2
    assert grading.torsion == [2, 2]
    d1 = grading.degree_of_vector([0, 0, 1, 0])
    d2 = grading.degree_of_vector([0, 0, 1, 2])
    assert d1 == d2
    assert d1 != grading.degree_of_vector([0, 0, 0, 1])
    for ep in atlas.exchange_pairs.values():
        pair = [sum(x) for x in zip(*(atlas.variables[v].g_vector
                                      for v in ep.pair))]
        for side in ep.monomials:
            vec = [0] * atlas.m
            for v, e in side:
                vec = [a + e * b for a, b in
                       zip(vec, atlas.variables[v].g_vector)]
            assert grading.degree_of_vector(vec) == \
                grading.degree_of_vector(pair)


def degree_of_monomial(grading, exponents, order):
    """Degree of a monomial given by exponents over the id list `order`,
    summed from the degrees of its variables."""
    free = (0,) * grading.free_rank
    tors = [0] * len(grading.torsion)
    for v, e in zip(order, exponents):
        if e == 0:
            continue
        f, t = grading.deg_H[v]
        free = tuple(a + e * b for a, b in zip(free, f))
        tors = [x + e * y for x, y in zip(tors, t)]
    tors = tuple(x % d for x, d in zip(tors, grading.torsion))
    return (free, tors)


def test_degree_of_monomial(a2_atlas):
    grading = m_grading(a2_atlas)
    order = ["x13", "s1"]
    d = degree_of_monomial(grading, (2, 1), order)
    assert d == ((-1, 2, 2), ())


def _rank_flags_of(seed):
    return rank_flags(seed.matrix, m_grading(enumerate_atlas(seed)))


def test_rank_flags(a2_seed, a3_bad_seed):
    assert _rank_flags_of(a2_seed) == {"full_rank": True,
                                       "full_Z_rank": True}
    assert _rank_flags_of(a3_bad_seed)["full_rank"]
    degenerate = Seed(ExtendedExchangeMatrix([[0, 0], [0, 0], [1, 1]], n=2),
                      ["a", "b", "f"])
    assert not _rank_flags_of(degenerate)["full_rank"]
    # full rank, but the column lattice 2Z is not saturated
    doubled = Seed(ExtendedExchangeMatrix([[0], [2]], n=1), ["a", "f"])
    assert _rank_flags_of(doubled) == {"full_rank": True,
                                       "full_Z_rank": False}


def test_positive_grading_a2(a2_atlas):
    grading = m_grading(a2_atlas)
    D = find_positive_grading(a2_atlas, grading)
    assert D == [1, 1, 1, 1, 1]
    assert find_strictly_positive(a2_atlas, grading) == [1, 1, 1, 1, 1]


def test_no_positive_grading_without_frozen(g2_atlas):
    assert find_positive_grading(g2_atlas, m_grading(g2_atlas)) is None


def test_add_frozen_for_positivity(g2_seed):
    augmented = add_frozen_for_positivity(g2_seed)
    atlas = enumerate_atlas(augmented)
    D = find_strictly_positive(atlas, m_grading(atlas))
    assert D is not None
    for var in atlas.variables.values():
        assert vec_dot(var.g_vector, D) >= 1
    # every column of B~ sums to zero, so (1,...,1) is a grading
    entries = augmented.matrix.entries
    assert all(sum(row[j] for row in entries) == 0
               for j in range(augmented.matrix.n))
    # the frozen rows keep the mutable block, so d is derived unchanged
    assert (augmented.matrix.skew_symmetrizer
            == g2_seed.matrix.skew_symmetrizer)


def test_a2_t_degrees(a2_univ):
    assert dict(zip(a2_univ.t_ids, a2_univ.t_degrees)) == A2_T_DEGREES


def test_t_degree_matches_relation_balance(a2_univ):
    """Each coefficient degree makes its owning relation homogeneous when z
    variables carry unit degrees."""
    order = a2_univ.variable_order
    index = {v: i for i, v in enumerate(order)}
    degs = dict(zip(a2_univ.t_ids, a2_univ.t_degrees))
    for rel in a2_univ.univ_relations:
        pair_vec = [0] * len(order)
        for v in rel["pair"]:
            pair_vec[index[v]] += 1
        for t_part, z_part in rel["sides"]:
            side_vec = [0] * len(order)
            for v, e in z_part.items():
                side_vec[index[v]] += e
            for t, e in t_part.items():
                side_vec = [a + e * b for a, b in zip(side_vec, degs[t])]
            assert tuple(side_vec) == tuple(pair_vec)

"""Complexes, monomial ideals, links, joins, sphere and flag checks."""

from collections import Counter
from math import comb

import pytest

from clusterdeform.atlas import enumerate_atlas
from clusterdeform.seeds import ExtendedExchangeMatrix, Seed
from clusterdeform.simplicial import (MonomialIdeal, SimplicialComplex,
                                      cluster_complex, minimal_nonfaces,
                                      sr_ideal, support_mask)
from tests.atlas_oracle import SEARCH_SEEDS
from tests.conftest import data_seed, path_seed
from tests.simplicial_oracle import (BUNDLED, ORACLE_SEEDS, dimension,
                                     face_walk_nonfaces, faces, is_pure, join,
                                     link, sphere_check)


def pentagon(a2_atlas):
    return cluster_complex(a2_atlas)


def test_pentagon_structure(a2_atlas):
    K = pentagon(a2_atlas)
    assert len(K.vertices) == 5
    assert len(K.facets) == 5
    assert all(len(f) == 2 for f in K.facets)
    assert is_pure(K) and dimension(K) == 1


def test_pentagon_sr_ideal(a2_atlas):
    K = pentagon(a2_atlas)
    J = sr_ideal(K, a2_atlas.frozen_ids)
    assert J.variables == ["x(-1,0,0,2,0)", "x(-1,1,0,1,0)", "x(0,-1,0,1,1)",
                           "x13", "x14", "s1", "s2", "s3"]
    assert J.generators == [
        (0, 0, 1, 0, 1, 0, 0, 0),
        (0, 1, 0, 1, 0, 0, 0, 0),
        (0, 1, 1, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 1, 0, 0, 0),
        (1, 0, 0, 1, 0, 0, 0, 0),
    ]
    # cone points never occur in a generator
    for g in J.generators:
        assert all(e == 0 for e in g[5:])


def test_octagon_sr_ideal(g2_atlas):
    K = cluster_complex(g2_atlas)
    assert len(K.facets) == 8
    J = sr_ideal(K)
    assert len(J.generators) == 20
    assert all(sum(g) == 2 for g in J.generators)


def test_flagness(a2_atlas, g2_atlas):
    for atlas in (a2_atlas, g2_atlas):
        K = cluster_complex(atlas)
        walked = face_walk_nonfaces(K)
        assert all(len(nf) == 2 for nf in walked)
        assert minimal_nonfaces(K) == walked


@pytest.mark.parametrize("name", sorted(ORACLE_SEEDS))
def test_sr_ideal_matches_face_walk(name):
    """The pairs read off the facets are the minimal nonfaces that the
    face walk finds, on every cluster complex up to E6."""
    atlas = enumerate_atlas(ORACLE_SEEDS[name]())
    K = cluster_complex(atlas)
    J = sr_ideal(K, atlas.frozen_ids)
    variables = K.vertices + list(atlas.frozen_ids)
    assert J.variables == variables
    assert J.generators == sorted(tuple(int(v in nf) for v in variables)
                                  for nf in face_walk_nonfaces(K))


def h_vector_of_faces(K, d):
    """h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_(i-1) for k = 0..d, from the
    number f_(i-1) of faces with i vertices of a complex of dimension
    d - 1, the empty face included."""
    f = Counter(len(face) for face in faces(K))
    return [sum((-1) ** (k - i) * comb(d - i, k - i) * f[i]
                for i in range(k + 1)) for k in range(d + 1)]


def h_vector_of_signs(atlas):
    """h_k = the number of seeds with exactly k negative c-vectors, that
    is, whose H_t has exactly k rows with no positive entry."""
    h = [0] * (atlas.n + 1)
    for state in atlas.seeds:
        h[sum(max(row) <= 0 for row in state.inverse)] += 1
    return h


H_VECTOR_SEEDS = dict(
    [(name, lambda name=name: data_seed(name)) for name in BUNDLED]
    + list(SEARCH_SEEDS.items()))


@pytest.mark.parametrize("name", sorted(H_VECTOR_SEEDS))
def test_h_vector_from_c_vector_signs(name):
    """Counting the seeds by their number of negative c-vectors gives the
    h-vector of the cluster complex, read off its faces, and that vector
    is palindromic, as the h-vector of a sphere is (Dehn-Sommerville).
    The first equality is a cross-check, on every bundled seed and every
    seed of the exchange-graph oracle, not a cited theorem."""
    atlas = enumerate_atlas(H_VECTOR_SEEDS[name]())
    h = h_vector_of_signs(atlas)
    assert h == h_vector_of_faces(cluster_complex(atlas), atlas.n)
    assert h == h[::-1]


def test_full_simplex_zero_ideal():
    K = SimplicialComplex(["a", "b", "c"], [["a", "b", "c"]])
    assert sr_ideal(K).generators == []


def test_monomial_ideal_minimality_and_membership():
    J = MonomialIdeal(["x", "y", "z"],
                      [(1, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1), (0, 1, 1)])
    # x divides xy and xyz, which are not minimal
    assert J.generators == [(0, 1, 1), (1, 0, 0)]
    assert J.masks == [0b110, 0b001]
    assert J.contains(support_mask((2, 5, 0)))
    assert J.contains(support_mask((0, 3, 1)))
    assert not J.contains(support_mask((0, 1, 0)))
    assert not J.contains(0)


def test_monomial_ideal_rejects_non_squarefree():
    with pytest.raises(ValueError, match="not squarefree"):
        MonomialIdeal(["x", "y"], [(1, 1), (2, 0)])


def test_facets_contained_in_larger_facets_are_dropped():
    K = SimplicialComplex("abcd", [["a", "b", "c"], ["a", "b"], ["d"],
                                   ["c", "b", "a"], ["c", "d"], []])
    assert K.facets == [frozenset("abc"), frozenset("cd")]


def test_link_of_pentagon_vertex(a2_atlas):
    K = pentagon(a2_atlas)
    L = link(K, {"x13"})
    assert len(L.vertices) == 2
    assert sorted(sorted(f) for f in L.facets) == [[v] for v in L.vertices]
    assert link(K, set()) == K
    with pytest.raises(ValueError):
        link(K, {"x13", "x14", "s1"})


def test_join_of_zero_spheres_is_square():
    s0a = SimplicialComplex(["a", "b"], [["a"], ["b"]])
    s0b = SimplicialComplex(["c", "d"], [["c"], ["d"]])
    square = join(s0a, s0b)
    assert len(square.facets) == 4
    check = sphere_check(square)
    assert check["pseudomanifold"] and check["euler_ok"]
    with pytest.raises(ValueError):
        join(s0a, s0a)


def test_sphere_checks(a2_atlas):
    K = pentagon(a2_atlas)
    assert sphere_check(K) == {"pseudomanifold": True, "euler_ok": True}
    broken = SimplicialComplex(K.vertices, K.facets[:-1])
    assert not sphere_check(broken)["pseudomanifold"]


def test_a3_sphere_counts():
    atlas = enumerate_atlas(path_seed([(1, -1), (1, -1)]))
    K = cluster_complex(atlas)
    counts = {}
    for f in faces(K):
        counts[len(f)] = counts.get(len(f), 0) + 1
    assert counts[1] == 9 and counts[2] == 21 and counts[3] == 14
    check = sphere_check(K)
    assert check["pseudomanifold"] and check["euler_ok"]


def test_join_decomposition_block_diagonal():
    """A block-diagonal matrix yields the join of the block complexes,
    identified through zero-padded g-vectors."""
    B = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    seed = Seed(ExtendedExchangeMatrix(B, n=3), ["a", "b", "c"])
    atlas = enumerate_atlas(seed)
    K = cluster_complex(atlas)

    blocks = [([0, 1], [[0, 1], [-1, 0]], ["a", "b"]),
              ([2], [[0]], ["c"])]
    parts = []
    for idx, Bsub, labels in blocks:
        sub_atlas = enumerate_atlas(
            Seed(ExtendedExchangeMatrix(Bsub, n=len(idx)), labels))
        Ksub = cluster_complex(sub_atlas)
        rename = {}
        for v in Ksub.vertices:
            g = sub_atlas.variables[v].g_vector
            padded = [0, 0, 0]
            for pos, val in zip(idx, g):
                padded[pos] = val
            rename[v] = atlas.id_by_g[tuple(padded)]
        parts.append(SimplicialComplex(
            [rename[v] for v in Ksub.vertices],
            [{rename[v] for v in f} for f in Ksub.facets]))
    assert join(parts[0], parts[1]) == K


def test_link_seed_compatibility():
    """Removing a cluster variable matches deleting its row and column,
    identified by deleting the corresponding g-vector coordinate."""
    B = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
    seed = Seed(ExtendedExchangeMatrix(B, n=3), ["z1", "z2", "z3"])
    atlas = enumerate_atlas(seed)
    K = cluster_complex(atlas)
    for k in range(3):
        L = link(K, {seed.var_ids[k]})
        keep = [i for i in range(3) if i != k]
        sub = Seed(ExtendedExchangeMatrix(
            [[B[i][j] for j in keep] for i in keep], n=2),
            [seed.var_ids[i] for i in keep])
        sub_atlas = enumerate_atlas(sub)
        Ksub = cluster_complex(sub_atlas)
        sub_by_g = {sub_atlas.variables[v].g_vector: v for v in Ksub.vertices}
        proj = {v: tuple(atlas.variables[v].g_vector[i] for i in keep)
                for v in L.vertices}
        assert set(proj.values()) == set(sub_by_g)
        mapped = sorted(sorted(sub_by_g[proj[v]] for v in f)
                        for f in L.facets)
        assert mapped == sorted(sorted(f) for f in Ksub.facets)

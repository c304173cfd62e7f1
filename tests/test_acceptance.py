"""Acceptance suite: six end-to-end criteria, one PASS/FAIL line each.

Reference values are frozen from independently tabulated data for the bundled
seeds; randomized oracle comparisons use a fixed generator seed so runs are
reproducible.
"""

import functools
import random
import time
from fractions import Fraction
from itertools import combinations

from clusterdeform.atlas import enumerate_atlas
from clusterdeform.cones import Cone, dual_cone
from clusterdeform.cotangent import t1_invariant
from clusterdeform.deform import lift, verify_family
from clusterdeform.cli import Pipeline, family_lines
from clusterdeform.gradings import m_grading
from clusterdeform.groebner import groebner_cone
from clusterdeform.polynomials import Poly
from clusterdeform.properties import (check_t0_star, check_t1, repair_t1,
                                      semigroup_data)
from clusterdeform.seeds import ExtendedExchangeMatrix, mutate_entries
from clusterdeform.simplicial import cluster_complex, minimal_nonfaces
from clusterdeform.universal import build_universal

from tests.atlas_oracle import separation_check
from tests.conftest import data_seed, gradings_of, path_seed, tree_seed
from tests.groebner_oracle import buchberger, grlex_order, normal_form
from tests.lift_oracle import first_order
from tests.simplicial_oracle import face_walk_nonfaces, sphere_check
from tests.test_atlas import A2_GVECTORS, A2_LAURENT
from tests.test_cones import double_dual_is_identity
from tests.test_cotangent import characteristic_image, degree_vector
from tests.test_deform import A2_FAMILY_LINES, G2_FAMILY_LINES, _corrections
from tests.test_gradings import A2_DEG_H, A2_T_DEGREES
from tests.test_groebner import REF_LINEALITY, REF_ORDER, REF_RAYS, _reorder
from tests.test_properties import brute_force_contains
from tests.test_universal import A2_RELATIONS, A2_U_ROWS


# one line per criterion, echoed in the terminal summary by conftest
RESULTS = {}


def criterion(num):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[num] = "FAIL"
                print("CRITERION %d: FAIL" % num)
                raise
            RESULTS[num] = "PASS"
            print("CRITERION %d: PASS" % num)
        return inner
    return wrap


def full_pipeline(name):
    pipe = Pipeline(data_seed(name), 100000)
    return pipe.seed, pipe.atlas, pipe.complex, pipe.ideal, pipe.universal


@criterion(1)
def test_criterion_1_rank2_single_edge_pipeline():
    start = time.monotonic()
    seed, atlas, K, J, univ = full_pipeline("a2")

    # Laurent expansions and all 8 g-vectors, exact
    assert {v.id: v.g_vector for v in atlas.variables.values()} == A2_GVECTORS
    for vid, terms in A2_LAURENT.items():
        assert dict(atlas.laurent_expansion(vid).terms) == terms

    # coefficient rows up to row order; relations exact after relabeling
    assert sorted(univ.u_rows) == sorted(A2_U_ROWS)
    got = {frozenset(r["pair"]):
           {(tuple(sorted(t.items())), tuple(sorted(z.items())))
            for t, z in r["sides"]}
           for r in univ.univ_relations}
    assert len(got) == 5
    for pair, side1, side2 in A2_RELATIONS:
        expected = {(tuple(sorted(t.items())), tuple(sorted(z.items())))
                    for t, z in (side1, side2)}
        assert got[frozenset(pair)] == expected

    # fine grading table and coefficient degrees, exact
    assert m_grading(atlas).deg_H == A2_DEG_H
    assert dict(zip(univ.t_ids, univ.t_degrees)) == A2_T_DEGREES

    # weight cone: equal to the reference up to coordinate relabeling, and
    # smooth mod lineality
    gc = groebner_cone(univ)
    order = univ.variable_order
    assert gc.cone == Cone(
        8,
        [_reorder(r, REF_ORDER, order) for r in REF_LINEALITY],
        [_reorder(r, REF_ORDER, order) for r in REF_RAYS])
    assert gc.smooth_mod_lineality

    # lattice and derivation conditions
    D, grading = gradings_of(atlas)
    assert check_t1(atlas, D, grading).holds
    assert check_t0_star(J, univ, semigroup_data(univ), D).holds

    # the lifted family, sign-normalized to leading coefficient +1
    fam = lift(univ, J, gc.interior_weight)
    assert family_lines(fam) == A2_FAMILY_LINES
    assert all(verify_family(fam).values())

    assert time.monotonic() - start < 5.0


@criterion(2)
def test_criterion_2_rank2_triple_edge_pipeline():
    start = time.monotonic()
    seed, atlas, K, J, univ = full_pipeline("g2")

    # 8 cluster variables whose complex is an octagon
    assert len(atlas.variables) == 8
    check = sphere_check(K)
    assert check["pseudomanifold"] and check["euler_ok"]
    assert len(K.facets) == 8 and all(len(f) == 2 for f in K.facets)
    assert len(J.generators) == 20

    fam = lift(univ, J, groebner_cone(univ).interior_weight)
    assert family_lines(fam) == G2_FAMILY_LINES
    # cubic corrections carry the coefficient -3; nothing else appears
    coeffs = {c for g in fam.generators for c in g.terms.values()}
    assert coeffs == {Fraction(1), Fraction(-1), Fraction(-3)}
    assert sum(1 for g in fam.generators
               if Fraction(-3) in g.terms.values()) == 2

    # specializing t = 1 lands in the Laurent ideal; fiber at t = 0 is J
    result = verify_family(fam)
    assert result["laurent_vanishing"]
    assert result["fiber_at_zero"]

    # not skew-symmetric, so outside the paper's unobstructedness theorem
    B, n = seed.matrix.entries, seed.matrix.n
    assert any(B[i][j] != -B[j][i] for i in range(n) for j in range(n))
    assert time.monotonic() - start < 60.0


@criterion(3)
def test_criterion_3_rank2_double_edge_pair():
    start = time.monotonic()
    squared = {}
    for name in ("b2", "c2"):
        seed, _, K, J, univ = full_pipeline(name)
        check = sphere_check(K)
        assert check["pseudomanifold"] and check["euler_ok"]
        assert len(K.facets) == 6 and all(len(f) == 2 for f in K.facets)

        weight = groebner_cone(univ).interior_weight
        fo = first_order(univ, J, weight)
        recs = _corrections(fo)
        perturbed = [r for r in recs if r[2]]
        assert len(recs) == 9 and len(perturbed) == 6
        sq = set()
        for _, _, extra in perturbed:
            (z, t), = extra
            assert sum(t) == 1 and sum(1 for e in z if e) == 1
            if sum(z) == 2:
                sq.add(fo.z_vars[z.index(2)])
        assert sorted(sum(z) for _, _, extra in perturbed
                      for z, _ in extra) == [1, 1, 1, 2, 2, 2]
        squared[name] = sq

        fam = lift(univ, J, weight)
        assert all(verify_family(fam).values())

    # the two orientations square complementary alternating triples
    assert len(squared["b2"]) == 3 and len(squared["c2"]) == 3
    assert "z1" in squared["c2"] and "z1" not in squared["b2"]
    assert "z2" in squared["b2"] and "z2" not in squared["c2"]
    assert time.monotonic() - start < 10.0


# name, seed, number of cluster variables, number of clusters
FINITE_TYPES = [
    ("A1", lambda: path_seed([]), 2, 2),
    ("A2", lambda: path_seed([(1, -1)]), 5, 5),
    ("A3", lambda: path_seed([(1, -1), (1, -1)]), 9, 14),
    ("A4", lambda: path_seed([(1, -1), (1, -1), (1, -1)]), 14, 42),
    ("D4", lambda: data_seed("d4"), 16, 50),
    ("B2", lambda: data_seed("b2"), 6, 6),
    ("B3", lambda: path_seed([(1, -1), (1, -2)]), 12, 20),
    ("C3", lambda: path_seed([(1, -1), (2, -1)]), 12, 20),
    ("G2", lambda: data_seed("g2"), 8, 8),
    # mutation-equivalent to A3 and to D4, though neither is a tree
    ("oriented 3-cycle", lambda: tree_seed(3, [(0, 1), (1, 2), (2, 0)]),
     9, 14),
    ("chorded 4-cycle",
     lambda: tree_seed(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]), 16, 50),
]


@criterion(4)
def test_criterion_4_counting_properties():
    start = time.monotonic()
    for name, make, variables, clusters in FINITE_TYPES:
        seed = make()
        atlas = enumerate_atlas(seed)
        assert len(atlas.mutable_variables) == variables, name
        assert len(atlas.seeds) == clusters, name
        K = cluster_complex(atlas)
        n, m = atlas.n, atlas.m

        check = sphere_check(K)
        assert check["pseudomanifold"] and check["euler_ok"], name
        walked = face_walk_nonfaces(K)
        assert all(len(nf) == 2 for nf in walked), name
        assert minimal_nonfaces(K) == walked, name

        for state in atlas.seeds:
            bm = ExtendedExchangeMatrix(state.matrix, n=n)
            for k in range(n):
                assert mutate_entries(mutate_entries(bm.entries, k), k) == \
                    bm.entries, name

        assert separation_check(atlas), name

        # frozen coordinates of the g-vectors in one cluster never mix signs
        for cluster in atlas.clusters:
            for f in range(n, m):
                entries = [atlas.variables[v].g_vector[f] for v in cluster]
                assert (all(e >= 0 for e in entries)
                        or all(e <= 0 for e in entries)), name

        univ = build_universal(atlas)
        assert univ.p == len(atlas.mutable_variables), name
    assert time.monotonic() - start < 120.0


@criterion(5)
def test_criterion_5_checker_cross_validation():
    seed, atlas, _, _, univ = full_pipeline("a2")
    pinned = t1_invariant(atlas, *gradings_of(atlas))
    image = characteristic_image(univ)
    order = univ.variable_order
    assert sorted(degree_vector(d, order) for d in pinned) == \
        sorted(degree_vector(d, order) for d in image)

    bad = data_seed("a3_bad")
    bad_atlas = enumerate_atlas(bad)
    report = check_t1(bad_atlas, *gradings_of(bad_atlas))
    assert not report.holds
    first = report.witnesses[0]
    assert first["seed"] == 0 and first["j"] == 0
    assert first["w"] == [0, 0, 0, 0, -1, 1]

    repaired = enumerate_atlas(repair_t1(bad))
    assert check_t1(repaired, *gradings_of(repaired)).holds


def monomials_of_degree(nvars, degree):
    for cut in combinations(range(degree + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for c in cut:
            exps.append(c - prev - 1)
            prev = c
        exps.append(degree + nvars - 2 - prev)
        yield tuple(exps)


def span_membership(target, vectors):
    """Whether target is a rational linear combination of the vectors."""
    rows = [list(v) for v in vectors] + [list(target)]
    cols = len(target)
    mat = [[Fraction(rows[i][j]) for i in range(len(rows))]
           for j in range(cols)]
    rhs_col = len(rows) - 1
    r = 0
    for col in range(rhs_col):
        piv = next((i for i in range(r, cols) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(cols):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return all(mat[i][rhs_col] == 0 for i in range(r, cols))


def brute_force_member(f, gens, nvars):
    """Degree-graded span membership for homogeneous ideals."""
    degree = sum(next(iter(f.terms)))
    basis = []
    index = {e: i for i, e in enumerate(monomials_of_degree(nvars, degree))}
    for g in gens:
        gdeg = sum(next(iter(g.terms)))
        if gdeg > degree:
            continue
        for mult in monomials_of_degree(nvars, degree - gdeg):
            vec = [0] * len(index)
            for e, c in g.terms.items():
                vec[index[tuple(a + b for a, b in zip(e, mult))]] += c
            basis.append(vec)
    target = [0] * len(index)
    for e, c in f.terms.items():
        target[index[e]] = c
    return span_membership(target, basis)


def random_homogeneous_ideal(rng, nvars):
    """A couple of monomials plus one homogeneous binomial."""
    def monomial(degree):
        e = [0] * nvars
        for _ in range(degree):
            e[rng.randrange(nvars)] += 1
        return tuple(e)

    gens = []
    for _ in range(rng.randint(1, 2)):
        gens.append(Poly(nvars, {monomial(rng.randint(2, 3)): Fraction(1)}))
    d = rng.randint(2, 3)
    a, b = monomial(d), monomial(d)
    while b == a:
        b = monomial(d)
    gens.append(Poly(nvars, {a: Fraction(1), b: Fraction(-1)}))
    return gens


@criterion(6)
def test_criterion_6_oracle_equivalences():
    rng = random.Random(20260825)
    nvars = 3
    order = grlex_order(nvars)

    members = nonmembers = 0
    for _ in range(30):
        gens = random_homogeneous_ideal(rng, nvars)
        G = buchberger(gens, order)
        degree = max(sum(next(iter(g.terms))) for g in gens) + 1
        candidates = []
        for g in gens:
            gdeg = sum(next(iter(g.terms)))
            mult = [0] * nvars
            for _ in range(degree - gdeg):
                mult[rng.randrange(nvars)] += 1
            candidates.append(g.scale_monomial(mult))
        for _ in range(4):
            terms = {}
            for e in monomials_of_degree(nvars, degree):
                if rng.random() < 0.3:
                    terms[e] = Fraction(rng.randint(-2, 2))
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                candidates.append(Poly(nvars, terms))
        for f in candidates:
            expected = brute_force_member(f, gens, nvars)
            got = normal_form(f, G, order).is_zero()
            assert got == expected
            if expected:
                members += 1
            else:
                nonmembers += 1
    # the oracle comparison exercised both outcomes
    assert members > 0 and nonmembers > 0

    # semigroup membership against exhaustive search
    univ = build_universal(enumerate_atlas(data_seed("a2")))
    sg = semigroup_data(univ)
    gens = sg.generators
    dim = len(gens[0])
    targets = []
    for _ in range(50):
        combo = [rng.randint(0, 2) for _ in gens]
        t = [sum(c * g[i] for c, g in zip(combo, gens)) for i in range(dim)]
        if rng.random() < 0.5:
            t[rng.randrange(dim)] += rng.choice([-1, 1])
        targets.append(tuple(t))
    for t in targets:
        assert sg.contains(t) == \
            brute_force_contains(gens, sg.positive_functional, t)

    # double dualization fixes every cone the pipeline produces
    for name in ("a2", "g2", "b2", "c2", "a1f", "gr26_pullback", "d4"):
        atlas = enumerate_atlas(data_seed(name))
        gc = groebner_cone(build_universal(atlas))
        assert double_dual_is_identity(gc.cone)
        polar = dual_cone(gc.dual_generators, gc.cone.ambient_dim)
        assert double_dual_is_identity(polar)

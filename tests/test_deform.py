"""The flat family over the coefficient ring: the closed-form construction
against the order-by-order lift kept in `tests/lift_oracle.py`."""

import copy
import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterdeform import deform
from clusterdeform.atlas import Atlas, enumerate_atlas
from clusterdeform.cli import Pipeline, family_lines
from clusterdeform.deform import DeformError, lift, verify_family
from clusterdeform.intlinalg import vec_dot
from clusterdeform.polynomials import MonomialOrder, Poly, monomial_str
from clusterdeform.simplicial import cluster_complex, sr_ideal
from clusterdeform.universal import build_universal
from tests import lift_oracle
from tests.conftest import (AUGMENTED, augmented_seed, data_seed,
                            path_seed)
from tests.groebner_oracle import buchberger, compose
from tests.lift_oracle import (_candidates, _exchange_minimal,
                               _pair_reductions, _spairs, first_order,
                               in_order_zero, universal_images)
from tests.rational_oracle import invert_unimodular, rref
from tests.simplicial_oracle import BUNDLED


A2_FAMILY_LINES = [
    'x(-1,1,0,1,0)*x(0,-1,0,1,1) - x(-1,0,0,2,0)*s3*t(1,-1)'
    ' - s1*s2*t(-1,0)*t(0,1)',
    'x14*x(-1,0,0,2,0) - x(-1,1,0,1,0)*s2*t(0,-1) - s1^2*t(0,1)*t(1,0)',
    'x14*x(0,-1,0,1,1) - x13*s1*t(0,1) - s2*s3*t(0,-1)*t(1,-1)',
    'x13*x(-1,0,0,2,0) - x(0,-1,0,1,1)*s1*t(1,0) - s2^2*t(-1,0)*t(0,-1)',
    'x13*x(-1,1,0,1,0) - x14*s2*t(-1,0) - s1*s3*t(1,-1)*t(1,0)',
]

G2_FAMILY_LINES = [
    'x(-1,0)*x(-2,3) - x(-1,1)^3*t(2,-1)'
    ' - t(-1,0)^2*t(0,-1)^3*t(0,1)^3*t(1,-1)*t(1,0)',
    'x(-1,2)*x(-1,1) - x(-2,3)*t(3,-2)'
    ' - t(-1,0)*t(0,-1)*t(0,1)^2*t(1,0)*t(3,-1)',
    'x(-1,2)*x(-1,0) - x(-1,1)^2*t(2,-1)*t(3,-2)'
    ' - x(0,-1)*t(-1,0)*t(0,-1)*t(0,1)^2*t(1,0)',
    'x(0,-1)*x(-1,1) - x(-1,0)*t(3,-1)'
    ' - t(-1,0)*t(0,-1)^2*t(0,1)*t(1,-1)*t(3,-2)',
    'x(0,-1)*x(-2,3) - x(-1,1)^2*t(2,-1)*t(3,-1)'
    ' - x(-1,2)*t(-1,0)*t(0,-1)^2*t(0,1)*t(1,-1)',
    'x(0,-1)*x(-1,2) - z2*t(-1,0)*t(0,-1)*t(0,1)'
    ' - x(-1,1)*t(2,-1)*t(3,-2)*t(3,-1)',
    'x(-1,3)*x(-1,1) - x(-1,2)^2*t(1,-1)*t(3,-2)'
    ' - z2*t(-1,0)*t(0,1)^2*t(1,0)*t(3,-1)',
    'x(-1,3)*x(-2,3) - x(-1,2)^3*t(1,-1)'
    ' - t(-1,0)*t(0,1)^3*t(1,0)^2*t(2,-1)*t(3,-1)^3',
    'x(-1,3)*x(-1,0) - z1*t(-1,0)*t(0,1)^3*t(1,0)'
    ' - x(-2,3)*t(1,-1)*t(2,-1)*t(3,-2)^3'
    ' - 3*t(-1,0)*t(0,-1)*t(0,1)^2*t(1,-1)*t(1,0)'
    '*t(2,-1)*t(3,-2)^2*t(3,-1)',
    'x(-1,3)*x(0,-1) - z2^2*t(-1,0)*t(0,1)'
    ' - x(-1,2)*t(1,-1)*t(2,-1)*t(3,-2)^2*t(3,-1)',
    'z2*x(-1,1) - x(0,-1)*t(0,1)*t(1,0)*t(3,-1)'
    ' - x(-1,2)*t(0,-1)*t(1,-1)*t(3,-2)',
    'z2*x(-2,3) - x(-1,2)^2*t(0,-1)*t(1,-1)'
    ' - x(-1,1)*t(0,1)*t(1,0)*t(2,-1)*t(3,-1)^2',
    'z2*x(-1,0) - x(0,-1)^2*t(0,1)*t(1,0)'
    ' - x(-1,1)*t(0,-1)*t(1,-1)*t(2,-1)*t(3,-2)^2',
    'z2*x(-1,2) - x(-1,3)*t(0,-1) - t(0,1)*t(1,0)*t(2,-1)*t(3,-2)*t(3,-1)^2',
    'z2*x(0,-1) - z1*t(0,1) - t(0,-1)*t(1,-1)*t(2,-1)*t(3,-2)^2*t(3,-1)',
    'z1*x(-1,1) - x(0,-1)^2*t(1,0)*t(3,-1)'
    ' - z2*t(-1,0)*t(0,-1)^2*t(1,-1)*t(3,-2)',
    'z1*x(-2,3) - x(-1,3)*t(-1,0)*t(0,-1)^3*t(1,-1)'
    ' - x(-1,0)*t(1,0)*t(2,-1)*t(3,-1)^3'
    ' - 3*t(-1,0)*t(0,-1)^2*t(0,1)*t(1,-1)*t(1,0)'
    '*t(2,-1)*t(3,-2)*t(3,-1)^2',
    'z1*x(-1,0) - x(0,-1)^3*t(1,0)'
    ' - t(-1,0)*t(0,-1)^3*t(1,-1)^2*t(2,-1)*t(3,-2)^3',
    'z1*x(-1,2) - z2^2*t(-1,0)*t(0,-1)'
    ' - x(0,-1)*t(1,0)*t(2,-1)*t(3,-2)*t(3,-1)^2',
    'z1*x(-1,3) - z2^3*t(-1,0) - t(1,-1)*t(1,0)*t(2,-1)^2*t(3,-2)^3*t(3,-1)^3',
]


def lifted_family(name):
    return pipeline(name).lifted_family(16)


def test_a2_family_golden():
    fam = lifted_family("a2")
    assert fam.weights == [0, 2, 4, 1, 4, 1, 0, 0]
    assert fam.lam == [2, 2, 2, 1, 2]
    assert family_lines(fam) == A2_FAMILY_LINES
    result = verify_family(fam)
    assert all(result.values())


def test_g2_family_golden():
    fam = lifted_family("g2")
    assert fam.weights == [9, 5, 9, 5, 5, 9, 9, 5]
    assert family_lines(fam) == G2_FAMILY_LINES
    result = verify_family(fam)
    assert all(result.values())


def test_g2_cubic_coefficients():
    fam = lifted_family("g2")
    coeffs = {c for g in fam.generators for c in g.terms.values()}
    assert Fraction(-3) in coeffs
    assert coeffs <= {Fraction(1), Fraction(-1), Fraction(-3)}


def _corrections(fam):
    """Per perturbed generator: list of (z exponents, t exponents)."""
    out = []
    for g, lead, exch in zip(fam.generators, fam.sr_leads,
                             lift_oracle.exchange_flags(fam)):
        extra = [(e[:fam.nz], e[fam.nz:]) for e in g.terms
                 if e[:fam.nz] != tuple(lead[:fam.nz])]
        out.append((exch, tuple(lead[:fam.nz]), extra))
    return out


@pytest.mark.parametrize("name", ["b2", "c2"])
def test_rank2_double_edge_first_order_shape(name):
    fam = first_order_family(name)
    recs = _corrections(fam)
    assert len(recs) == 9
    perturbed = [r for r in recs if r[2]]
    assert len(perturbed) == 6
    assert all(exch for exch, _, _ in perturbed)
    for _, _, extra in perturbed:
        (z, t), = extra
        # a single coefficient times a single cluster variable
        assert sum(t) == 1
        assert sum(1 for e in z if e) == 1
    exps = sorted(sum(z) for _, _, extra in perturbed for z, _ in extra)
    assert exps == [1, 1, 1, 2, 2, 2]


@pytest.mark.parametrize("name", ["b2", "c2"])
def test_rank2_double_edge_squared_triple(name):
    fam = first_order_family(name)
    squared = set()
    for _, _, extra in _corrections(fam):
        for z, _ in extra:
            if sum(z) == 2:
                squared.add(z.index(2))
    assert len(squared) == 3
    # every pair of squared vertices is itself an exchangeable pair
    leads = {frozenset(i for i, e in enumerate(l[:fam.nz]) if e)
             for l in fam.sr_leads}
    for a in squared:
        for b in squared:
            if a < b:
                assert frozenset({a, b}) in leads


def test_rank2_double_edge_opposite_patterns():
    """Swapping the two edge weights swaps which side of each pair carries
    the square."""
    sq = {}
    for name in ("b2", "c2"):
        fam = first_order_family(name)
        squared = set()
        for _, _, extra in _corrections(fam):
            for z, _ in extra:
                if sum(z) == 2:
                    squared.add(fam.z_vars[z.index(2)])
        sq[name] = squared
    assert "z1" in sq["c2"] and "z1" not in sq["b2"]
    assert "z2" in sq["b2"] and "z2" not in sq["c2"]


@pytest.mark.parametrize("name", ["b2", "c2"])
def test_rank2_double_edge_unobstructed(name):
    fam = lifted_family(name)
    assert all(verify_family(fam).values())


def test_lifted_tails_are_reduced():
    fam = lifted_family("a2")
    for g, lead in zip(fam.generators, fam.sr_leads):
        for e in g.terms:
            if e[:fam.nz] != tuple(lead[:fam.nz]):
                assert not in_order_zero(fam, e)


def test_lift_rejects_isolated():
    univ = build_universal(enumerate_atlas(path_seed([])))
    K = cluster_complex(enumerate_atlas(path_seed([])))
    J = sr_ideal(K, [])
    with pytest.raises(DeformError, match="isolated vertex"):
        lift(univ, J, [1] * 2)


def test_lift_rejects_bad_weight(a2_univ, a2_ideal):
    with pytest.raises(DeformError, match="negative entries"):
        lift(a2_univ, a2_ideal, [-1] * 8)
    with pytest.raises(DeformError, match="not positive"):
        lift(a2_univ, a2_ideal, [0] * 8)


def test_lift_order_budget():
    with pytest.raises(DeformError, match="order budget exceeded"):
        pipeline("g2").lifted_family(2)


def vanishes_at_t_equal_one(family):
    """The vanishing check with t = 1: each generator's z-part vanishes on
    the Laurent expansions of the cluster variables."""
    atlas = family.univ.base_atlas
    images = [atlas.laurent_expansion(v) for v in family.z_vars]
    return all(compose(g.project(range(family.nz)), images).is_zero()
               for g in family.generators)


def test_vanishing_check_keeps_t():
    """One t-exponent raised in one tail term goes unseen at t = 1 but
    breaks vanishing in A^univ."""
    fam = lifted_family("a2")
    terms = dict(fam.generators[0].terms)
    e = next(e for e in terms if fam.tdeg(e))
    raised = e[:-1] + (e[-1] + 1,)
    assert raised not in terms
    terms[raised] = terms.pop(e)
    fam.generators[0] = Poly(fam.nv, terms)
    assert vanishes_at_t_equal_one(fam)
    report = verify_family(fam)
    assert report["fiber_at_zero"] and not report["laurent_vanishing"]


def divide_by_every_t(pipe, u, fam, monkeypatch):
    """p(u)'s t-part lowered by 1, as if u's image were divided by every
    t: the peel of the first generator, which holds u, meets a t-exponent
    -1."""
    separation = deform._separation

    def lowered(univ):
        F, p, R = separation(univ)
        m = univ.base_atlas.m
        p[u] = p[u][:m] + tuple(x - 1 for x in p[u][m:])
        return F, p, R

    monkeypatch.setattr(deform, "_separation", lowered)
    return "generator %s: " % monomial_str(fam.z_vars,
                                           fam.sr_leads[0][:fam.nz])


def double_every_image(pipe, u, fam, monkeypatch):
    """Every principal expansion doubled, so every F-polynomial has
    constant term 2: the certificate names the first variable."""
    principal = pipe.atlas.principal
    for v in principal:
        principal[v] = principal[v] * 2
    return "pointed-term certificate: the F-polynomial of %s " % fam.z_vars[0]


@pytest.mark.parametrize("alter, message", [
    (divide_by_every_t, "negative t-exponent"),
    (double_every_image, "pointed-term certificate")])
def test_bad_images_name_the_generator(alter, message, monkeypatch):
    """Corrupted F-space data stops `lift` with an error that names the
    generator or the variable it reached."""
    fam = first_order_family("a2")
    pipe = pipeline("a2")
    start = alter(pipe, fam.sr_leads[0].index(1), fam, monkeypatch)
    with pytest.raises(DeformError, match=message) as err:
        pipe.lifted_family(16)
    assert str(err.value).startswith(start)


def test_exponent_outside_the_fan_names_the_generator(monkeypatch):
    monkeypatch.setattr(Atlas, "cluster_monomial", lambda atlas, g: None)
    fam = first_order_family("a2")
    name = monomial_str(fam.z_vars, fam.sr_leads[0][:fam.nz])
    with pytest.raises(DeformError, match="generator %s: exponent .* lies "
                       "in no cone" % re.escape(name)):
        lifted_family("a2")


def test_dropped_tail_term_is_not_flat(monkeypatch):
    """A generator short of one tail term still leads with its SR
    monomial, and the construction certificates cannot see the patched
    expansion: `lift` returns the family.  --verify and the oracle's
    S-pair check reject it."""
    expansion = deform._expansion

    def dropped(family, lead, *args):
        g = expansion(family, lead, *args)
        if lead != family.sr_leads[0]:
            return g
        tail = max(e for e in g.terms if e != lead)
        return Poly(family.nv, {e: c for e, c in g.terms.items()
                                if e != tail})

    monkeypatch.setattr(deform, "_expansion", dropped)
    fam = lifted_family("a2")
    assert not verify_family(fam)["laurent_vanishing"]
    reductions = _pair_reductions(fam, _spairs(fam))
    assert any(not r.is_zero() for *_, r, _ in reductions)


def test_pointed_term_certificate():
    """A frozen variable's principal expansion plus a mutable one's: its
    F-polynomial has constant term 2, and the certificate names it."""
    pipe = pipeline("a2")
    atlas = pipe.atlas
    frozen = atlas.frozen_ids[0]
    mutable = atlas.mutable_variables[0].id
    atlas.principal[frozen] = atlas.principal[frozen] + \
        atlas.principal[mutable]
    with pytest.raises(DeformError, match="^pointed-term certificate: the "
                       "F-polynomial of %s " % re.escape(frozen)):
        pipe.lifted_family(16)


def test_pointed_term_certificate_sees_a_negative_exponent():
    """A term x^g * y_1^-1 added to one principal expansion: the constant
    term of its F-polynomial is still 1, but the exponent -1 trips the
    certificate, which names the variable."""
    pipe = pipeline("a2")
    atlas = pipe.atlas
    v = atlas.mutable_variables[-1]
    e = v.g_vector + (-1,) + (0,) * (atlas.n - 1)
    atlas.principal[v.id] = atlas.principal[v.id] + Poly.monomial(len(e), e)
    with pytest.raises(DeformError, match="^pointed-term certificate: the "
                       "F-polynomial of %s " % re.escape(v.id)):
        pipe.lifted_family(16)


@pytest.mark.parametrize("name", BUNDLED + sorted(AUGMENTED))
def test_images_are_the_principal_expansions(name):
    """The images `verify_family` builds from F, p and R equal the ones
    the principal expansions give by substitution: the full x-exponents of
    `Atlas.principal` are in separation form."""
    seed = augmented_seed(name) if name in AUGMENTED else data_seed(name)
    univ = build_universal(enumerate_atlas(seed))
    assert deform._laurent_images(*deform._separation(univ)) == \
        universal_images(univ)


def test_fan_certificate_names_a_folded_wall():
    """One g-vector reflected in one seed's cone, on a copy of the atlas,
    so row k of its H_t is negated: the new variable of an edge out of that
    seed lands on the same side of their wall."""
    pipe = pipeline("a2")
    atlas = copy.deepcopy(pipe.atlas)
    assert pipe.atlas.fan_defect() is None
    s, k = len(atlas.seeds) - 1, 0
    H = atlas.seeds[s].inverse
    H[k] = [-x for x in H[k]]
    j = atlas.seed_graph[(s, k)]
    assert atlas.fan_defect() == ("edge (%d, %d) -> %d: the cones lie on one "
                                  "side of their wall" % (s, k, j))
    univ = copy.copy(pipe.universal)
    univ.base_atlas = atlas
    with pytest.raises(DeformError, match=r"fan certificate: edge \(%d, %d\)"
                       % (s, k)):
        lift(univ, pipe.ideal, pipe.cone.interior_weight)


def scanned_cluster_monomial(atlas, inverses, g):
    """The cluster monomial with g-vector g, read off every seed whose cone
    holds g through its inverse mutable g-matrix block; all of them must
    agree."""
    found = set()
    for state, H in zip(atlas.seeds, inverses):
        c = [vec_dot(h, g) for h in H]
        if min(c) < 0:
            continue
        G = list(zip(*(atlas.variables[v].g_vector for v in state.ids)))
        c += [g[r] - vec_dot(G[r], c) for r in range(atlas.n, atlas.m)]
        found.add(None if min(c) < 0 else
                  tuple(sorted((v, x) for v, x in zip(state.ids, c) if x)))
    assert len(found) == 1, found
    return found.pop()


@pytest.mark.parametrize("name", ["d4", "gr26_pullback"])
def test_fan_index_matches_linear_scan(name, monkeypatch):
    """Every cone lookup the family makes, answered by the walk through the
    g-vector fan and by trying every seed."""
    answers = {}
    locate = Atlas.cluster_monomial

    def recorded(atlas, g):
        answers[g] = locate(atlas, g)
        return answers[g]

    monkeypatch.setattr(Atlas, "cluster_monomial", recorded)
    pipe = pipeline(name)
    pipe.lifted_family(16)
    assert len(answers) >= 30
    atlas = pipe.atlas
    n = atlas.n
    inverses = [invert_unimodular(list(zip(*(atlas.variables[v].g_vector[:n]
                                             for v in state.ids[:n]))))
                for state in atlas.seeds]
    for g, mono in answers.items():
        assert mono == scanned_cluster_monomial(atlas, inverses, g), g


ORACLE_SEEDS = ["a2", "b2", "c2", "g2", "a3", "a3_bad", "gr26_pullback",
                "B3", "C3", "d4"]


@pytest.mark.parametrize("name", ORACLE_SEEDS)
def test_family_equals_order_by_order_oracle(name):
    """The closed-form family is the order-by-order lift's, generator by
    generator, at the order the lift reports."""
    expected = lift_oracle.lift(first_order_family(name))
    fam = lifted_family(name)
    assert fam.generators == expected.generators
    assert fam.order == expected.order


@pytest.mark.parametrize("name", ORACLE_SEEDS)
def test_every_spair_reduces_to_zero(name):
    """Buchberger's criterion, the check the construction certificates
    replaced in `lift`, holds on the closed-form family."""
    fam = lifted_family(name)
    reductions = _pair_reductions(fam, _spairs(fam))
    assert reductions and all(r.is_zero() for *_, r, _ in reductions)


@pytest.mark.parametrize("coeffs", [[(1, -1), (1, -1), (1, -2)],
                                    [(1, -1), (1, -1), (2, -1)]],
                         ids=["B4", "C4"])
def test_rank4_path_families_are_flat(coeffs):
    """B4 and C4, past the order-by-order lift's reach: every verify flag
    holds at max_order 64 and every S-pair reduces to zero."""
    fam = Pipeline(path_seed(coeffs), 100000).lifted_family(64)
    assert all(verify_family(fam).values())
    reductions = _pair_reductions(fam, _spairs(fam))
    assert reductions and all(r.is_zero() for *_, r, _ in reductions)


def compositions(k, n):
    """The n-tuples of nonnegative integers summing to k, in lexicographic
    order."""
    if n == 0:
        if k == 0:
            yield ()
        return
    for b in range(k + 1):
        for rest in compositions(k - b, n - 1):
            yield (b,) + rest


def reference_candidates(fam, k):
    """For each generator j, every t-exponent of total degree k, in
    lexicographic order, kept when it fits the weight budget of j and
    leaves a standard z-part >= 0."""
    nz, nt = fam.nz, len(fam.t_vars)
    degs = lift_oracle.t_degree_list(fam)
    moves = [(beta, vec_dot(fam.lam, beta),
              [sum(b * d[x] for b, d in zip(beta, degs)) for x in range(nz)])
             for beta in compositions(k, nt)]
    out = []
    for lead in fam.sr_leads:
        target = lead[:nz]
        budget = vec_dot(fam.weights, target)
        found = []
        for beta, cost, shift in moves:
            gamma = tuple(x - y for x, y in zip(target, shift))
            if (cost <= budget and min(gamma) >= 0
                    and not in_order_zero(fam, gamma)):
                found.append((beta, gamma))
        out.append(found)
    return out


RANK3 = {"B3": [(1, -1), (1, -2)], "C3": [(1, -1), (2, -1)]}


def pipeline(name):
    seed = path_seed(RANK3[name]) if name in RANK3 else data_seed(name)
    return Pipeline(seed, 100000)


def first_order_family(name):
    pipe = pipeline(name)
    return first_order(pipe.universal, pipe.ideal, pipe.cone.interior_weight)


@pytest.mark.parametrize("name", ["g2", "b2", "a3"])
def test_pruned_candidates_match_full_enumeration(name):
    fam = first_order_family(name)
    found = 0
    for k in range(2, 7):
        for j, expected in enumerate(reference_candidates(fam, k)):
            got = _candidates(fam, j, k)
            assert got == expected, (j, k)
            found += len(got)
    assert found > 0


@pytest.mark.parametrize("name, make, digest", [
    ("B3", lambda: path_seed([(1, -1), (1, -2)]),
     "0ba6d6ff73a6b40a06866ea8cc0be17d941bb0de07f791ffa78145d36563ef6f"),
    ("C3", lambda: path_seed([(1, -1), (2, -1)]),
     "6921a4bb28060875fd72fd1dfae0035476d9fbe80dd84e1e3f3435953dc67f20"),
    ("D4", lambda: data_seed("d4"),
     "3bb2b300aede94cd2fef0c1e4aa9b5a03da2ca09f823097e07a89831f3c984b5"),
], ids=["B3", "C3", "D4"])
def test_rank3_and_rank4_lifts_verify(name, make, digest):
    """Generator count and order, verify flags, and the SHA-256 of the
    printed family, frozen from the lift as first written."""
    pipe = Pipeline(make(), 100000)
    fam = pipe.lifted_family(16)
    if name == "D4":
        assert (len(fam.generators), fam.order) == (54, 16)
    else:
        assert (len(fam.generators), fam.order) == (36, 16)
    assert all(verify_family(fam).values()), name
    text = "\n".join(family_lines(fam))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, name


@pytest.mark.parametrize("name", ["a2", "b2", "c2", "g2", "gr26_pullback"])
def test_buchberger_adds_nothing_to_lift(name):
    """Independent oracle for the lift: Buchberger's algorithm, run on the
    lifted generators in the lift's monomial order, finds them a Groebner
    basis already."""
    pipe = Pipeline(data_seed(name), 100000)
    fam = pipe.lifted_family(16)
    order = MonomialOrder(fam.weights + [0] * len(fam.t_vars))
    assert buchberger(fam.generators, order) == fam.generators


def truncated_divide(f, divisors, order, keep):
    """Division of f by (leading exponent, Poly) pairs that drops every
    term e with keep(e) false wherever it arises.  With keep(e) =
    tdeg(e) <= k it is an S-pair's division truncated at order k."""
    work = {e: c for e, c in f.terms.items() if keep(e)}
    quotients = [{} for _ in divisors]
    remainder = {}
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        for (le, g), q in zip(divisors, quotients):
            if all(a <= b for a, b in zip(le, e)):
                break
        else:
            remainder[e] = c
            continue
        m = tuple(a - b for a, b in zip(e, le))
        factor = Fraction(c) / Fraction(g.terms[le])
        q[m] = factor
        for x, cx in g.terms.items():
            x = tuple(a + b for a, b in zip(x, m))
            if x == e or not keep(x):
                continue
            work[x] = work.get(x, 0) - factor * cx
            if work[x] == 0:
                del work[x]
    return ([Poly(f.nvars, q) for q in quotients],
            Poly(f.nvars, remainder))


def kept_part(p, keep):
    return Poly(p.nvars, {e: c for e, c in p.terms.items() if keep(e)})


@pytest.mark.parametrize("name", ["a2", "b2", "c2", "g2", "gr26_pullback"])
def test_uncut_reductions_hold_every_truncated_division(name, monkeypatch):
    """At every state of the generators the lift divides, and for every
    k up to the order, the division truncated at t-degree k equals the
    t-degree <= k part of the uncut division, remainder and quotients."""
    fam = first_order_family(name)
    states = []

    def recorded(family, spairs):
        out = pair_reductions(family, spairs)
        states.append((list(family.generators), out))
        return out

    pair_reductions = lift_oracle._pair_reductions
    monkeypatch.setattr(lift_oracle, "_pair_reductions", recorded)
    lift_oracle.lift(fam)
    assert len(states) > 1
    order = MonomialOrder(fam.weights)
    for gens, reductions in states:
        divisors = list(zip(fam.sr_leads, gens))
        for i, l, mi, ml, r, q in reductions:
            s = gens[i].scale_monomial(mi) + gens[l].scale_monomial(ml, -1)
            for k in range(fam.order + 1):
                def keep(e):
                    return fam.tdeg(e) <= k

                cut_q, cut_r = truncated_divide(s, divisors, order, keep)
                assert cut_r == kept_part(r, keep), (i, l, k)
                assert cut_q == [kept_part(qj, keep) for qj in q], (i, l, k)


@pytest.mark.parametrize("name, divisions", [("g2", 480), ("a3", 144)])
def test_lift_divides_once_per_state(name, divisions, monkeypatch):
    """One batch division of every S-pair at the start and after each
    round that changed the generators; a division per round made g2 1280
    and a3 396."""
    fam = first_order_family(name)
    calls = []
    changed = []

    def counted(dividends, *args):
        calls.append(len(dividends))
        return divide(dividends, *args)

    def recorded(*args):
        changed.append(lift_round(*args))
        return changed[-1]

    divide, lift_round = lift_oracle.divide, lift_oracle._lift_round
    monkeypatch.setattr(lift_oracle, "divide", counted)
    monkeypatch.setattr(lift_oracle, "_lift_round", recorded)
    lift_oracle.lift(fam)
    assert len(changed) == fam.order - 1
    assert len(calls) == sum(changed) + 1
    assert calls == [len(_spairs(fam))] * len(calls)
    assert sum(calls) == divisions


@pytest.mark.parametrize("name", ["a2", "b2", "c2", "g2", "gr26_pullback",
                                  "B3", "C3", "d4"])
def test_spair_quotients_have_no_t_free_term(name, monkeypatch):
    """At every state the oracle divides, each generator's t-free part is
    its lead with coefficient 1, so every quotient term has t-degree >= 1
    and only the two cofactors of an S-pair multiply a correction at order
    k."""
    fam = first_order_family(name)
    states = []

    def recorded(family, spairs):
        out = pair_reductions(family, spairs)
        states.append((list(family.generators), out))
        return out

    pair_reductions = lift_oracle._pair_reductions
    monkeypatch.setattr(lift_oracle, "_pair_reductions", recorded)
    lift_oracle.lift(fam)
    assert len(states) > 1
    terms = 0
    for gens, reductions in states:
        for g, lead in zip(gens, fam.sr_leads):
            assert {e: c for e, c in g.terms.items()
                    if fam.tdeg(e) == 0} == {lead: 1}
        for _, _, _, _, _, q in reductions:
            for qj in q:
                assert all(fam.tdeg(e) >= 1 for e in qj.terms)
                terms += len(qj.terms)
    assert terms > 0


def test_solve_affine():
    sol = _exchange_minimal([[1, 1, 0], [0, 1, 1]], [3, 5], 3)
    assert sol[0] + sol[1] == 3
    assert sol[1] + sol[2] == 5
    assert _exchange_minimal([[1, 0], [1, 0]], [1, 2], 2) is None


def test_exchange_minimal():
    assert _exchange_minimal([[1, 1, 1]], [1], 3) == [0, 0, 1]
    assert _exchange_minimal([[1, 1, 0], [0, 1, 1]], [3, 5], 3) == [0, 3, 2]


def _greedy_exchange_minimal(rows, rhs, n):
    """The solver the oracle's lift used before: the affine solution space
    as a particular point plus a nullspace basis, then greedy zeroing of
    the entries in index order inside it."""
    A, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in A[len(pivots):]):
        return None
    # Fractions built here, so the divisions below stay exact whatever
    # number type rref returns
    p = [Fraction(0)] * n
    for row, col in zip(A, pivots):
        p[col] = Fraction(row[n])
    N = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, col in zip(A, pivots):
            vec[col] = -Fraction(row[fc])
        N.append(vec)
    for idx in range(n):
        if p[idx] == 0 and all(b[idx] == 0 for b in N):
            continue
        b0 = next((b for b in N if b[idx] != 0), None)
        if b0 is None:
            continue  # forced nonzero
        f = p[idx] / b0[idx]
        p = [x - f * y for x, y in zip(p, b0)]
        N = [[x - (b[idx] / b0[idx]) * y for x, y in zip(b, b0)]
             for b in N if b is not b0]
    return p


@st.composite
def _linear_systems(draw):
    """Small integer systems, half of them consistent by construction
    (rhs = rows . x); entries in -2..2 make repeated and zero columns
    likely."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                  max_size=n), min_size=1, max_size=6))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rhs = [vec_dot(row, x) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                            max_size=len(rows)))
    return rows, rhs, n


@settings(max_examples=300, deadline=None)
@given(_linear_systems())
def test_exchange_minimal_matches_greedy_zeroing(system):
    rows, rhs, n = system
    assert _exchange_minimal(rows, rhs, n) \
        == _greedy_exchange_minimal(rows, rhs, n)

"""Decision procedures and the constructive repair."""

import json
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clusterdeform import cones, properties
from clusterdeform.atlas import enumerate_atlas
from clusterdeform.cli import Pipeline
from clusterdeform.cones import dual_cone
from clusterdeform.cotangent import CotangentError, variable_weights
from clusterdeform.intlinalg import nonnegative_solutions, vec_dot
from clusterdeform.properties import (PropertyError, SemigroupData, check_t0,
                                      check_t0_star, check_t1, repair_t1,
                                      semigroup_data)
from clusterdeform.seeds import mutate
from clusterdeform.universal import build_universal
from tests.conftest import augmented_seed, data_seed, gradings_of
from tests.test_gradings import degree_of_monomial


def test_lattice_condition_holds_a2(a2_atlas):
    report = check_t1(a2_atlas, *gradings_of(a2_atlas))
    assert report.holds
    assert report.property == "T1"


def test_lattice_condition_fails_a3_variant(a3_bad_seed):
    atlas = enumerate_atlas(a3_bad_seed)
    report = check_t1(atlas, *gradings_of(atlas))
    assert not report.holds
    first = report.witnesses[0]
    assert first["seed"] == 0 and first["j"] == 0
    assert first["w"] == [0, 0, 0, 0, -1, 1]


def test_repair(a3_bad_seed):
    repaired = repair_t1(a3_bad_seed)
    assert repaired.matrix.n == 3
    assert repaired.matrix.m == 9
    assert repaired.matrix.entries[:6] == a3_bad_seed.matrix.entries
    assert [list(r) for r in repaired.matrix.entries[6:]] == \
        [[0, 0, -1], [-1, 0, 0], [1, 0, 0]]
    atlas = enumerate_atlas(repaired)
    assert check_t1(atlas, *gradings_of(atlas)).holds
    # idempotent: repairing a repaired seed changes nothing
    again = repair_t1(repaired)
    assert again.matrix.entries == repaired.matrix.entries


def test_repair_requires_full_rank():
    from clusterdeform.seeds import ExtendedExchangeMatrix, Seed

    degenerate = Seed(ExtendedExchangeMatrix(
        [[0, 0], [0, 0], [1, 1]], n=2), ["a", "b", "f"])
    with pytest.raises(PropertyError):
        repair_t1(degenerate)


def test_derivation_condition_a2(a2_atlas, a2_ideal):
    D, grading = gradings_of(a2_atlas)
    report = check_t0(a2_ideal, grading, a2_atlas, D)
    assert report.holds


def test_strong_derivation_condition_a2(a2_atlas, a2_ideal, a2_univ):
    D, _ = gradings_of(a2_atlas)
    sg = semigroup_data(a2_univ)
    report = check_t0_star(a2_ideal, a2_univ, sg, D)
    assert report.holds


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_monomial_kernel_matches_filtered_enumeration(data):
    """The pruned kernel returns exactly the monomials of the weight that
    meet every row, in the order of the unpruned enumeration.  Each
    right-hand side sits near a.alpha of one monomial of the weight, so
    rows are often met.  No weights, or a total of 0 or below, leave at
    most the empty or the zero monomial."""
    weights = data.draw(st.lists(st.integers(1, 4), min_size=0, max_size=4))
    total = data.draw(st.integers(-3, 12))
    every = [alpha for alpha in product(*[range(total // w + 1)
                                          for w in weights])
             if vec_dot(alpha, weights) == total]
    assert nonnegative_solutions(weights, total) == every
    anchor = data.draw(st.sampled_from(every)) if every else weights

    def rows(most):
        out = []
        for _ in range(data.draw(st.integers(0, most))):
            a = data.draw(st.lists(st.integers(-3, 3), min_size=len(weights),
                                   max_size=len(weights)))
            out.append((a, vec_dot(a, anchor) + data.draw(st.integers(-2, 2))))
        return out

    equalities, inequalities = rows(2), rows(3)
    expected = [alpha for alpha in every
                if all(vec_dot(a, alpha) == b for a, b in equalities)
                and all(vec_dot(a, alpha) >= b for a, b in inequalities)]
    assert nonnegative_solutions(weights, total, equalities,
                                 inequalities) == expected


# d4 leaves out its variables of D-weight 7 and 11: filtering their 822,029
# monomials one by one takes minutes.  Weight 6 keeps three variables whose
# fine-degree match differs with and without the torsion reduction.
@pytest.mark.parametrize("name, max_weight", [
    ("aug_b3", None), ("aug_c3", None), ("d4", 6)])
def test_fine_degree_enumeration_matches_filter(name, max_weight):
    """The free part of the fine degree as equalities of the kernel, then
    the torsion residues, as in check_t0, select exactly the monomials
    that degree_of_monomial puts in the variable's fine degree."""
    seed = augmented_seed(name) if name.startswith("aug_") else data_seed(name)
    pipe = Pipeline(seed, max_seeds=100000)
    grading = pipe.grading
    ids = pipe.ideal.variables
    weights = variable_weights(pipe.atlas, ids, pipe.strict_grading)
    free, tors = zip(*(grading.deg_H[v] for v in ids))
    free, tors = list(zip(*free)), list(zip(*tors))
    kept = dropped = 0
    for i, weight in enumerate(weights):
        if max_weight is not None and weight > max_weight:
            continue
        unit = tuple(1 if l == i else 0 for l in range(len(ids)))
        deg_v = degree_of_monomial(grading, unit, ids)
        every = nonnegative_solutions(weights, weight)
        expected = [alpha for alpha in every
                    if degree_of_monomial(grading, alpha, ids) == deg_v]
        found = [alpha for alpha in nonnegative_solutions(
                     weights, weight, [(a, a[i]) for a in free])
                 if not any((vec_dot(a, alpha) - a[i]) % d
                            for a, d in zip(tors, grading.torsion))]
        assert found == expected
        kept += len(expected)
        dropped += len(every) - len(expected)
    assert kept > 0 and dropped > 0


def test_checks_require_strict_grading(a2_atlas, a2_ideal, a2_univ,
                                      g2_atlas):
    """Each checker reads D through `variable_weights`, which reports a
    missing one."""
    missing = "no strictly positive grading"
    with pytest.raises(CotangentError, match=missing):
        check_t0(a2_ideal, None, a2_atlas, None)
    with pytest.raises(CotangentError, match=missing):
        check_t0_star(a2_ideal, a2_univ, None, None)
    # no strictly positive grading exists without frozen variables
    with pytest.raises(CotangentError, match=missing):
        check_t1(g2_atlas, *gradings_of(g2_atlas))


GOLDEN_CHECK = Path(__file__).with_name("golden") / "check"

# The seeds whose verdicts must not depend on the initial seed, with the
# properties checked on each: T0* only where it takes milliseconds.
INVARIANCE = {"a2": ("t1", "t0", "t0star"), "a3_bad": ("t1", "t0", "t0star"),
              "gr26_pullback": ("t1", "t0", "t0star"),
              "aug_b3": ("t1", "t0"), "aug_c3": ("t1", "t0")}


@lru_cache(maxsize=None)
def _invariance_seed(name):
    return augmented_seed(name) if name.startswith("aug_") else data_seed(name)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(INVARIANCE)),
       st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_verdicts_are_seed_invariant(name, path):
    """The T1, T0 and T0* verdicts of the `check --json` goldens hold again
    when the initial seed is replaced by its mutation along a path of one
    to four steps.  `seeds.mutate` mutates the frozen rows too."""
    seed = _invariance_seed(name)
    for k in path:
        seed = mutate(seed, k % seed.matrix.n)
    pipe = Pipeline(seed, max_seeds=100000)
    atlas, D, grading = pipe.atlas, pipe.strict_grading, pipe.grading
    checks = {
        "t1": lambda: check_t1(atlas, D, grading),
        "t0": lambda: check_t0(pipe.ideal, grading, atlas, D),
        "t0star": lambda: check_t0_star(pipe.ideal, pipe.universal,
                                        semigroup_data(pipe.universal), D)}
    for prop in INVARIANCE[name]:
        golden = json.loads(
            (GOLDEN_CHECK / ("%s-%s.json" % (name, prop))).read_text())
        assert checks[prop]().holds == golden["holds"], (prop, path)


def test_exchangeable_pairs(a2_atlas):
    pairs = a2_atlas.exchange_pairs
    assert len(pairs) == 5
    assert frozenset({"x13", "x(-1,1,0,1,0)"}) in pairs


def brute_force_contains(gens, functional, target):
    """Exhaustive search over coefficient boxes bounded by the functional."""
    gens = [g for g in gens if any(g)]
    budget = vec_dot(functional, target)
    if budget < 0:
        return not any(target)
    bounds = [budget // vec_dot(functional, g) for g in gens]
    for combo in product(*[range(b + 1) for b in bounds]):
        total = [sum(c * g[i] for c, g in zip(combo, gens))
                 for i in range(len(target))]
        if tuple(total) == tuple(target):
            return True
    return False


def test_semigroup_membership_against_brute_force(a2_univ):
    sg = semigroup_data(a2_univ)
    gens = sg.generators
    f = sg.positive_functional
    targets = []
    for combo in product(range(3), repeat=3):
        t = [sum(c * g[i] for c, g in zip(combo, gens[:3]))
             for i in range(len(gens[0]))]
        targets.append(tuple(t))
    targets += [tuple(x + 1 for x in t) for t in targets[:10]]
    for t in targets:
        assert sg.contains(t) == brute_force_contains(gens, f, t)


def test_semigroup_rejects_bad_functional():
    with pytest.raises(PropertyError):
        SemigroupData([(1, 0), (-1, 0)])


def test_semigroup_without_nonzero_generator():
    """The kernel gets no weights: only the zero degree is a member."""
    sg = SemigroupData([(0, 0)])
    assert sg.contains((0, 0))
    assert not sg.contains((1, 0))


def test_semigroup_functional_positive(a2_univ):
    sg = semigroup_data(a2_univ)
    for g in sg.generators:
        assert vec_dot(sg.positive_functional, g) >= 1


def test_t0_star_builds_the_semigroup_cone_once(monkeypatch):
    """semigroup_data computes the generators' cone once; its rays sum to
    the functional, and check_t0_star prunes by the same cone."""
    pipe = Pipeline(data_seed("gr26_pullback"), max_seeds=100000)
    univ, J, D = pipe.universal, pipe.ideal, pipe.strict_grading
    calls = []

    def counted(gens, dim):
        calls.append(dim)
        return dual_cone(gens, dim)

    monkeypatch.setattr(properties, "dual_cone", counted)
    monkeypatch.setattr(cones, "dual_cone", counted)
    sg = semigroup_data(univ)
    report = check_t0_star(J, univ, sg, D)
    assert len(calls) == 1
    assert sg.cone == dual_cone(sg.generators, len(sg.generators[0]))
    assert sg.positive_functional == [sum(col) for col in zip(*sg.cone.rays)]
    assert report.holds


def test_semigroup_membership_by_enumeration_gr26():
    """Every element of functional value at most 4 is enumerated as a sum of
    generators; each one and each unit step away from it must be decided
    as that enumeration says."""
    atlas = enumerate_atlas(data_seed("gr26_pullback"))
    sg = semigroup_data(build_universal(atlas))
    f = sg.positive_functional
    gens = [g for g in sg.generators if any(g)]
    dim = len(gens[0])
    bound = 4
    members = {(0,) * dim}
    frontier = set(members)
    while frontier:
        frontier = {tuple(a + b for a, b in zip(t, g))
                    for t in frontier for g in gens
                    if vec_dot(f, t) + vec_dot(f, g) <= bound} - members
        members |= frontier
    targets = set(members)
    for t in members:
        for k in range(dim):
            for step in (-1, 1):
                moved = list(t)
                moved[k] += step
                if vec_dot(f, moved) <= bound:
                    targets.add(tuple(moved))
    assert len(members) > 50 and len(targets) > len(members)
    for t in sorted(targets):
        assert sg.contains(t) == (t in members)


def _in_ideal(J, exponents):
    """Monomial membership by exponent-wise division, without masks."""
    return any(all(g <= e for g, e in zip(gen, exponents))
               for gen in J.generators)


def _t0_star_unpruned(J, univ, semigroup, D_strict):
    """check_t0_star without the cone prune: every monomial of the
    variable's D-weight, then semigroup membership of its degree."""
    atlas = univ.base_atlas
    ids = J.variables
    index = {v: i for i, v in enumerate(ids)}
    weights = variable_weights(atlas, ids, D_strict)
    pairs = atlas.exchange_pairs
    witnesses = []
    for v in [x.id for x in atlas.mutable_variables]:
        i = index[v]
        for alpha in nonnegative_solutions(weights, weights[i]):
            target = tuple(a - (1 if x == i else 0)
                           for x, a in enumerate(alpha))
            if not any(target) or not semigroup.contains(target):
                continue
            nontrivial = None
            exchangeable = False
            for w in ids:
                l = index[w]
                pair_mon = tuple((1 if x == i else 0) + (1 if x == l else 0)
                                 for x in range(len(ids)))
                moved = tuple(a + (1 if x == l else 0)
                              for x, a in enumerate(alpha))
                if not _in_ideal(J, pair_mon) or _in_ideal(J, moved):
                    continue
                nontrivial = w
                if frozenset({v, w}) in pairs:
                    exchangeable = True
                    break
            if nontrivial is not None and not exchangeable:
                witnesses.append({"v": v, "alpha": alpha,
                                  "blocking": nontrivial})
    return witnesses


def _chain_semigroup(dim):
    """The semigroup of e_k - e_{k+1}: its cone is not that of any bundled
    seed, and some degrees alpha - e_v of a2 lie in it."""
    gens = [tuple((x == k) - (x == k + 1) for x in range(dim))
            for k in range(dim - 1)]
    return SemigroupData(gens)


@pytest.mark.parametrize("name, chain, unpruned, calls", [
    ("a2", False, 35, 0), ("a3_bad", False, 157, 0),
    ("gr26_pullback", False, 747, 0), ("a2", True, 35, 10)])
def test_t0_star_matches_unpruned_loop(name, chain, unpruned, calls,
                                       monkeypatch):
    """Same witnesses as the unpruned loop; semigroup membership is asked
    only for degrees in the cone of the generators.  For the bundled
    seeds' own semigroups no degree but 0 lies in that cone."""
    pipe = Pipeline(data_seed(name), max_seeds=100000)
    univ, J, D = pipe.universal, pipe.ideal, pipe.strict_grading
    sg = semigroup_data(univ)
    if chain:
        sg = _chain_semigroup(len(sg.generators[0]))
    asked = []
    contains = SemigroupData.contains

    def counted(self, target):
        asked.append(target)
        return contains(self, target)

    monkeypatch.setattr(SemigroupData, "contains", counted)
    expected = _t0_star_unpruned(J, univ, sg, D)
    assert len(asked) == unpruned
    asked.clear()
    assert check_t0_star(J, univ, sg, D).witnesses == expected
    assert len(asked) == calls

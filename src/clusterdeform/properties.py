"""Decision procedures for the lattice condition on exchange matrices and
the derivation conditions on the Stanley-Reisner ideal, plus the
constructive repair by added frozen rows."""

from fractions import Fraction

from .atlas import enumerate_atlas
from .cones import dual_cone
from .cotangent import seed_weights, t1_witnesses
from .gradings import (add_frozen_for_positivity, find_strictly_positive,
                       rank_flags, t_degrees)
from .intlinalg import lattice_coordinates, smith_normal_form, vec_dot
from .seeds import ExtendedExchangeMatrix, Seed, mutate_along


class PropertyError(Exception):
    pass


class SemigroupData:
    """The semigroup generated by the characteristic-map degrees, the cone
    of functionals nonnegative on it (`dual_cone` of the generators), and
    the sum of that cone's rays, a functional that bounds membership
    search.  The sum lies in the cone's interior, so it is positive on
    every nonzero generator exactly when the semigroup cone is pointed."""

    __slots__ = ("generators", "cone", "positive_functional", "_steps")

    def __init__(self, generators):
        self.generators = [tuple(g) for g in generators]
        dim = len(self.generators[0])
        self.cone = dual_cone(self.generators, dim)
        self.positive_functional = [sum(r[i] for r in self.cone.rays)
                                    for i in range(dim)]
        self._steps = []  # (g, f . g) for each nonzero generator g
        for g in self.generators:
            if not any(g):
                continue
            fg = vec_dot(self.positive_functional, g)
            if fg < 1:
                raise PropertyError("functional not positive on generator "
                                    "%r: semigroup cone is not pointed"
                                    % (g,))
            self._steps.append((g, fg))

    def contains(self, target):
        """Membership by depth-first search; the functional strictly
        decreases along every subtraction, bounding the depth.  The value
        f . t is carried along, so t - g is built only when f . (t - g) =
        f . t - f . g >= 0.  The memo is per target."""
        steps = self._steps
        memo = {}

        def rec(t, ft, idx):
            if not any(t):
                return True
            if idx >= len(steps):
                return False
            key = (t, idx)
            if key in memo:
                return memo[key]
            ok = rec(t, ft, idx + 1)
            if not ok:
                g, fg = steps[idx]
                if ft >= fg:
                    ok = rec(tuple(a - b for a, b in zip(t, g)), ft - fg, idx)
            memo[key] = ok
            return ok

        target = tuple(target)
        return rec(target, vec_dot(self.positive_functional, target), 0)


def semigroup_data(univ):
    """Generators are the negated coefficient degrees."""
    degs = t_degrees(univ)
    gens = [tuple(-x for x in degs[t]) for t in univ.t_ids]
    if not any(any(g) for g in gens):
        raise PropertyError("all generators are zero")
    return SemigroupData(gens)


class PropertyReport:
    __slots__ = ("property", "holds", "witnesses")

    def __init__(self, name, witnesses):
        self.property = name
        self.witnesses = list(witnesses)
        self.holds = not self.witnesses

    def __repr__(self):
        return "PropertyReport(%r, holds=%r, witnesses=%r)" % (
            self.property, self.holds, self.witnesses)


def check_t1(atlas, D_strict=None):
    """For every seed matrix and every mutable index, the only lattice
    witnesses allowed are 0 and the negated column."""
    if D_strict is None:
        D_strict = find_strictly_positive(atlas)
    if D_strict is None:
        raise PropertyError("no strictly positive grading: cannot bound "
                            "the witness search")
    n, m = atlas.n, atlas.m
    witnesses = []
    for state in atlas.seeds:
        matrix = state.base_matrix(n, m)
        weights = seed_weights(atlas, state, D_strict)
        snf = smith_normal_form([list(r) for r in matrix.entries])
        for j in range(n):
            neg_col = [-matrix.entries[i][j] for i in range(m)]
            for w in t1_witnesses(matrix, j, weights, snf):
                if any(w) and w != neg_col:
                    witnesses.append({"seed": state.index, "path": state.path,
                                      "j": j, "w": list(w)})
    return PropertyReport("T1", witnesses)


def _variable_weights(atlas, ids, D_strict):
    """Degrees g . D of the given variables, each of which must be >= 1."""
    if D_strict is None:
        raise PropertyError("no strictly positive grading")
    g = {v.id: v.g_vector for v in atlas.variables.values()}
    weights = [vec_dot(g[i], D_strict) for i in ids]
    if any(x < 1 for x in weights):
        raise PropertyError("grading not strictly positive on all variables")
    return weights


def _monomials_of_weight(weights, total, equalities=(), inequalities=()):
    """All exponent vectors alpha >= 0 with sum alpha_i * weights_i = total,
    a . alpha = b for each row (a, b) of equalities and a . alpha >= b for
    each row of inequalities, in lexicographic order (weights nonempty).

    An equality is the pair of rows (a, b), (-a, -b).  The weight `left`
    still to place after index i adds at most left * max(a_k / w_k, k > i)
    to a . alpha.  With left shrinking as the exponent at i grows, that
    bound is linear in the exponent, so the exponents worth trying form an
    interval.  The last exponent is fixed by the weight."""
    n = len(weights)
    rows = list(inequalities) + [row for a, b in equalities
                                 for row in ((a, b), ([-x for x in a], -b))]
    # cuts[i]: (j, c, q, p) reads e * c <= p * left - q * gap_j for
    # alpha_i = e, where gap_j = b_j - a_j . alpha so far
    cuts = [[] for _ in range(n)]
    for j, (a, _) in enumerate(rows):
        hi = Fraction(a[-1], weights[-1])
        for i in range(n - 2, -1, -1):
            p, q = hi.numerator, hi.denominator
            cuts[i].append((j, weights[i] * p - a[i] * q, q, p))
            hi = max(hi, Fraction(a[i], weights[i]))
    cols = [[a[i] for a, _ in rows] for i in range(n)]
    out = []
    alpha = [0] * n

    def rec(i, left, gaps):
        w, col = weights[i], cols[i]
        if i == n - 1:
            e, rest = divmod(left, w)
            if rest == 0 and all(g <= e * x for g, x in zip(gaps, col)):
                alpha[i] = e
                out.append(tuple(alpha))
            return
        lo, hi = 0, left // w
        for j, c, q, p in cuts[i]:
            bound = p * left - q * gaps[j]
            if c > 0:
                hi = min(hi, bound // c)
            elif c < 0:
                lo = max(lo, -(bound // -c))
            elif bound < 0:
                return
        for e in range(lo, hi + 1):
            alpha[i] = e
            rec(i + 1, left - e * w, [g - e * x for g, x in zip(gaps, col)])

    rec(0, total, [b for _, b in rows])
    return out


def check_t0(J, grading, atlas, D_strict):
    """For every variable v and every other monomial of the same fine
    degree, the contraction of every ideal generator must stay in the
    ideal.  The monomials come from `_monomials_of_weight` with v's D-weight
    and the free part of v's fine degree as equalities; their torsion
    residues are compared modulo `grading.torsion` at the leaf."""
    ids = J.variables
    weights = _variable_weights(atlas, ids, D_strict)
    free, tors = zip(*(grading.deg_H[v] for v in ids))
    free, tors = list(zip(*free)), list(zip(*tors))
    witnesses = []
    for i, v in enumerate(ids):
        unit = tuple(1 if l == i else 0 for l in range(len(ids)))
        for alpha in _monomials_of_weight(weights, weights[i],
                                          [(a, a[i]) for a in free]):
            if alpha == unit or any((vec_dot(a, alpha) - a[i]) % d for a, d
                                    in zip(tors, grading.torsion)):
                continue
            for gen in J.generators:
                if gen[i] == 0:
                    continue
                shifted = tuple(a + g - (1 if l == i else 0)
                                for l, (a, g) in enumerate(zip(alpha, gen)))
                if not J.contains_monomial(shifted):
                    witnesses.append({"v": v, "alpha": alpha,
                                      "blocking": gen})
                    break
    return PropertyReport("T0", witnesses)


def exchangeable_pairs(atlas):
    return set(atlas.exchange_pairs.keys())


def check_t0_star(J, univ, semigroup, D_strict):
    """Every ideal-non-trivial derivation whose degree lies in the
    semigroup must act on a generator coming from an exchangeable pair.
    Only monomials whose degree alpha - e_v lies in the generators' cone
    (rows: the lineality and the rays of its dual) reach `contains`."""
    atlas = univ.base_atlas
    ids = J.variables
    index = {v: i for i, v in enumerate(ids)}
    weights = _variable_weights(atlas, ids, D_strict)
    pairs = exchangeable_pairs(atlas)
    cone = semigroup.cone
    witnesses = []
    for v in [x.id for x in atlas.mutable_variables]:
        i = index[v]
        for alpha in _monomials_of_weight(
                weights, weights[i], [(l, l[i]) for l in cone.lineality],
                [(r, r[i]) for r in cone.rays]):
            target = tuple(a - (x == i) for x, a in enumerate(alpha))
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
                if (not J.contains_monomial(pair_mon)
                        or J.contains_monomial(moved)):
                    continue
                nontrivial = w
                if frozenset({v, w}) in pairs:
                    exchangeable = True
                    break
            if nontrivial is not None and not exchangeable:
                witnesses.append({"v": v, "alpha": alpha,
                                  "blocking": nontrivial})
    return PropertyReport("T0*", witnesses)


def repair_t1(seed, max_seeds=100000, max_rounds=64):
    """Add frozen rows, one per surviving witness, until the lattice
    condition holds on every seed in the class."""
    if not rank_flags(seed.matrix)["full_rank"]:
        raise PropertyError("repair requires a full-rank matrix")
    current = seed
    for _ in range(max_rounds):
        atlas = enumerate_atlas(current, max_seeds=max_seeds)
        D = find_strictly_positive(atlas)
        if D is None:
            current = add_frozen_for_positivity(current, max_seeds=max_seeds)
            atlas = enumerate_atlas(current, max_seeds=max_seeds)
            D = find_strictly_positive(atlas)
            if D is None:
                raise PropertyError("could not establish a strictly "
                                    "positive grading")
        report = check_t1(atlas, D)
        if report.holds:
            return current
        witness = report.witnesses[0]
        state = atlas.seeds[witness["seed"]]
        matrix = state.base_matrix(atlas.n, atlas.m)
        lam = lattice_coordinates(witness["w"],
                                  [list(r) for r in matrix.entries])
        if lam is None:
            raise PropertyError("witness not in the column lattice")
        j = witness["j"]
        k = next(i for i in range(len(lam)) if i != j and lam[i] != 0)
        new_row = [0] * atlas.n
        new_row[k] = 1 if lam[k] < 0 else -1
        # transport the row back to the initial seed along the reverse path
        work = mutate_along(matrix.entries + (tuple(new_row),),
                            reversed(state.path))
        if work[:atlas.m] != current.matrix.entries:
            raise PropertyError("row transport did not return to the "
                                "initial seed")
        labels = list(current.var_ids) + ["r%d" % (len(work),)]
        current = Seed(ExtendedExchangeMatrix(work, n=atlas.n), labels)
    raise PropertyError("repair did not terminate within the round budget")

"""Decision procedures for the lattice condition on exchange matrices and
the derivation conditions on the Stanley-Reisner ideal, plus the
constructive repair by added frozen rows."""

from operator import add

from .atlas import enumerate_atlas
from .cotangent import seed_weights, t1_witnesses
from .gradings import (add_frozen_for_positivity, find_strictly_positive,
                       positive_combination, rank_flags, t_degrees)
from .intlinalg import lattice_coordinates, vec_dot
from .seeds import ExtendedExchangeMatrix, Seed, mutate_along


class PropertyError(Exception):
    pass


class SemigroupData:
    """The semigroup generated by the characteristic-map degrees, together
    with a strictly positive functional used to bound membership search."""

    __slots__ = ("generators", "positive_functional", "_steps")

    def __init__(self, generators, positive_functional):
        self.generators = [tuple(g) for g in generators]
        self.positive_functional = list(positive_functional)
        self._steps = []  # (g, f . g) for each nonzero generator g
        for g in self.generators:
            if not any(g):
                continue
            fg = vec_dot(self.positive_functional, g)
            if fg < 1:
                raise PropertyError("functional not positive on generator %r"
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
    """Generators are the negated coefficient degrees; the functional comes
    from an exact feasibility computation."""
    degs = t_degrees(univ)
    gens = [tuple(-x for x in degs[t]) for t in univ.t_ids]
    nonzero = [g for g in gens if any(g)]
    if not nonzero:
        raise PropertyError("all generators are zero")
    f = positive_combination(nonzero, len(gens[0]))
    if f is None:
        raise PropertyError("no strictly positive functional: semigroup "
                            "cone is not pointed")
    return SemigroupData(gens, f)


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
        for j in range(n):
            neg_col = [-matrix.entries[i][j] for i in range(m)]
            for w in t1_witnesses(matrix, j, weights):
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


def _monomials_of_weight(weights, total, degrees=None, target=(), moduli=()):
    """All exponent vectors alpha with sum alpha_i * weights_i = total.

    With degrees given, only those with sum alpha_i * degrees_i = target:
    the degrees are tuples whose last len(moduli) entries are residues, and
    those are compared modulo moduli, the leading ones exactly.  The
    partial sum is carried down the recursion."""
    n = len(weights)
    if degrees is None:
        degrees = [()] * n
    exact = len(target) - len(moduli)
    out = []
    alpha = [0] * n

    def rec(i, remaining, deg):
        if i == n:
            if (remaining == 0 and deg[:exact] == target[:exact]
                    and all((x - y) % d == 0 for x, y, d in
                            zip(deg[exact:], target[exact:], moduli))):
                out.append(tuple(alpha))
            return
        step = degrees[i]
        e = 0
        while e * weights[i] <= remaining:
            alpha[i] = e
            rec(i + 1, remaining - e * weights[i], deg)
            deg = tuple(map(add, deg, step))
            e += 1
        alpha[i] = 0

    rec(0, total, (0,) * len(target))
    return out


def check_t0(J, grading, atlas, D_strict):
    """For every variable v and every other monomial of the same fine
    degree, the contraction of every ideal generator must stay in the
    ideal.  The monomials come from one recursion over those of v's
    D-weight that carries their fine degree (free part, torsion residues)."""
    ids = J.variables
    weights = _variable_weights(atlas, ids, D_strict)
    degrees = [free + tors for free, tors in (grading.deg_H[v] for v in ids)]
    witnesses = []
    for i, v in enumerate(ids):
        unit = tuple(1 if l == i else 0 for l in range(len(ids)))
        for alpha in _monomials_of_weight(weights, weights[i], degrees,
                                          degrees[i], grading.torsion):
            if alpha == unit:
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
    semigroup must act on a generator coming from an exchangeable pair."""
    atlas = univ.base_atlas
    ids = J.variables
    index = {v: i for i, v in enumerate(ids)}
    weights = _variable_weights(atlas, ids, D_strict)
    pairs = exchangeable_pairs(atlas)
    mutable = [v.id for v in atlas.mutable_variables]
    witnesses = []
    for v in mutable:
        i = index[v]
        unit = [0] * len(ids)
        unit[i] = 1
        for alpha in _monomials_of_weight(weights, weights[i]):
            target = tuple(a - u for a, u in zip(alpha, unit))
            if not any(target):
                continue
            if not semigroup.contains(target):
                continue
            nontrivial = None
            exchangeable = False
            for w in ids:
                l = index[w]
                pair_mon = tuple((1 if x == i else 0) + (1 if x == l else 0)
                                 for x in range(len(ids)))
                if not J.contains_monomial(pair_mon):
                    continue
                moved = tuple(a + (1 if x == l else 0)
                              for x, a in enumerate(alpha))
                if J.contains_monomial(moved):
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

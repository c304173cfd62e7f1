"""Decision procedures for the lattice condition on exchange matrices and
the derivation conditions on the Stanley-Reisner ideal, over stages built
by `cli.Pipeline`.  All three checkers search through the one kernel
`intlinalg.nonnegative_solutions`: T1 by way of
`cotangent.t1_witnesses`, T0 and T0* directly and in
`SemigroupData.contains`.  T1 and T0 read their lattice conditions off the
one M-grading of the initial seed (`gradings.m_grading`); no seed takes
a Smith form of its own."""

from .cones import dual_cone
from .cotangent import t1_witness_walk, variable_weights
from .intlinalg import nonnegative_solutions, vec_dot
from .simplicial import support_mask


class PropertyError(Exception):
    pass


class SemigroupData:
    """The semigroup generated by the characteristic-map degrees, the cone
    of functionals nonnegative on it (`dual_cone` of the generators), and
    the sum of that cone's rays, a functional that bounds membership
    search.  The sum lies in the cone's interior, so it is positive on
    every nonzero generator exactly when the semigroup cone is pointed."""

    __slots__ = ("generators", "cone", "positive_functional", "_weights",
                 "_columns")

    def __init__(self, generators):
        self.generators = [tuple(g) for g in generators]
        dim = len(self.generators[0])
        self.cone = dual_cone(self.generators, dim)
        self.positive_functional = [sum(r[i] for r in self.cone.rays)
                                    for i in range(dim)]
        nonzero = [g for g in self.generators if any(g)]
        self._weights = [vec_dot(self.positive_functional, g)
                         for g in nonzero]
        for g, fg in zip(nonzero, self._weights):
            if fg < 1:
                raise PropertyError("functional not positive on generator "
                                    "%r: semigroup cone is not pointed"
                                    % (g,))
        self._columns = [[g[r] for g in nonzero] for r in range(dim)]

    def contains(self, target):
        """Membership: some alpha >= 0 combines the nonzero generators to
        the target, one equality per coordinate.  Each generator has
        f-weight f . g >= 1, so alpha has f-weight f . target."""
        return bool(nonnegative_solutions(
            self._weights, vec_dot(self.positive_functional, target),
            list(zip(self._columns, target))))


def semigroup_data(univ):
    """Generators are the negated coefficient degrees."""
    gens = [tuple(-x for x in deg) for deg in univ.t_degrees]
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


def check_t1(atlas, D_strict, grading):
    """For every seed matrix and every mutable index, the only lattice
    witnesses allowed are 0 and the negated column; lattice membership is
    read off the M-grading `grading` (see `t1_witness_walk`)."""
    witnesses = []
    for state, rows, j, w in t1_witness_walk(atlas, D_strict, grading):
        if any(w) and w != [-row[j] for row in rows]:
            witnesses.append({"seed": state.index, "path": state.path,
                              "j": j, "w": w})
    return PropertyReport("T1", witnesses)


def check_t0(J, grading, atlas, D_strict):
    """For every variable v and every other monomial of the same fine
    degree, the contraction of every ideal generator must stay in the
    ideal.  The monomials come from `nonnegative_solutions` with v's D-weight
    and the free part of v's fine degree as equalities; their torsion
    residues are compared modulo `grading.torsion` at the leaf."""
    ids = J.variables
    weights = variable_weights(atlas, ids, D_strict)
    free, torsion = grading.degree_rows(ids)
    witnesses = []
    for i, v in enumerate(ids):
        unit = tuple(1 if l == i else 0 for l in range(len(ids)))
        # each generator through v, with the support of its contraction by v
        through = [(gen, m ^ 1 << i) for gen, m in zip(J.generators, J.masks)
                   if m >> i & 1]
        for alpha in nonnegative_solutions(weights, weights[i],
                                           [(a, a[i]) for a in free]):
            if alpha == unit or any((vec_dot(a, alpha) - a[i]) % d
                                    for a, d in torsion):
                continue
            support = support_mask(alpha)
            for gen, rest in through:
                if not J.contains(support | rest):
                    witnesses.append({"v": v, "alpha": alpha,
                                      "blocking": gen})
                    break
    return PropertyReport("T0", witnesses)


def check_t0_star(J, univ, semigroup, D_strict):
    """Every ideal-non-trivial derivation whose degree lies in the
    semigroup must act on a generator coming from an exchangeable pair.
    Only monomials whose degree alpha - e_v lies in the generators' cone
    (rows: the lineality and the rays of its dual) reach `contains`.  The
    semigroup is read only for a mutable variable: at rank 0 it may be None."""
    atlas = univ.base_atlas
    ids = J.variables
    index = {v: i for i, v in enumerate(ids)}
    weights = variable_weights(atlas, ids, D_strict)
    pairs = atlas.exchange_pairs
    witnesses = []
    for v in [x.id for x in atlas.mutable_variables]:
        i, cone = index[v], semigroup.cone
        for alpha in nonnegative_solutions(
                weights, weights[i], [(l, l[i]) for l in cone.lineality],
                [(r, r[i]) for r in cone.rays]):
            target = tuple(a - (x == i) for x, a in enumerate(alpha))
            if not any(target) or not semigroup.contains(target):
                continue
            support = support_mask(alpha)
            nontrivial = None
            exchangeable = False
            for l, w in enumerate(ids):
                if (not J.contains(1 << i | 1 << l)
                        or J.contains(support | 1 << l)):
                    continue
                nontrivial = w
                if frozenset({v, w}) in pairs:
                    exchangeable = True
                    break
            if nontrivial is not None and not exchangeable:
                witnesses.append({"v": v, "alpha": alpha,
                                  "blocking": nontrivial})
    return PropertyReport("T0*", witnesses)

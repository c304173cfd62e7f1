"""Equivariant order-by-order lifting of the squarefree monomial ideal to a
flat family over the coefficient parameters, with exchange-minimal
tie-breaking.  All arithmetic is exact.

The generators are `Poly`s over the variables z first, t after, ordered by
`MonomialOrder(weights)`: the weights cover the z-variables only (the
t-variables weigh zero), and ties break by total degree, then
lexicographically.  Every generator is homogeneous for the fine grading in
which z_v has degree e_v and t_i the degree computed by the gradings
module, and its leading term is its squarefree monomial with coefficient 1.
As these leads are t-free, a division step on a term of t-degree d adds
only terms of t-degree >= d, so the t-degree <= k part of an S-pair's
division is the division truncated at order k.  The lift divides each
S-pair once per state of the generators and reads every order from that.
A generator's t-degree-0 part is its lead alone, so the t-free parts of
m_i*g_i and m_l*g_l cancel and every quotient term has t-degree >= 1: at
order k only the cofactors m_i and m_l multiply a correction.
Corrections at each order live in the standard-monomial complement of the
order-zero ideal, so each obstruction system is a small sparse rational
linear system.
"""

from operator import add

from .gradings import t_degrees
from .groebner import groebner_cone
from .polynomials import MonomialOrder, Poly, divide
from .intlinalg import rref, vec_dot


class DeformError(Exception):
    pass


class DeformationFamily:
    __slots__ = ("univ", "z_vars", "t_vars", "t_deg", "weights", "lam",
                 "generators", "sr_leads", "exchange_flags", "order",
                 "_jgens", "_prune")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def nz(self):
        return len(self.z_vars)

    @property
    def nv(self):
        return len(self.z_vars) + len(self.t_vars)

    def tdeg(self, e):
        return sum(e[self.nz:])

    def in_order_zero(self, e):
        """Whether the z-part of the exponent lies in the monomial ideal."""
        z = e[:self.nz]
        return any(all(a <= b for a, b in zip(j, z)) for j in self._jgens)


def _exponent(index, nv, *monomials):
    """Exponent tuple over nv variables, placed by `index`, of the product
    of the given {variable: exponent} monomials."""
    e = [0] * nv
    for mono in monomials:
        for v, x in mono.items():
            e[index[v]] += x
    return tuple(e)


def first_order(univ, J, weight=None):
    """Perturb each exchangeable-pair generator by its owned coefficients;
    all other generators start unperturbed."""
    if univ.has_isolated_vertex:
        raise DeformError("isolated vertex: no canonical first-order data")
    z_vars = list(univ.variable_order)
    t_vars = list(univ.t_ids)
    nz, nt = len(z_vars), len(t_vars)
    nv = nz + nt
    index = {v: i for i, v in enumerate(z_vars + t_vars)}

    tdeg_map = t_degrees(univ)
    if weight is None:
        weight = groebner_cone(univ).interior_weight
    if any(x < 0 for x in weight):
        raise DeformError("weight vector has negative entries")
    lam = {}
    for t in t_vars:
        val = vec_dot(weight, tdeg_map[t])
        if val < 1:
            raise DeformError("weight is not positive on %s" % t)
        lam[t] = val

    jindex = {v: i for i, v in enumerate(J.variables)}
    jgens = []
    for gen in J.generators:
        e = [0] * nz
        for v, i in jindex.items():
            e[index[v]] = gen[i]
        jgens.append(tuple(e))
    jgens.sort()
    # the t-degrees, their nonzero entries, and `_candidates`' gain, slope
    degs = [tdeg_map[t] for t in t_vars]
    gain = [[0] * nz]
    for d in reversed(degs):
        gain.append([max(g, -y) for g, y in zip(gain[-1], d)])
    gain.reverse()
    slope = [[y + z for y, z in zip(d, g)] for d, g in zip(degs, gain[1:])]
    support = [[(x, y) for x, y in enumerate(d) if y] for d in degs]

    sr_leads = [zgen + (0,) * nt for zgen in jgens]
    generators = [{lead: 1} for lead in sr_leads]
    lead_index = {l: i for i, l in enumerate(sr_leads)}

    pairs = {_exponent(index, nv, dict.fromkeys(ep.pair, 1))
             for ep in univ.base_atlas.exchange_pairs.values()}
    exchange_flags = [l in pairs for l in sr_leads]

    for t in t_vars:
        rel_idx, side_idx = univ.owners[t][0]
        rel = univ.univ_relations[rel_idx]
        b = _exponent(index, nv, dict.fromkeys(rel["pair"], 1))
        if b not in lead_index:
            raise DeformError("exchange monomial %r is not an ideal "
                              "generator" % (b,))
        _, z_part = rel["sides"][side_idx]
        corr = _exponent(index, nv, z_part, {t: 1})
        generators[lead_index[b]][corr] = -1

    return DeformationFamily(
        univ=univ, z_vars=z_vars, t_vars=t_vars, t_deg=tdeg_map,
        weights=list(weight), lam=[lam[t] for t in t_vars],
        generators=[Poly(nv, g) for g in generators], sr_leads=sr_leads,
        exchange_flags=exchange_flags, order=1, _jgens=jgens,
        _prune=(degs, support, gain, slope))


def _spairs(family):
    """(i, l, cofactor_i, cofactor_l) exponents of every S-pair whose leads
    are not coprime.  The leads never change, so neither does this list."""
    out = []
    leads = family.sr_leads
    for i, a in enumerate(leads):
        for l in range(i + 1, len(leads)):
            b = leads[l]
            lcm = tuple(max(x, y) for x, y in zip(a, b))
            if all(lcm[j] == a[j] + b[j] for j in range(family.nz)):
                continue
            out.append((i, l, tuple(x - y for x, y in zip(lcm, a)),
                        tuple(x - y for x, y in zip(lcm, b))))
    return out


def _candidates(family, j, k):
    """Correction monomials for generator j at t-degree exactly k: the
    t-exponent beta determines the z-exponent by degree matching; the
    z-part must be a standard monomial.

    One more unit of t_i .. t_{nt-1} raises gamma[x] by at most
    gain[i][x], the suffix maximum of max(0, -deg_T[x]).  A child at index
    i + 1 is entered only if gamma[x] + left * gain[i + 1][x] >= 0 for
    every x; that test is linear in beta[i], so the values worth trying
    form an interval.  Skipped subtrees hold no candidate, so the list and
    its order are those of the full enumeration."""
    nz, nt = family.nz, len(family.t_vars)
    target = family.sr_leads[j][:nz]
    budget = vec_dot(family.weights, target)
    # gamma - b * d + (left - b) * gain[i + 1] >= 0 reads a - b * c >= 0
    # with a = gamma + left * gain[i + 1] and c = d + gain[i + 1]
    degs, support, gain, slope = family._prune
    out = []
    beta = [0] * nt

    def rec(i, left, spent, gamma):
        if left == 0:
            g = tuple(gamma)
            if not family.in_order_zero(g + (0,) * nt):
                out.append((tuple(beta), g))
            return
        if i == nt:
            return
        lam = family.lam[i]
        lo, hi = 0, min(left, (budget - spent) // lam)
        for x, y, c in zip(gamma, gain[i + 1], slope[i]):
            a = x + left * y
            if c > 0:
                hi = min(hi, a // c)
            elif c < 0:
                lo = max(lo, -(a // -c))
            elif a < 0:
                return
        if lo > hi:
            return
        child = [x - lo * y for x, y in zip(gamma, degs[i])]  # then in place
        for b in range(lo, hi + 1):
            beta[i] = b
            rec(i + 1, left - b, spent + b * lam, child)
            for x, y in support[i]:
                child[x] -= y
        beta[i] = 0

    rec(0, k, 0, target)
    return out


def _max_possible_order(family):
    min_lam = min(family.lam)
    return max(vec_dot(family.weights, l[:family.nz])
               for l in family.sr_leads) // min_lam


def _exchange_minimal(rows, rhs, n):
    """The solution of rows . u = rhs over Q in n unknowns that zeroes the
    entries greedily in index order; None if the system is inconsistent.

    Entry i can be zeroed, given the entries before it, exactly when column
    i lies in the span of the later columns: when it is not a pivot of the
    RREF with the columns reversed.  Those free entries are set to 0."""
    A, pivots = rref([row[::-1] + [b] for row, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in A[len(pivots):]):
        return None
    solution = [0] * n
    for row, col in zip(A, pivots):
        v = row[n]
        solution[n - 1 - col] = v.numerator if v.denominator == 1 else v
    return solution


def lift(family, max_order=16):
    """Correct the family order by order, k = 2 .. max_order.

    All S-pairs are divided by the generators in one `divide` call at the
    start and again only after a round that changed them; round k reads
    the t-degree <= k terms of the last reductions.  The loop stops early
    once a round makes no progress and k has reached `_max_possible_order`,
    past which the weight budget admits no correction monomial.  That
    bound exceeds the default max_order on most seeds (G2 18, B3 45, D4
    513), so the stopping rule that decides is Buchberger's criterion on
    the last reductions: the generators are a Groebner basis for
    `MonomialOrder(weights)`, hence a flat family, exactly when every
    S-pair reduces to zero.  The reported order is the last round run."""
    budget = _max_possible_order(family)
    spairs = _spairs(family)
    reductions = _pair_reductions(family, spairs)
    exhausted = True
    for k in range(2, max_order + 1):
        progressed = _lift_round(family, k, reductions)
        family.order = k
        if progressed:
            reductions = _pair_reductions(family, spairs)
        elif k >= budget:
            exhausted = False
            break
    if any(not r.is_zero() for _, _, _, _, r, _ in reductions):
        if exhausted:
            raise DeformError("order budget exceeded")
        raise DeformError("obstructed at order %d" % family.order)
    return family


def _pair_reductions(family, spairs):
    """Each S-pair m_i*g_i - m_l*g_l divided by the generators, all in one
    call: (i, l, mi, ml, remainder, quotients).  Every remainder term has
    a z-part outside the order-zero ideal."""
    gens = family.generators
    dividends = []
    for i, l, mi, ml in spairs:
        s = {tuple(map(add, e, mi)): c for e, c in gens[i].terms.items()}
        for e, c in gens[l].terms.items():
            e = tuple(map(add, e, ml))
            s[e] = s.get(e, 0) - c
        dividends.append(Poly(family.nv, s))
    divided = divide(dividends, list(zip(family.sr_leads, gens)),
                     MonomialOrder(family.weights))
    return [pair + (r, q) for pair, (q, r) in zip(spairs, divided)]


def _lift_round(family, k, reductions):
    """Correct at order k from the t-degree <= k part of the reductions;
    False if that part is zero."""
    nv = family.nv
    low = [[(e, c) for e, c in r.terms.items() if family.tdeg(e) <= k]
           for _, _, _, _, r, _ in reductions]
    if not any(low):
        return False

    gen_order = sorted(range(len(family.generators)),
                       key=lambda j: (not family.exchange_flags[j],
                                      family.sr_leads[j]))
    unknowns = [(j, beta, gamma) for j in gen_order
                for beta, gamma in _candidates(family, j, k)]
    if not unknowns:
        raise DeformError("obstructed at order %d: no correction space" % k)
    rank = {j: r for r, j in enumerate(gen_order)}
    columns = {}
    for uidx, (j, beta, gamma) in enumerate(unknowns):
        columns.setdefault(j, []).append((uidx, gamma + beta))

    equations = {}

    def eq(pair_id, mono):
        key = (pair_id, mono)
        if key not in equations:
            equations[key] = [[0] * len(unknowns), 0]
        return equations[key]

    for pair_id, (i, l, mi, ml, _, _) in enumerate(reductions):
        for e, c in low[pair_id]:
            if family.tdeg(e) != k:
                raise DeformError("residual obstruction below order %d" % k)
            eq(pair_id, e)[1] -= c
        # by rank; only the cofactors multiply a correction (see top)
        mult = ((i, mi, 1), (l, ml, -1))
        for j, m, c in sorted(mult, key=lambda u: rank[u[0]]):
            for uidx, corr in columns.get(j, ()):
                tot = tuple(map(add, m, corr))
                if family.in_order_zero(tot):
                    continue
                eq(pair_id, tot)[0][uidx] += c

    rows = [row for row, _ in equations.values()]
    rhs = [b for _, b in equations.values()]
    solution = _exchange_minimal(rows, rhs, len(unknowns))
    if solution is None:
        raise DeformError("obstructed at order %d" % k)

    changed = False
    for (j, beta, gamma), val in zip(unknowns, solution):
        if val == 0:
            continue
        e = tuple(gamma) + tuple(beta)
        family.generators[j] += Poly.monomial(nv, e, val)
        changed = True
    if not changed:
        raise DeformError("obstruction without corrective action at order %d"
                          % k)
    return True


def verify_family(family):
    """Fiber at zero, vanishing on the cluster embedding at t = 1, and
    agreement with the universal exchange relations."""
    univ = family.univ
    report = {}

    fiber_ok = True
    for g, lead in zip(family.generators, family.sr_leads):
        zero_part = {e: c for e, c in g.terms.items()
                     if family.tdeg(e) == 0}
        if zero_part != {lead: 1}:
            fiber_ok = False
    report["fiber_at_zero"] = fiber_ok

    images = [univ.base_atlas.laurent_expansion(v) for v in family.z_vars]
    laurent_ok = True
    for g in family.generators:
        if not g.project(range(family.nz)).compose(images).is_zero():
            laurent_ok = False
    report["laurent_vanishing"] = laurent_ok

    index = {v: i for i, v in enumerate(family.z_vars + family.t_vars)}
    match_ok = True
    lead_index = {l: i for i, l in enumerate(family.sr_leads)}
    for rel in univ.univ_relations:
        b = _exponent(index, family.nv, dict.fromkeys(rel["pair"], 1))
        expected = {b: 1}
        for t_part, z_part in rel["sides"]:
            expected[_exponent(index, family.nv, z_part, t_part)] = -1
        if family.generators[lead_index[b]] != Poly(family.nv, expected):
            match_ok = False
    report["matches_universal_relations"] = match_ok
    return report

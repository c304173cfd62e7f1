"""The order-by-order lift of the squarefree monomial ideal, kept as an
independent oracle for the closed-form `deform.lift`, with the S-pair
check that `deform.lift` replaced by its construction certificates.

It starts from `first_order` and corrects the family order by order
with exchange-minimal tie-breaking.  As the leads are t-free, a division
step on a term of t-degree d adds only terms of t-degree >= d, so the
t-degree <= k part of an S-pair's division is the division truncated at
order k.  The lift divides each S-pair once per state of the generators
and reads every order from that.  A generator's t-degree-0 part is its
lead alone, so the t-free parts of m_i*g_i and m_l*g_l cancel and every
quotient term has t-degree >= 1: at order k only the cofactors m_i and m_l
multiply a correction.  Corrections at each order live in the
standard-monomial complement of the order-zero ideal, so each obstruction
system is a small sparse rational linear system.

`universal_images` substitutes the coefficient rows into the principal
expansions, over m + p variables: the oracle for the images that
`deform.verify_family` builds from the F-polynomials.
"""

from operator import add

from clusterdeform.deform import (DeformError, _exponent, _family,
                                  _max_possible_order)
from clusterdeform.gradings import t_degrees
from clusterdeform.intlinalg import vec_dot
from clusterdeform.polynomials import MonomialOrder, Poly
from tests.groebner_oracle import divide
from tests.rational_oracle import rref


def universal_images(univ):
    """Each variable of `univ.variable_order` in A^univ over the initial
    variables, then the t's: its principal expansion with y_j -> prod_t
    t^{u_rows[t][j]} over the tropical value of its F-polynomial, by the
    separation formula (Fomin-Zelevinsky, Cluster algebras IV)."""
    m = univ.base_atlas.m
    images = []
    for v in univ.variable_order:
        terms = {e[:m] + tuple(vec_dot(e[m:], row) for row in univ.u_rows): c
                 for e, c in univ.base_atlas.principal[v].terms.items()}
        low = [0] * m + [min(col) for col in zip(*terms)][m:]
        images.append(Poly(m + univ.p, {
            tuple(a - b for a, b in zip(e, low)): c for e, c in terms.items()}))
    return images


def first_order(univ, J, weight):
    """Perturb each exchangeable-pair generator by its owned coefficients;
    all other generators start unperturbed."""
    family = _family(univ, J, weight)
    index = {v: i for i, v in enumerate(family.z_vars + family.t_vars)}
    lead_index = {l: i for i, l in enumerate(family.sr_leads)}
    generators = [dict(g.terms) for g in family.generators]
    for t in family.t_vars:
        rel_idx, side_idx = univ.owners[t][0]
        rel = univ.univ_relations[rel_idx]
        b = _exponent(index, family.nv, dict.fromkeys(rel["pair"], 1))
        _, z_part = rel["sides"][side_idx]
        corr = _exponent(index, family.nv, z_part, {t: 1})
        generators[lead_index[b]][corr] = -1
    family.generators = [Poly(family.nv, g) for g in generators]
    family.order = 1
    return family


def _spairs(family):
    """(i, l, cofactor_i, cofactor_l) exponents of every S-pair of leads
    that are not coprime, read off the bit masks of the squarefree leads'
    supports."""
    masks = [sum(1 << j for j, x in enumerate(a) if x)
             for a in family.sr_leads]

    def monomial(mask):
        return tuple((mask >> j) & 1 for j in range(family.nv))

    return [(i, l, monomial(masks[l] & ~a), monomial(a & ~masks[l]))
            for i, a in enumerate(masks) for l in range(i + 1, len(masks))
            if a & masks[l]]


def _pair_reductions(family, spairs):
    """Each S-pair m_i*g_i - m_l*g_l divided by the generators, all in one
    call: (i, l, mi, ml, remainder, quotients)."""
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


def in_order_zero(family, e):
    """Whether the z-part of the exponent lies in the monomial ideal."""
    z = e[:family.nz]
    return any(all(a <= b for a, b in zip(lead, z))
               for lead in family.sr_leads)


def exchange_flags(family):
    """Whether each SR lead is an exchange monomial z_x z_x'."""
    index = {v: i for i, v in enumerate(family.z_vars + family.t_vars)}
    pairs = {_exponent(index, family.nv, dict.fromkeys(ep.pair, 1))
             for ep in family.univ.base_atlas.exchange_pairs.values()}
    return [l in pairs for l in family.sr_leads]


def t_degree_list(family):
    """deg_T of each t-variable, in `family.t_vars` order."""
    degs = t_degrees(family.univ)
    return [degs[t] for t in family.t_vars]


def prune_tables(family):
    """The t-degrees, their nonzero entries, and `_candidates`' gain and
    slope."""
    nz = family.nz
    degs = t_degree_list(family)
    gain = [[0] * nz]
    for d in reversed(degs):
        gain.append([max(g, -y) for g, y in zip(gain[-1], d)])
    gain.reverse()
    slope = [[y + z for y, z in zip(d, g)] for d, g in zip(degs, gain[1:])]
    support = [[(x, y) for x, y in enumerate(d) if y] for d in degs]
    return degs, support, gain, slope


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
    degs, support, gain, slope = prune_tables(family)
    out = []
    beta = [0] * nt

    def rec(i, left, spent, gamma):
        if left == 0:
            g = tuple(gamma)
            if not in_order_zero(family, g):
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
    past which the weight budget admits no correction monomial.  The
    stopping rule that decides is Buchberger's criterion on the last
    reductions.  The reported order is the last round run."""
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


def _lift_round(family, k, reductions):
    """Correct at order k from the t-degree <= k part of the reductions;
    False if that part is zero."""
    nv = family.nv
    low = [[(e, c) for e, c in r.terms.items() if family.tdeg(e) <= k]
           for _, _, _, _, r, _ in reductions]
    if not any(low):
        return False

    flags = exchange_flags(family)
    gen_order = sorted(range(len(family.generators)),
                       key=lambda j: (not flags[j], family.sr_leads[j]))
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
                if in_order_zero(family, tot):
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

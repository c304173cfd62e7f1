"""A small Gröbner engine over `polynomials.Poly`, kept as the test oracle
of the closed-form flat family and of `polynomials.exact_divide`.

`divide` is the general multivariate division by several divisors, with
quotients and remainder; `normal_form`, `s_polynomial` and `buchberger`
build on it.  `specialize`, `compose` and `constant_term` substitute into a
polynomial.  Exponents of the dividends and divisors must be nonnegative.
"""

from fractions import Fraction
from functools import cache
from operator import add, sub

from clusterdeform.polynomials import MonomialOrder, Poly


def grlex_order(nvars):
    return MonomialOrder((0,) * nvars)


def leading_exponent(poly, order):
    if poly.is_zero():
        raise ValueError("zero polynomial has no leading term")
    return max(poly.terms, key=order.key)


def leading_term(poly, order):
    e = leading_exponent(poly, order)
    return e, poly.terms[e]


def _sub_exp(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def divide(dividends, divisors, order):
    """Multivariate division of each Poly f in `dividends` by the (lead
    exponent, Poly) pairs `divisors`: one (quotients, remainder) per f, with
    f = sum(q_i * g_i) + remainder and no remainder term divisible by a
    lead.  Terms go in decreasing order, each to the first divisor in list
    order whose lead divides it.  The leads' supports, coefficients and
    tails are prepared once per call, and the memos of order keys and first
    dividing leads serve every dividend."""
    table = [([(i, x) for i, x in enumerate(le) if x], le, g.terms[le],
              [(x, c) for x, c in g.terms.items() if x != le])
             for le, g in divisors]

    @cache
    def first_divisor(e):
        for j, (support, _, _, _) in enumerate(table):
            for i, x in support:
                if e[i] < x:
                    break
            else:
                return j
        return None

    key = cache(order.key)
    out = []
    for f in dividends:
        zero = Poly(f.nvars)  # every empty quotient shares this value
        work = dict(f.terms)
        quotients = [{} for _ in table]
        remainder = {}
        while work:
            e = max(work, key=key)
            c = work.pop(e)
            j = first_divisor(e)
            if j is None:
                remainder[e] = c
                continue
            _, le, lc, tail = table[j]
            m = tuple(map(sub, e, le))
            if lc != 1:
                c = Fraction(c) / lc
                c = c.numerator if c.denominator == 1 else c
            quotients[j][m] = c
            for x, cx in tail:
                x = tuple(map(add, x, m))
                s = work.pop(x, 0) - c * cx
                if s:
                    work[x] = s
        out.append(([Poly(f.nvars, q) if q else zero for q in quotients],
                    Poly(f.nvars, remainder)))
    return out


def normal_form(f, basis, order):
    """Remainder of multivariate division of f by the list `basis`: no term
    of the result is divisible by any leading term of `basis`."""
    leads = [(leading_exponent(g, order), g) for g in basis
             if not g.is_zero()]
    return divide([f], leads, order)[0][1]


def s_polynomial(f, g, order):
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    uf = f.scale_monomial(_sub_exp(lcm, ef), Fraction(1) / Fraction(cf))
    ug = g.scale_monomial(_sub_exp(lcm, eg), Fraction(1) / Fraction(cg))
    return uf - ug


def buchberger(gens, order, max_basis=500):
    """Complete `gens` to a Groebner basis for the given order.

    Uses the coprime-leading-term criterion; pairs are processed by
    increasing lcm degree for determinism.
    """
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        pairs.sort(key=lambda p: _pair_key(basis, p, order))
        i, j = pairs.pop(0)
        ei = leading_exponent(basis[i], order)
        ej = leading_exponent(basis[j], order)
        if all(min(a, b) == 0 for a, b in zip(ei, ej)):
            continue  # coprime leading terms reduce to zero
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(r)
            if len(basis) > max_basis:
                raise RuntimeError("Groebner basis budget exceeded")
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return basis


def _pair_key(basis, pair, order):
    ei = leading_exponent(basis[pair[0]], order)
    ej = leading_exponent(basis[pair[1]], order)
    lcm = tuple(max(a, b) for a, b in zip(ei, ej))
    return (sum(lcm), lcm)


def constant_term(poly):
    return poly.terms.get((0,) * poly.nvars, 0)


def specialize(poly, assignments):
    """Substitute constants for some variables.

    assignments: dict index -> value (0 and 1 are the typical uses).
    Substituting 0 into a variable with a negative exponent is an error.
    The variable count is preserved; substituted variables simply no
    longer occur.
    """
    out = {}
    for e, c in poly.terms.items():
        new_e = list(e)
        for i, val in assignments.items():
            k = e[i]
            new_e[i] = 0
            if k == 0 or val == 1:
                continue
            if val == 0:
                if k < 0:
                    raise ZeroDivisionError(
                        "substituting 0 into a negative power")
                break
            c = c * Fraction(val) ** k
        else:
            key = tuple(new_e)
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return Poly(poly.nvars, out)


def compose(poly, images):
    """Substitute images[i] (a Poly) for variable i.

    Negative exponents are only supported when the corresponding image is
    a single term (a unit in the Laurent ring).
    """
    nvars = images[0].nvars if images else 0
    result = Poly.zero(nvars)
    powers = {}
    for e, c in poly.terms.items():
        term = Poly(nvars, {(0,) * nvars: c})
        for i, k in enumerate(e):
            if k == 0:
                continue
            if (i, k) not in powers:
                powers[(i, k)] = images[i] ** k
            term = term * powers[(i, k)]
        result = result + term
    return result

"""Sparse multivariate Laurent polynomials over Q, monomial orders, and reduction.

Polynomials are stored as a map from integer exponent tuples to nonzero
rational coefficients.  Negative exponents are permitted; the surrounding
modules only produce them on variables they treat as invertible (the initial
mutable cluster variables).
"""

from fractions import Fraction
from functools import cache
from operator import add, sub


def _add_exp(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def _sub_exp(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def monomial_str(names, exponents):
    """`x*y^2` for the exponents over the named variables; "1" if empty."""
    factors = []
    for name, k in zip(names, exponents):
        if k == 1:
            factors.append(name)
        elif k != 0:
            factors.append("%s^%d" % (name, k))
    return "*".join(factors) if factors else "1"


def join_terms(terms):
    """`a - b + 2*c` from (coefficient, monomial string) pairs in order;
    the empty monomial "1" prints as its coefficient alone."""
    out = ""
    for c, mon in terms:
        if mon == "1":
            part = str(c)
        elif c == 1:
            part = mon
        elif c == -1:
            part = "-" + mon
        else:
            part = "%s*%s" % (c, mon)
        if not out:
            out = part
        elif part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


class Poly:
    """A sparse polynomial (or Laurent polynomial) with rational coefficients.

    terms: dict mapping exponent tuples (length nvars) to nonzero coefficients
    (int or Fraction).  Instances are treated as immutable values.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        if terms is None:
            terms = {}
        # drop explicit zeros so that equality is structural
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, nvars, exponents, coeff=1):
        return cls(nvars, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and all(Fraction(c) == Fraction(other.terms.get(e, 0))
                        for e, c in self.terms.items())
                and all(e in self.terms for e in other.terms))

    def __hash__(self):
        return hash((self.nvars, frozenset((e, Fraction(c)) for e, c in self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly(self.nvars, {(0,) * self.nvars: other})
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly(self.nvars, {(0,) * self.nvars: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if other == 0:
                return Poly(self.nvars)
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        prod = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _add_exp(e1, e2)
                s = prod.get(e, 0) + c1 * c2
                if s == 0:
                    prod.pop(e, None)
                else:
                    prod[e] = s
        return Poly(self.nvars, prod)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial")
            (e, c), = self.terms.items()
            inv_c = Fraction(1, 1) / Fraction(c)
            if inv_c.denominator == 1:
                inv_c = int(inv_c)
            return Poly(self.nvars,
                        {tuple(-x for x in e): inv_c}) ** (-k)
        result = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale_monomial(self, exponents, coeff=1):
        """Multiply by a single term (supports negative exponents)."""
        exponents = tuple(exponents)
        return Poly(self.nvars,
                    {_add_exp(e, exponents): c * coeff for e, c in self.terms.items()})

    def specialize(self, assignments):
        """Substitute constants for some variables.

        assignments: dict index -> value (0 and 1 are the typical uses).
        Substituting 0 into a variable with a negative exponent is an error.
        The variable count is preserved; substituted variables simply no
        longer occur.
        """
        out = {}
        for e, c in self.terms.items():
            coeff = c
            new_e = list(e)
            ok = True
            for i, val in assignments.items():
                k = e[i]
                new_e[i] = 0
                if k == 0:
                    continue
                if val == 0:
                    if k < 0:
                        raise ZeroDivisionError("substituting 0 into a negative power")
                    ok = False
                    break
                if val == 1:
                    continue
                coeff = coeff * Fraction(val) ** k
            if not ok:
                continue
            key = tuple(new_e)
            s = out.get(key, 0) + coeff
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Poly(self.nvars, out)

    def project(self, keep):
        """Specialize every variable not listed in `keep` to 1 and drop it:
        the result is a Poly in the kept variables, in their given order."""
        terms = {}
        for e, c in self.terms.items():
            key = tuple(e[i] for i in keep)
            s = terms.get(key, 0) + c
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return Poly(len(keep), terms)

    def compose(self, images):
        """Substitute images[i] (a Poly) for variable i.

        Negative exponents are only supported when the corresponding image is
        a single term (a unit in the Laurent ring).
        """
        nvars = images[0].nvars if images else 0
        result = Poly.zero(nvars)
        cache = {}
        for e, c in self.terms.items():
            term = Poly(nvars, {(0,) * nvars: c})
            for i, k in enumerate(e):
                if k == 0:
                    continue
                key = (i, k)
                if key not in cache:
                    cache[key] = images[i] ** k
                term = term * cache[key]
            result = result + term
        return result

    def to_string(self, names):
        if not self.terms:
            return "0"
        order = sorted(self.terms, key=lambda t: (-sum(t), tuple(-x for x in t)))
        return join_terms((self.terms[e], monomial_str(names, e)) for e in order)

    def __repr__(self):
        return "Poly(%d, %r)" % (self.nvars, self.terms)


class MonomialOrder:
    """Weight-vector order with graded-lexicographic tiebreak.

    Monomials compare first by the inner product with `weights`, then by
    total degree, then lexicographically on the exponent tuple.  This is a
    multiplicative total order on monomials in a fixed variable set.  A
    weight vector shorter than the exponents reads as padded with zeros.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = tuple(weights)

    def key(self, exponents):
        w = sum(a * b for a, b in zip(self.weights, exponents))
        return (w, sum(exponents), exponents)

    def leading_exponent(self, poly):
        if poly.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return max(poly.terms, key=self.key)

    def leading_term(self, poly):
        e = self.leading_exponent(poly)
        return e, poly.terms[e]


def grlex_order(nvars):
    return MonomialOrder((0,) * nvars)


def divide(dividends, divisors, order):
    """Multivariate division of each Poly f in `dividends` by the (lead
    exponent, Poly) pairs `divisors`: one (quotients, remainder) per f, with
    f = sum(q_i * g_i) + remainder and no remainder term divisible by a lead.
    Terms go in decreasing order, each to the first divisor in list order
    whose lead divides it; exponents must be nonnegative.  The leads'
    supports, coefficients and tails are prepared once per call, and the
    memos of order keys and first dividing leads serve every dividend."""
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
    leads = [(order.leading_exponent(g), g) for g in basis if not g.is_zero()]
    return divide([f], leads, order)[0][1]


def s_polynomial(f, g, order):
    ef, cf = order.leading_term(f)
    eg, cg = order.leading_term(g)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    uf = f.scale_monomial(_sub_exp(lcm, ef), Fraction(1) / Fraction(cf))
    ug = g.scale_monomial(_sub_exp(lcm, eg), Fraction(1) / Fraction(cg))
    return uf - ug


def buchberger(gens, order, max_basis=500):
    """Complete `gens` to a Groebner basis for the given order.

    Uses the coprime-leading-term criterion; pairs are processed by
    increasing lcm degree for determinism.  Small-scale implementation for
    validation work, not a production Groebner engine.
    """
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        pairs.sort(key=lambda p: _pair_key(basis, p, order))
        i, j = pairs.pop(0)
        ei = order.leading_exponent(basis[i])
        ej = order.leading_exponent(basis[j])
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
    ei = order.leading_exponent(basis[pair[0]])
    ej = order.leading_exponent(basis[pair[1]])
    lcm = tuple(max(a, b) for a, b in zip(ei, ej))
    return (sum(lcm), lcm)


def exact_divide(f, g):
    """Exact division of Laurent polynomials: returns q with f = q*g.

    Raises ValueError if g does not divide f.  Works by clearing negative
    exponents and doing leading-term division under graded lex.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return Poly.zero(f.nvars)
    n = f.nvars
    shift_f = [min(e[i] for e in f.terms) for i in range(n)]
    shift_g = [min(e[i] for e in g.terms) for i in range(n)]
    fs = f.scale_monomial([-s for s in shift_f])
    gs = g.scale_monomial([-s for s in shift_g])
    order = grlex_order(n)
    [((q,), r)] = divide([fs], [(order.leading_exponent(gs), gs)], order)
    if not r.is_zero():
        raise ValueError("not divisible")
    return q.scale_monomial([a - b for a, b in zip(shift_f, shift_g)])

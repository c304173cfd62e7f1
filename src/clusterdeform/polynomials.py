"""Sparse multivariate Laurent polynomials over Z, the weight order of the
lifted family, and exact Laurent division.

Polynomials are stored as a map from integer exponent tuples to nonzero
integer coefficients.  Negative exponents are permitted; the surrounding
modules only produce them on variables they treat as invertible (the initial
mutable cluster variables).
"""

from operator import add, lt, mul, sub


def _add_exp(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


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
    """A sparse polynomial (or Laurent polynomial) with integer coefficients.

    terms: dict mapping exponent tuples (length nvars) to nonzero
    coefficients.  The operators only add and multiply coefficients, so
    any exact number type passes through them.  Instances are treated as
    immutable values.
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

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

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
            raise ValueError("negative power")
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
        return (sum(map(mul, self.weights, exponents)), sum(exponents),
                exponents)


def _grlex(exponents):
    return sum(exponents), exponents


def exact_divide(f, g):
    """Exact division of Laurent polynomials: returns q with f = q*g.

    The terms of f are divided in decreasing grlex order by the lead of g,
    as after shifting f and g to nonnegative exponents: the shift keeps
    the order of the terms, and the lead divides a shifted term exactly
    when the quotient exponent is at least min(f) - min(g) in every
    variable and the lead coefficient divides the term's coefficient.
    ValueError is raised at the first term the lead does not divide; with
    one divisor that happens exactly when g does not divide f over Z.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    floor = [a - b for a, b in zip(map(min, zip(*f.terms)),
                                   map(min, zip(*g.terms)))]
    lead = max(g.terms, key=_grlex)
    lc = g.terms[lead]
    tail = [(x, c) for x, c in g.terms.items() if x != lead]
    work = dict(f.terms)
    quotient = {}
    while work:
        e = max(work, key=_grlex)
        c = work.pop(e)
        m = tuple(map(sub, e, lead))
        c, rest = divmod(c, lc)
        if rest or any(map(lt, m, floor)):
            raise ValueError("not divisible")
        quotient[m] = c
        for x, cx in tail:
            x = tuple(map(add, x, m))
            s = work.pop(x, 0) - c * cx
            if s:
                work[x] = s
    return Poly(f.nvars, quotient)

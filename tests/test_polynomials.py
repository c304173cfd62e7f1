"""Sparse polynomial arithmetic, exact division, and the Gröbner oracle."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from clusterdeform.polynomials import MonomialOrder, Poly, exact_divide
from tests.groebner_oracle import (buchberger, compose, divide, grlex_order,
                                   leading_exponent, normal_form,
                                   s_polynomial, specialize)

NVARS = 3


def poly_strategy(min_exp=0):
    exps = st.tuples(*[st.integers(min_exp, 3)] * NVARS)
    coeffs = st.integers(-4, 4)
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda d: Poly(NVARS, d))


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Poly.zero(NVARS)
    assert f * Poly.one(NVARS) == f


@given(poly_strategy(min_exp=-2), poly_strategy(min_exp=-2))
@settings(max_examples=60, deadline=None)
def test_exact_divide_roundtrip(f, g):
    if g.is_zero():
        return
    assert exact_divide(f * g, g) == f


@given(poly_strategy(min_exp=-2), poly_strategy(), poly_strategy(),
       st.tuples(*[st.integers(-2, 2)] * NVARS),
       st.tuples(*[st.integers(-2, 2)] * NVARS))
@settings(max_examples=80, deadline=None)
def test_exact_divide_rejects_a_remainder(f, g, r, u, v):
    """Once g is shifted to have no monomial factor, a remainder that the
    oracle's division by g leaves nonzero is not a multiple of g in the
    Laurent ring: so exact_divide(f*g + r, g) raises, after shifting the
    dividend and the divisor by any Laurent monomials."""
    assume(not g.is_zero())
    g = g.scale_monomial([-min(col) for col in zip(*g.terms)])
    order = grlex_order(NVARS)
    [(_, r)] = divide([r], [(leading_exponent(g, order), g)], order)
    assume(not r.is_zero())
    with pytest.raises(ValueError):
        exact_divide((f * g + r).scale_monomial(u), g.scale_monomial(v))


@given(poly_strategy(), poly_strategy(),
       st.lists(poly_strategy(), min_size=1, max_size=3))
# the lead x^3 brings in the tail y^2*z^2
@example(Poly.zero(NVARS), Poly.one(NVARS),
         [Poly(NVARS, {(3, 0, 0): 1, (0, 2, 2): 1})])
@settings(max_examples=80, deadline=None)
def test_divide_quotients_and_remainder(f0, h, basis):
    """f = sum(q_i * g_i) + r, and no term of r is divisible by a
    divisor's leading exponent."""
    f = f0 + h * basis[0]
    order = MonomialOrder((3, 1, 2))
    divisors = [(leading_exponent(g, order), g) for g in basis
                if not g.is_zero()]
    [(quotients, r)] = divide([f], divisors, order)
    assert len(quotients) == len(divisors)
    rest = f - r
    for q, (_, g) in zip(quotients, divisors):
        rest = rest - q * g
    assert rest.is_zero()
    for e in r.terms:
        assert not any(all(a <= b for a, b in zip(le, e))
                       for le, _ in divisors)


def divide_one(f, divisors, order):
    """The one-dividend division loop that the batch replaced: each term
    scans every lead, coordinate by coordinate."""
    work = dict(f.terms)
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
            if x == le:
                continue
            x = tuple(a + b for a, b in zip(x, m))
            s = work.get(x, 0) - factor * cx
            if s == 0:
                work.pop(x, None)
            else:
                work[x] = s
    return ([Poly(f.nvars, q) for q in quotients],
            Poly(f.nvars, remainder))


EXPONENTS = st.tuples(*[st.integers(0, 3)] * NVARS)
NONZERO = st.integers(-3, 3).filter(bool)


@st.composite
def division_batches(draw):
    """Two divisor lists with lead coefficients in -3..3 and several
    dividends over a small pool of exponents, so that dividends, and the
    two divisor lists, meet the same exponents."""
    order = MonomialOrder((3, 1, 2))
    pool = draw(st.lists(EXPONENTS, min_size=1, max_size=6, unique=True))
    terms = st.dictionaries(st.sampled_from(pool), NONZERO, max_size=5)
    dividends = [Poly(NVARS, d)
                 for d in draw(st.lists(terms, min_size=2, max_size=4))]
    lists = []
    for _ in range(2):
        gs = [Poly(NVARS, d) for d in draw(st.lists(
            st.dictionaries(EXPONENTS, NONZERO, min_size=1, max_size=3),
            min_size=1, max_size=3))]
        lists.append([(leading_exponent(g, order), g) for g in gs])
    return order, dividends, lists


@given(division_batches())
@settings(max_examples=150, deadline=None)
def test_batch_divide_matches_one_dividend_loop(batch):
    """Every quotient and remainder of the batch call, with its divisor
    table and memos, equals that of the one-dividend loop, for each of two
    divisor lists in turn."""
    order, dividends, lists = batch
    for divisors in lists:
        assert divide(dividends, divisors, order) \
            == [divide_one(f, divisors, order) for f in dividends]


def test_exact_divide_rejects_nondivisor():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    one = Poly.one(2)
    # monomials always divide in the Laurent ring
    q = exact_divide(x * x + y, x)
    assert q * x == x * x + y
    try:
        exact_divide(x * x + y, x + one)
    except ValueError:
        pass
    else:
        raise AssertionError("expected a divisibility error")


@given(poly_strategy(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_power_matches_repeated_product(f, k):
    expected = Poly.one(NVARS)
    for _ in range(k):
        expected = expected * f
    assert f ** k == expected


def test_negative_power_raises():
    with pytest.raises(ValueError):
        Poly.monomial(2, (2, 1), 3) ** -1


def test_exact_divide_needs_an_integral_quotient():
    """x / (2x) = 1/2 is a Laurent quotient over Q but not over Z."""
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    with pytest.raises(ValueError):
        exact_divide(x, 2 * x)
    assert exact_divide(2 * x * y + 4 * x, 2 * x) == y + 2


def test_specialize_and_compose():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    f = x * x + 2 * y
    assert specialize(f, {0: 1}) == Poly.one(2) + 2 * y
    assert specialize(f, {0: 0, 1: 0}) == Poly.zero(2)
    g = compose(f, [y, x])
    assert g == y * y + 2 * x


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_order_key_is_multiplicative(f, g):
    order = MonomialOrder((3, 1, 2))
    if f.is_zero() or g.is_zero():
        return
    ef = leading_exponent(f, order)
    eg = leading_exponent(g, order)
    prod = Poly.monomial(NVARS, ef) * Poly.monomial(NVARS, eg)
    assert leading_exponent(prod, order) == tuple(
        a + b for a, b in zip(ef, eg))
    for e in f.terms:
        shifted_e = tuple(a + b for a, b in zip(e, eg))
        assert (order.key(e) <= order.key(ef)) == (
            order.key(shifted_e) <= order.key(tuple(
                a + b for a, b in zip(ef, eg))))


def test_normal_form_remainder_is_reduced():
    order = grlex_order(2)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    basis = [x * x - y, x * y - Poly.one(2)]
    f = x ** 4 + y ** 3 + x
    r = normal_form(f, basis, order)
    leads = [leading_exponent(g, order) for g in basis]
    for e in r.terms:
        assert not any(all(a <= b for a, b in zip(le, e)) for le in leads)


def test_buchberger_membership():
    order = grlex_order(2)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    gens = [x * x - y, y * y - x]
    gb = buchberger(gens, order)
    # x^4 - x = (x^2+y)(x^2-y) + (y^2-x) is in the ideal
    member = x ** 4 - x
    assert normal_form(member, gb, order).is_zero()
    assert not normal_form(x + y, gb, order).is_zero()


def test_s_polynomial_cancels_leads():
    order = grlex_order(2)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    f = x * x * y + x
    g = x * y * y - y
    s = s_polynomial(f, g, order)
    lcm = (2, 2)
    assert all(order.key(e) < order.key(lcm) for e in s.terms)


def test_to_string():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    f = x * x - 2 * y + 1
    assert f.to_string(["x", "y"]) == "x^2 - 2*y + 1"
    assert Poly.zero(2).to_string(["x", "y"]) == "0"


def test_fraction_coefficients_survive():
    f = Poly(1, {(1,): Fraction(1, 2)})
    assert (f + f).terms == {(1,): Fraction(1)}
    assert (f - f).is_zero()

"""Canonical-form and field-arithmetic tests for the coupling rationals."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csd4 import fixtures
from csd4.errors import PoleAtKappa
from csd4.kappa import (
    KappaRational,
    kappa_linear,
    kappa_sum,
    poly_add,
    poly_div_exact,
    poly_eval,
    poly_from_str,
    poly_gcd,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_to_str,
    poly_trim,
)


def test_canonicalize_difference_of_squares():
    # (k^2 - 1)/(k + 1) reduces to k - 1
    r = KappaRational((-1, 0, 1), (1, 1))
    assert r == KappaRational((-1, 1))
    assert r.as_strings() == ("k - 1", "1")


def test_canonicalize_zero_numerator():
    r = KappaRational((), (1, 5))
    assert r.num == () and r.den == (1,)
    assert r.is_zero()


def test_canonicalize_common_content():
    assert KappaRational((2, 2), (4, 4)) == KappaRational(1, 2)


def test_sign_normalization():
    r = KappaRational((1,), (-1, -1))
    assert r.den[-1] > 0
    assert r == KappaRational((-1,), (1, 1))


@pytest.mark.parametrize("value", [0, 3, -2, Fraction(1, 2), Fraction(-7, 3)],
                         ids=str)
def test_constant_hashes_like_the_number_it_equals(value):
    r = KappaRational.from_fraction(value)
    assert r == value and hash(r) == hash(value)
    assert r in {value} and value in {r}


def test_equal_rationals_hash_equal():
    r = KappaRational((-1, 0, 1), (1, 1))  # (k^2 - 1)/(k + 1)
    assert r == KappaRational((-1, 1)) and hash(r) == hash(KappaRational((-1, 1)))


def test_substitute_values():
    r = KappaRational((-4, 4), (1, 5))  # 4(k-1)/(5k+1)
    assert r.substitute(1) == 0
    assert r.substitute(0) == -4
    assert r.substitute(Fraction(1, 2)) == Fraction(-2, Fraction(7, 2)) == Fraction(-4, 7)


def test_substitute_pole():
    r = KappaRational((1,), (1, 1))
    with pytest.raises(PoleAtKappa):
        r.substitute(-1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        KappaRational((1,), ())


def test_string_roundtrip():
    cases = [
        KappaRational((2, 12)),
        KappaRational((-4, 4), (1, 5)),
        KappaRational((0, -8), (1, 4, 3)),
        KappaRational(0),
        KappaRational((1, 0, -1, 7)),
    ]
    for r in cases:
        ns, ds = r.as_strings()
        assert KappaRational.parse(ns, ds) == r


def test_poly_string_format():
    assert poly_to_str((2, 12)) == "12*k + 2"
    assert poly_to_str((-1, 0, 1)) == "k^2 - 1"
    assert poly_to_str(()) == "0"
    assert poly_from_str("k^2 - 1") == (-1, 0, 1)
    assert poly_from_str("-k") == (0, -1)
    with pytest.raises(ValueError):
        poly_from_str("k**2")


@pytest.mark.parametrize("text", [
    "-", "--1", "1 2", "k - - 2", "1 -", "1 + ", "2 k", "", "+", "1 + + k", "2*", "^2",
    "\u0663",  # a digit, but not an ASCII one
])
def test_poly_from_str_rejects_malformed(text):
    with pytest.raises(ValueError):
        poly_from_str(text)


def test_poly_strings_round_trip():
    for a in itertools.product(range(-3, 4), repeat=3):
        a = poly_trim(a)
        assert poly_from_str(poly_to_str(a)) == a
    golden = fixtures.load_golden()
    strings = [eps for p in golden["polynomials"] for eps in p["epsilon"].values()]
    for entries in golden.values():
        for entry in entries:
            for item in entry.get("coeffs", entry.get("terms", [])):
                strings += [item["num"], item["den"]]
    assert len(strings) > 300  # the walk reached every file of the corpus
    for s in strings:
        assert poly_to_str(poly_from_str(s)) == s


def test_kappa_linear():
    assert kappa_linear(2, 12) == KappaRational((2, 12))
    assert kappa_linear(5, 0) == KappaRational(5)


small_ints = st.integers(min_value=-9, max_value=9)
polys = st.lists(small_ints, min_size=0, max_size=3).map(tuple)
nonzero_polys = polys.filter(lambda p: any(p))


@st.composite
def rationals(draw):
    return KappaRational(draw(polys), draw(nonzero_polys))


@settings(max_examples=150, deadline=None)
@given(rationals(), rationals(), rationals())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == KappaRational(0)
    if not a.is_zero():
        assert a * a.inverse() == KappaRational(1)


@settings(max_examples=150, deadline=None)
@given(rationals(), rationals(), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=4))
def test_substitute_is_homomorphism(a, b, p, q):
    x = Fraction(p, q)
    for op in ("add", "sub", "mul"):
        combined = {"add": a + b, "sub": a - b, "mul": a * b}[op]
        try:
            lhs = combined.substitute(x)
            va, vb = a.substitute(x), b.substitute(x)
        except PoleAtKappa:
            continue
        rhs = {"add": va + vb, "sub": va - vb, "mul": va * vb}[op]
        assert lhs == rhs


def horner(a, x):
    """Plain Fraction Horner, the reference for the integer evaluation."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(small_ints, max_size=5).map(tuple), nonzero_polys,
       st.integers(-9, 9), st.integers(1, 6), st.booleans())
def test_integer_substitution_matches_horner(num, den, p, q, root):
    # k0 = p/q is negative, zero, an integer or not; with ``root`` the
    # denominator carries q*k - p, so k0 is an exact root of it unless the
    # numerator cancels it.
    k0 = Fraction(p, q)
    if root:
        den = poly_mul(den, (-p, q))
    for a in (num, den):
        assert poly_eval(a, k0) == horner(a, k0)
    r = KappaRational(num, den)
    if horner(r.den, k0) == 0:
        with pytest.raises(PoleAtKappa):
            r.substitute(k0)
        return
    value = r.substitute(k0)
    assert value == horner(r.num, k0) / horner(r.den, k0)
    c = KappaRational.from_fraction(value)
    twin = KappaRational(value.numerator, value.denominator)
    assert (c.num, c.den, c._factors) == (twin.num, twin.den, twin._factors)


@settings(max_examples=150, deadline=None)
@given(polys, nonzero_polys, nonzero_polys)
def test_canonical_form_unique(n, d, s):
    # common polynomial factors never change the canonical representation
    scaled = KappaRational(poly_mul(n, s), poly_mul(d, s))
    plain = KappaRational(n, d)
    assert scaled == plain
    assert (scaled.num, scaled.den) == (plain.num, plain.den)


@settings(max_examples=100, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_divides_and_scales(a, b, g):
    d = poly_gcd(poly_mul(a, g), poly_mul(b, g))
    # d must be divisible by g up to sign (g divides both products)
    gg = g if g[-1] > 0 else tuple(-c for c in g)
    q = poly_div_exact(d, poly_gcd(d, gg))
    assert poly_gcd(d, gg) == poly_gcd(gg, d)
    # d is a common divisor
    poly_div_exact(poly_mul(a, g), d)
    poly_div_exact(poly_mul(b, g), d)


@pytest.mark.parametrize("a, b", [
    ((1,), (0, 1)),  # 1 / k: the divisor has the higher degree
    ((0, 1), (1, 2)),  # k / (2k + 1): the leading coefficient does not divide
    ((1, 1), (0, 1)),  # (k + 1) / k: a remainder is left
], ids=["degree", "leading", "remainder"])
def test_poly_div_exact_rejects_inexact(a, b):
    with pytest.raises(ArithmeticError, match="inexact"):
        poly_div_exact(a, b)


def test_poly_div_exact_zero_operands():
    with pytest.raises(ZeroDivisionError):
        poly_div_exact((1, 1), ())
    assert poly_div_exact((), (1, 1)) == ()


def test_poly_gcd_with_zero():
    assert poly_gcd((), ()) == ()
    assert poly_gcd((), (-2, -4)) == (2, 4)
    assert poly_gcd((0, 3), ()) == (0, 3)


# Primitive linear factors a + b*k (b > 0), the shape of every eigenvalue
# difference, and two quadratics that arrive unfactored: k^2 + 1 is
# irreducible, k^2 + 3k + 2 = (k + 1)(k + 2) hides two linear factors.
LINEAR = [(a, b) for b in range(1, 4) for a in range(-4, 5) if math.gcd(a, b) == 1]
QUADRATICS = [(1, 0, 1), (2, 3, 1)]


def gcd_reference(num, den):
    """Lowest terms by the general gcd, with a positive leading denominator."""
    if not num:
        return (), (1,)
    g = poly_gcd(num, den)
    num, den = poly_div_exact(num, g), poly_div_exact(den, g)
    if den[-1] < 0:
        num, den = poly_neg(num), poly_neg(den)
    return num, den


def power_product(start, factors, mults):
    out = start
    for f, e in zip(factors, mults):
        for _ in range(e):
            out = poly_mul(out, f)
    return out


@st.composite
def factored_operands(draw, pool, quadratics=QUADRATICS):
    """(x, raw_num, raw_den): x built from a numerator sharing some of the
    pool's factors and a denominator with repeated pool factors, a content
    and maybe one of the unfactored ``quadratics``, by division or by the
    constructor."""
    base = draw(st.lists(small_ints, min_size=1, max_size=2).filter(any).map(tuple))
    num = power_product(
        poly_scale(base, draw(st.integers(1, 6))),
        pool,
        draw(st.lists(st.integers(0, 1), min_size=len(pool), max_size=len(pool))),
    )
    content = draw(st.integers(1, 12))
    mults = draw(st.lists(st.integers(0, 2), min_size=len(pool), max_size=len(pool)))
    quad = draw(st.sampled_from([None, *quadratics]))
    den = power_product((content,), pool, mults)
    if quad:
        den = poly_mul(den, quad)
    if draw(st.booleans()):
        x = KappaRational(num) / content
        for f, e in zip(pool, mults):
            for _ in range(e):
                x = x / KappaRational(f)
        if quad:
            x = x / KappaRational(quad)
    else:
        x = KappaRational(num, den)
    return x, num, den


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_factored_arithmetic_matches_gcd_reference(data):
    pool = data.draw(
        st.lists(st.sampled_from(LINEAR), min_size=3, max_size=3, unique=True)
    )
    a, an, ad = data.draw(factored_operands(pool))
    b, bn, bd = data.draw(factored_operands(pool))
    assert (a.num, a.den) == gcd_reference(an, ad)
    assert (b.num, b.den) == gcd_reference(bn, bd)
    sum_num, sum_den = poly_add(poly_mul(an, bd), poly_mul(bn, ad)), poly_mul(ad, bd)
    diff_num = poly_add(poly_mul(an, bd), poly_neg(poly_mul(bn, ad)))
    cases = [
        (a + b, sum_num, sum_den),
        (a - b, diff_num, sum_den),
        (a * b, poly_mul(an, bn), poly_mul(ad, bd)),
        (a / b, poly_mul(an, bd), poly_mul(ad, bn)),
        (kappa_sum([(a, (1,)), (b, (-1,))]), diff_num, sum_den),
        # a sum whose lowest terms need the factors b brought in cancelled
        (
            (a + b) - b,
            poly_add(poly_mul(sum_num, bd), poly_neg(poly_mul(bn, sum_den))),
            poly_mul(sum_den, bd),
        ),
    ]
    for got, raw_num, raw_den in cases:
        num, den = gcd_reference(raw_num, raw_den)
        assert (got.num, got.den) == (num, den)
        twin = KappaRational(raw_num, raw_den)
        assert got == twin and hash(got) == hash(twin)
        for f in pool:
            root = Fraction(-f[0], f[1])
            if poly_eval(den, root) == 0:
                with pytest.raises(PoleAtKappa):
                    got.substitute(root)
            else:
                value = poly_eval(num, root) / poly_eval(den, root)
                assert got.substitute(root) == value


@st.composite
def weights(draw, pool, term, kinds):
    """An integer polynomial weight for ``term``: a constant, or a multiple
    of a pool factor (of one the term carries, if any, so that it may
    cancel), of (5, 7) (which no term carries) or of their product."""
    scale = draw(st.integers(-6, 6).filter(bool))
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return (scale,)
    carried = [f for f in pool if poly_eval(term.den, Fraction(-f[0], f[1])) == 0]
    f = draw(st.sampled_from(carried if carried and kind != "pool" else pool))
    shape = {"other": (5, 7), "product": poly_mul(f, (5, 7))}.get(kind, f)
    return poly_scale(shape, scale)


LINEAR_WEIGHTS = ["constant", "pool", "carried", "other"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_kappa_sum_matches_gcd_reference(data):
    pool = data.draw(
        st.lists(st.sampled_from(LINEAR), min_size=3, max_size=3, unique=True)
    )
    # Only with linear factors and weights does the sum test some factors
    # and not all, so each example draws one of three regimes.
    regime = data.draw(st.sampled_from(["linear", "quadratic weight", "opaque"]))
    quadratics = QUADRATICS if regime == "opaque" else ()
    kinds = LINEAR_WEIGHTS if regime == "linear" else [*LINEAR_WEIGHTS, "product"]
    drawn = data.draw(
        st.lists(factored_operands(pool, quadratics), min_size=0, max_size=5)
    )
    terms = [(x, data.draw(weights(pool, x, kinds))) for x, _, _ in drawn]
    raw_num, raw_den = (), (1,)
    for (_, num, den), (_, a) in zip(drawn, terms):
        raw_num = poly_add(poly_mul(raw_num, den), poly_mul(poly_mul(num, a), raw_den))
        raw_den = poly_mul(raw_den, den)
    total = kappa_sum(terms)
    assert (total.num, total.den) == gcd_reference(raw_num, raw_den)
    # A term cancelling a prefix leaves factors that several terms carry at
    # their top multiplicity, which the restricted test must still cancel.
    j = data.draw(st.integers(0, len(terms)))
    assert kappa_sum([*terms, (-kappa_sum(terms[:j]), (1,))]) == kappa_sum(terms[j:])

"""Canonical-form and field-arithmetic tests for the coupling rationals."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csd4 import fixtures, hamiltonian, kappa, solver
from csd4.errors import PoleAtKappa
from csd4.kappa import (
    KappaRational,
    kappa_all_zero,
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
    share_den,
)
from csd4.zpoly import ZPolynomial


def test_canonicalize_difference_of_squares():
    # (k^2 - 1)/(k + 1) reduces to k - 1
    r = KappaRational((-1, 0, 1), (1, 1))
    assert r == KappaRational((-1, 1))
    assert r.as_strings() == ("k - 1", "1")
    # and 1/q^2 * q to 1/q, q = k^2 + 1 opaque: _reduce writes q^2 out and cancels one q
    q = KappaRational((1, 0, 1))
    x = 1 / q / q
    assert x._factors == {(1, 0, 1): 2}
    assert x * q == 1 / q and (x * q).den == (1, 0, 1)


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


@pytest.mark.parametrize("num, den, entry", [
    ((1.5, 2), 1, "1.5"),
    (1, 2.0, "2.0"),
    (True, 1, "True"),
    ((1, 0), (1, False), "False"),
    (Fraction(1, 2), 1, "Fraction(1, 2)"),
], ids=["float-num", "float-den", "bool", "bool-in-den", "fraction"])
def test_non_int_entries_rejected(num, den, entry):
    # A float would pass as a canonical coefficient and a float den would
    # reach math.gcd; a bool is refused, as check_dominant refuses it.
    with pytest.raises(TypeError, match=re.escape(f"entry {entry} of")):
        KappaRational(num, den)


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
# and k - 2^16, which vanishes at the point where _reduce screens factors
SCREENED = [*LINEAR, (-(1 << kappa._SCREEN_BITS), 1)]


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
        st.lists(st.sampled_from(SCREENED), min_size=3, max_size=3, unique=True)
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
        st.lists(st.sampled_from(SCREENED), min_size=3, max_size=3, unique=True)
    )
    # The screen skips only linear factors, and a quadratic weight
    # or an opaque quadratic factor change what may cancel, so each example
    # draws one of three regimes.
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
    # their top multiplicity, which the screened reduction must still cancel.
    j = data.draw(st.integers(0, len(terms)))
    assert kappa_sum([*terms, (-kappa_sum(terms[:j]), (1,))]) == kappa_sum(terms[j:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_kappa_sum_over_a_divisor_is_the_quotient(data):
    pool = data.draw(
        st.lists(st.sampled_from(LINEAR), min_size=3, max_size=3, unique=True)
    )
    quadratics = data.draw(st.sampled_from([(), QUADRATICS]))  # opaque factors in c
    drawn = data.draw(
        st.lists(factored_operands(pool, quadratics), min_size=0, max_size=4)
    )
    kinds = [*LINEAR_WEIGHTS, "product"]
    pairs = [(x, data.draw(weights(pool, x, kinds))) for x, _, _ in drawn]
    # A constant, a pool factor (perhaps in the lcm already) or one that no
    # term carries; a negative scale gives a negative slope.
    scale = data.draw(st.integers(-6, 6).filter(bool))
    kind = data.draw(st.sampled_from(["constant", "pool", "other"]))
    shape = {"constant": (1,), "pool": data.draw(st.sampled_from(pool)), "other": (5, 7)}
    over = poly_scale(shape[kind], scale)
    how = data.draw(st.sampled_from(["as drawn", "cancelled by over", "zero"]))
    if how == "cancelled by over":  # over divides the numerator
        pairs = [(x, poly_mul(a, over)) for x, a in pairs]
    elif how == "zero":
        pairs += [(-x, a) for x, a in pairs]
    got = kappa_sum(pairs, over)
    assert got == kappa_sum(pairs) / KappaRational(over)
    assert got == KappaRational(*gcd_reference(got.num, got.den))
    if how == "zero":
        assert not got


def test_kappa_sum_is_not_fooled_at_a_packing_point():
    # A factor k - 2^b packs to 0 at width b, and at b = 16 it vanishes at
    # _reduce's screen point; it must still be tried, by kappa_sum and by
    # +, * and the constructor, which reduce by the same rule.
    one = KappaRational(1)
    bs = range(1, 80)
    assert kappa._SCREEN_BITS in bs
    for b in bs:
        f = (-(1 << b), 1)
        inv = one / KappaRational(f)
        assert kappa_sum([(inv, f)]) == one
        assert kappa_sum([(one, f)], f) == one
        assert kappa_sum([(inv, (1,))], f) == KappaRational(1, poly_mul(f, f))
        assert kappa_linear(0, 1) * inv + kappa_linear(-(1 << b), 0) * inv == one
        assert KappaRational(f) * inv == one and inv * KappaRational(f) == one
        assert KappaRational(poly_mul(f, (1, 2)), f) == KappaRational((1, 2))
        assert KappaRational(poly_mul(f, (1, 2))) / KappaRational(f) == KappaRational((1, 2))


def test_kappa_sum_certifies_the_packed_quotient():
    # k - 1 divides c.num, whose coefficients sum to 0, so the packed total
    # divides by the packed k - 1.  But the quotient's coefficients reach
    # 32 (2^60 - 1), past what the 64-bit packing of this sum holds: the
    # quotient's digits are not the quotient, and the sum must not take them.
    big = 2**60 - 1
    c = KappaRational((big,) * 32 + (-big,) * 32)
    want = KappaRational(c.num, (-1, 1))
    assert not want._factors and max(map(abs, want.num)).bit_length() == 65
    assert kappa_sum([(c, (1,))], (-1, 1)) == want


def test_kappa_sum_over_a_factor_that_does_not_divide_or_is_in_the_lcm():
    # f = k + 1 is in the lcm squared; g = 7k + 5 is in no denominator.
    f, g, h = (1, 1), (5, 7), (3, 2)
    x, y = over_linear((1, 0, 4), 1, [f, h], [2, 1]), over_linear((5,), 3, [h], [1])
    for a, b in [((1,), (1,)), (f, (2,)), (g, (-3,)), (poly_mul(f, f), (0,)),
                 (poly_mul(f, g), (0,)), (poly_mul(f, poly_mul(f, g)), (0,))]:
        pairs = [(x, a), (y, b)]
        whole = x * KappaRational(a) + y * KappaRational(b)
        for over in [f, poly_scale(f, -2), g, poly_scale(g, 3)]:
            got = kappa_sum(pairs, over)
            assert got == whole / KappaRational(over)
            assert (got.num, got.den) == gcd_reference(got.num, got.den)
            if over[1] % 7 == 0:  # g stays exactly when it does not divide the sum
                divides = poly_eval(whole.num, Fraction(-5, 7)) == 0
                assert (g in got._factors) != divides
    assert kappa_sum([(x, (1,))], g)._factors == {**x._factors, g: 1}
    assert kappa_sum([(x, g)], g) == x


def test_reduce_copies_the_factor_dict_only_when_a_factor_divides():
    # 4k^2 + 1 shares no factor with (k + 1)^2 (2k + 3) (k^2 + 1).
    fs = {(1, 1): 2, (3, 2): 1, (1, 0, 1): 1}
    saved = dict(fs)
    assert kappa._reduce((1, 0, 4), 6, fs)._factors is fs
    assert kappa._reduce((2,), 6, fs)._factors is fs
    r = kappa._reduce(poly_mul((1, 0, 4), (1, 1)), 6, fs)
    assert r._factors == {(1, 1): 1, (3, 2): 1, (1, 0, 1): 1} and r.num == (1, 0, 4)
    r = kappa._reduce(poly_mul((1, 0, 1), (3, 2)), 6, fs)
    assert r._factors == {(1, 1): 2} and r.num == (1,)
    assert fs == saved
    # (k + 1)(k + 2), unfactored, leaves k + 2 after its gcd with a multiple
    # of k + 1; the remainder joins the linear k + 2, before or after it in
    # the dict, and that key is then tried at the combined exponent.
    q, f = poly_mul((1, 1), (2, 1)), (2, 1)
    for num, want in [((1, 1), {f: 2}), (poly_mul((1, 1), f), {f: 1}),
                      (poly_mul((1, 1), poly_mul(f, f)), {}), ((3, 5), {q: 1, f: 1})]:
        for order in [{q: 1, f: 1}, {f: 1, q: 1}]:
            r = kappa._reduce(num, 1, order)
            assert r._factors == want
            assert (r.num, r.den) == gcd_reference(num, poly_mul(q, f))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_kappa_sum_shares_a_memo_across_widths(data):
    # One memo over many sums, as over one solve.  A weight scaled by 2^100
    # or 2^300 moves the packing width past any rounding step, so x0, which
    # the first two sums share, is summed at two widths, and the other
    # coefficients at drawn ones: a value packed at one width must never be
    # read at another.
    pool = data.draw(
        st.lists(st.sampled_from(LINEAR), min_size=3, max_size=3, unique=True)
    )
    quadratics = data.draw(st.sampled_from([(), QUADRATICS]))
    xs = [x for x, _, _ in data.draw(
        st.lists(factored_operands(pool, quadratics), min_size=1, max_size=4)
    )]
    kinds = [*LINEAR_WEIGHTS, "product"]
    shifts = data.draw(st.lists(st.sampled_from([0, 100, 300]), max_size=6))
    memo: dict = {}
    for i, shift in enumerate([0, 300, *shifts]):
        picks = [xs[0]] if i < 2 else data.draw(st.lists(st.sampled_from(xs), max_size=4))
        ps = [(x, poly_scale(data.draw(weights(pool, x, kinds)), 1 << shift)) for x in picks]
        over = data.draw(st.sampled_from([(1,), (-3,), *pool, (5, 7)]))
        assert kappa_sum(ps, over, memo) == kappa_sum(ps, over)
    assert all(memo[id(x)][0] is x for x in xs if id(x) in memo)  # its id stays its own


def miss_list_bounds(pairs) -> list:
    """Each term's bit bound in a sum of nonzero pairs (c, a), a an integer
    polynomial, by per-dict miss lists: the bits of c.num, of |a|_1 times
    the content ratio, and of what c's factor dict lacks of the lcm."""
    content, top, dicts = kappa._lcm([c for c, _ in pairs])
    fbits = {f: sum(map(abs, f)).bit_length() for f in top}
    miss = {k: [(f, e - fs.get(f, 0)) for f, e in top.items() if e > fs.get(f, 0)]
            for k, fs in dicts.items()}
    mbits = {k: sum(fbits[f] * d for f, d in ms) for k, ms in miss.items()}
    return [max(map(abs, c.num)).bit_length() + mbits[id(c._factors)]
            + (sum(map(abs, a)) * (content // c._content)).bit_length() for c, a in pairs]


def test_kappa_sum_packs_at_the_miss_list_width(monkeypatch):
    # The memo keeps each coefficient's bound net of its own factors' bits
    # and each sum adds the lcm's once: every term of every sum of a cold
    # solve, and of apply over its one shared memo, gets the bound of the
    # miss lists, and each sum packs at the width that bound gives (and
    # _reduce's screen at its own width, which is no multiple of 64).
    widths: list = []  # the widths packed at during the current sum
    pack = kappa._pack
    monkeypatch.setattr(kappa, "_pack", lambda p, bits: widths.append(bits) or pack(p, bits))
    checked: list = []

    def checked_sum(terms, over=(1,), memo=None):
        memo = {} if memo is None else memo
        pairs = kappa._pairs(terms, memo)  # the carriers kappa_sum finds in memo
        widths.clear()
        got = kappa_sum(terms, over, memo)
        if pairs:
            want = miss_list_bounds(pairs)
            content, top, _ = kappa._lcm([c for c, _ in pairs])
            lcm_bits = sum(e * sum(map(abs, f)).bit_length() for f, e in top.items())
            assert want == [lcm_bits + memo[id(c)][1]
                            + (sum(map(abs, a)) * (content // c._content)).bit_length()
                            for c, a in pairs]
            bits = -(-(max(want) + len(pairs).bit_length() + 1) // 64) * 64
            assert set(widths) - {kappa._SCREEN_BITS} == {bits}
            assert all(bits in memo[id(c)][2] for c, _ in pairs)
            checked.append(bits)
        return got

    monkeypatch.setattr(solver, "kappa_sum", checked_sum)
    monkeypatch.setattr(hamiltonian, "kappa_sum", checked_sum)
    solver.clear_cache()
    p = solver.solve((3, 3, 3, 3))
    solved = len(checked)
    hamiltonian.apply(p.polynomial)
    assert len(checked) > solved >= 100 and len(set(checked)) > 1
    solver.clear_cache()


def over_linear(num, content, pool, mults):
    """num / (content * prod f^e) with the linear factors of ``pool`` kept apart."""
    x = KappaRational(num) / content
    for f, e in zip(pool, mults):
        for _ in range(e):
            x = x / KappaRational(f)
    return x


def test_kappa_sum_of_a_coefficient_with_more_factor_bits_than_numerator_bits():
    # 5 / ((k + 1)^3 (2k + 3)^2) has a 3-bit numerator against 12 bits of
    # its own factors: its memo entry is negative, and every sum beside
    # 1 / (k + 2) still matches the gcd reference.
    f, g, h = (1, 1), (3, 2), (2, 1)
    c, b = over_linear(5, 1, [f, g], [3, 2]), over_linear(1, 1, [h], [1])
    memo: dict = {}
    for a in [(1,), (-7, 3), poly_scale(h, 2), f, poly_mul(f, g)]:
        for w in [(1,), (0, 1), (-5,), g]:
            raw_num = poly_add(poly_mul(poly_scale(a, 5), h), poly_mul(w, c.den))
            want = gcd_reference(raw_num, poly_mul(c.den, h))
            for got in (kappa_sum([(c, a), (b, w)], memo=memo), kappa_sum([(c, a), (b, w)])):
                assert (got.num, got.den) == want
    assert memo[id(c)][1] == 3 - 12


def test_kappa_sum_shares_a_memo_across_lcms():
    # A memo row holds nothing of one sum's lcm, so one memo over sums whose
    # lcms differ gives the values fresh memos, and pairwise sums, give.
    pool = [(1, 1), (3, 2), (-2, 1), (5, 3)]
    xs = [over_linear(num, content, pool, mults) for num, content, mults in [
        ((1,), 1, (1, 0, 0, 0)), ((-3, 2), 2, (2, 1, 0, 0)), ((7,), 3, (0, 0, 1, 2)),
        ((1, 0, 4), 1, (0, 2, 1, 0)), ((5,), 1, (3, 0, 0, 1)), ((2, -1), 6, (0, 0, 0, 0)),
    ]]
    weights = [(1,), (-2, 1), (3, 0, 1), (0, 5)]
    memo: dict = {}
    lcms = set()
    for r in (1, 2, 3):
        for picks in itertools.combinations(xs, r):
            ps = [(x, weights[i % len(weights)]) for i, x in enumerate(picks)]
            lcms.add(frozenset(kappa._lcm(picks)[1].items()))
            whole = sum((x * KappaRational(w) for x, w in ps), KappaRational(0))
            for over in [(1,), (-3,), (3, 2), (5, 7)]:
                got = kappa_sum(ps, over, memo)
                assert got == kappa_sum(ps, over) == whole / KappaRational(over)
    assert len(lcms) > 10


def share_den_case(content, *factors):
    """1 / (content * prod factors) with that factor dict, den not yet expanded."""
    x = KappaRational(1, content)
    for f in factors:
        x = x / KappaRational(f)
    return x


def test_share_den_stores_each_denominator_once():
    f, g = (1, 2), (-3, 1)
    seen: dict = {}
    cases = [  # (content, factors)
        (2, f), (6, f, f), (1, g, g), (3, f, f, g), (5,), (1, g, g, g),
    ]
    for content, *fs in cases:
        x = share_den(share_den_case(content, *fs), seen)
        assert x.den == power_product((content,), fs, [1] * len(fs))
    # An equal denominator is the stored one: same den and factor dict objects.
    first = seen[6, frozenset({(f, 2)})]
    again = share_den(share_den_case(6, f, f) * 5, seen)
    assert again.den is first.den and again._factors is first._factors
    assert again == KappaRational(5, first.den)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(3, [((0, 1), 1)])  # 3k, KappaRational(1, (0, 3))'s den: its coefficient is the bound
@given(st.integers(1, 1 << 80),
       st.lists(st.tuples(st.sampled_from([*LINEAR, *QUADRATICS]), st.integers(1, 5)),
                max_size=4, unique_by=lambda fe: fe[0]))
def test_den_is_the_factor_by_factor_expansion(content, factors):
    # den packs every factor at the bit length of content * prod |f|_1^e,
    # plus a sign bit: the exact bound on each coefficient of the product.
    # LINEAR holds k itself and factors with a negative constant.
    x = kappa._make((1,), content, dict(factors))
    assert x.den == power_product((content,), [f for f, _ in factors], [e for _, e in factors])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_kappa_all_zero_matches_kappa_sum(data):
    pool = data.draw(
        st.lists(st.sampled_from(LINEAR), min_size=3, max_size=3, unique=True)
    )
    # Mixed contents and factor sets, with or without an opaque quadratic,
    # and coefficient objects (so factor dicts) shared between the sums.
    quadratics = data.draw(st.sampled_from([(), QUADRATICS]))
    xs = [x for x, _, _ in data.draw(
        st.lists(factored_operands(pool, quadratics), min_size=1, max_size=4)
    )]
    kinds = [*LINEAR_WEIGHTS, "product"]
    sums = []
    for _ in range(data.draw(st.integers(0, 4))):
        picks = data.draw(st.lists(st.sampled_from(xs), max_size=4))
        ps = [(x, data.draw(weights(pool, x, kinds))) for x in picks]
        how = data.draw(st.sampled_from(["as drawn", "negated", "total", "one off"]))
        if how == "negated":  # each term cancelled by its negation
            ps += [(-x, a) for x, a in ps]
        elif how == "total":  # cancelled by one term over other denominators
            ps.append((-kappa_sum(ps), (1,)))
        elif how == "one off" and ps:  # all but one term cancelled
            rest = ps[1:]
            ps += [(x * 3, poly_neg(a)) for x, a in rest]
            ps += [(x, poly_scale(a, 2)) for x, a in rest]
        sums.append(ps)
    assert kappa_all_zero(sums) == (not any(kappa_sum(ps) for ps in sums))
    for ps in sums:
        assert kappa_all_zero([ps]) == (not kappa_sum(ps))


def constructed_product(c, w):
    """c * w by the constructor from the expanded parts, not by ``__mul__``."""
    w = w if isinstance(w, KappaRational) else KappaRational(w)
    return KappaRational(poly_mul(c.num, w.num), poly_mul(c.den, w.den))


def scaled(w, s):
    return w * s if isinstance(w, KappaRational) else poly_scale(w, s)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_kappa_all_zero_takes_rational_weights(data):
    # A KappaRational weight w stands for c * w, in kappa_sum as in
    # kappa_all_zero.  Drawn: weights that share one factor dict at
    # different contents (w and w / 7, also on one c), weights over a factor
    # that c's numerator carries, opaque quadratics, and integer weights in
    # the same sums.
    pool = data.draw(
        st.lists(st.sampled_from(LINEAR), min_size=3, max_size=3, unique=True)
    )
    quadratics = data.draw(st.sampled_from([(), QUADRATICS]))
    operands = st.lists(factored_operands(pool, quadratics), min_size=1, max_size=3)
    xs = [x for x, _, _ in data.draw(operands)]
    xs += [KappaRational(poly_mul(f, x.num), x.den) for x in xs[:1] for f in pool]
    ws = [w for w, _, _ in data.draw(operands)]
    ws += [w / 7 for w in ws] + [KappaRational(3) / KappaRational(f) for f in pool]
    kinds = [*LINEAR_WEIGHTS, "product"]
    sums = []
    for _ in range(data.draw(st.integers(0, 4))):
        picks = data.draw(st.lists(st.sampled_from(xs), max_size=4))
        ps = [(x, data.draw(st.sampled_from(ws)) if data.draw(st.booleans())
               else data.draw(weights(pool, x, kinds))) for x in picks]
        if data.draw(st.booleans()):  # the same c over w's factor dict twice
            ps += [(x, w / 7) for x, w in ps if isinstance(w, KappaRational)]
        how = data.draw(st.sampled_from(["as drawn", "negated", "total", "one off"]))
        if how == "negated":  # each term cancelled by its negated weight
            ps += [(x, scaled(w, -1)) for x, w in ps]
        elif how == "total":  # cancelled by one integer-weight term
            ps.append((-kappa_sum([(constructed_product(x, w), (1,)) for x, w in ps]), (1,)))
        elif how == "one off" and ps:  # all but one term cancelled
            rest = ps[1:]
            ps += [(x * 3, scaled(w, -1)) for x, w in rest]
            ps += [(x, scaled(w, 2)) for x, w in rest]
        sums.append(ps)
    values = [kappa_sum([(constructed_product(x, w), (1,)) for x, w in ps]) for ps in sums]
    assert all(x * w == constructed_product(x, w) for ps in sums for x, w in ps
               if isinstance(w, KappaRational))
    assert kappa_all_zero(sums) == (not any(values))
    for ps, value in zip(sums, values):
        assert kappa_all_zero([ps]) == (not value)
        assert kappa_sum(ps) == value


def test_kappa_all_zero_keys_each_carrier_by_its_weight():
    # w and w / 2 share one factor dict at two contents, and c and w share
    # the factor k + 1: (c, w) stands for (k + 2) / (2 (k + 1)^2), so a
    # carrier keyed without the content, or one whose joined dict keeps
    # k + 1 once, gets these sums wrong.
    f, g = (1, 1), (2, 1)
    c = KappaRational(1, 2) / KappaRational(f)
    w = KappaRational(g) / KappaRational(f)
    half = w / 2
    assert half._factors is w._factors and half._content != w._content
    want = KappaRational(g, poly_scale(poly_mul(f, f), 2))
    assert kappa_all_zero([[(c, w), (-want, (1,))]])
    assert kappa_all_zero([[(c, w), (c, half), (want, (-3,)), (want / 2, (3,))]])
    assert not kappa_all_zero([[(c, w), (c, half), (want, (-1,))]])

    def fresh():  # weights made and dropped one sum at a time
        for i in range(2, 300):
            v = KappaRational(1) / kappa_linear(i, 1)
            yield [(c, v), (-(c * v), (1,))]

    # a dropped weight's dict id may come back, unless the carrier keeps it
    assert kappa_all_zero(fresh())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_kappa_sum_over_integer_denominators(data):
    # With no factor in any denominator, kappa_sum is the sum of the
    # products, reduced once over the content and the factor of ``over``.
    coeff = st.builds(KappaRational, st.lists(small_ints, min_size=1, max_size=4).map(tuple),
                      st.integers(2, 12))
    pairs = [(c, data.draw(st.lists(small_ints, min_size=1, max_size=3).map(poly_trim)))
             for c in data.draw(st.lists(coeff, max_size=5))]
    over = data.draw(st.sampled_from([(1,), (-3,), (6,), (2, 1), (-4, 3), (5, -7)]))
    how = data.draw(st.sampled_from(["as drawn", "zero", "cancelled by over"]))
    if how == "zero":
        pairs += [(-c, a) for c, a in pairs]
    elif how == "cancelled by over":  # over divides the numerator
        pairs = [(c, poly_mul(a, over)) for c, a in pairs]
    want = KappaRational(0)
    for c, a in pairs:
        want = want + c * KappaRational(a)
    got = kappa_sum(pairs, over)
    assert got == want / KappaRational(over)
    if how == "zero":
        assert not got


def test_apply_to_a_monomial_matches_the_monomial_route():
    # z^e and the table of L have integer denominators only.
    for e in itertools.product(range(4), repeat=4):
        assert hamiltonian.apply(ZPolynomial.monomial(e)) == hamiltonian.apply_to_monomial(e)


def test_kappa_all_zero_is_not_fooled_at_a_packing_point():
    # k - 2^b vanishes at k = 2^b, the point a packing of width b would use.
    one, k = KappaRational(1), kappa_linear(0, 1)
    for b in range(1, 80):
        assert not kappa_all_zero([[(one, (-(1 << b), 1))]])
        assert not kappa_all_zero([[(k, (1,)), (one, (-(1 << b),))]])
        assert not kappa_all_zero([[(k / 3, (3,)), (one / (b + 1), (-((b + 1) << b),))]])


def test_product_by_an_integer_shares_the_factor_dict():
    p = solver.solve((2, 2, 2, 2))
    c = next(c for c in p.coefficients.values() if c._factors and len(c.num) > 1)
    assert (c * 3)._factors is c._factors
    assert (3 * c)._factors is c._factors
    assert (c * 3) / 3 == c

"""The character-variable operator: eigenvalues, both action routes, symmetry."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csd4 import hamiltonian as ham
from csd4 import rootsystem as rs
from csd4 import solver
from csd4.kappa import KappaRational, kappa_linear
from csd4.zpoly import Z1, Z2, Z3, ZPolynomial


def test_eigenvalue_values():
    assert ham.eigenvalue((1, 0, 0, 0)) == kappa_linear(2, 12)
    assert ham.eigenvalue((0, 0, 0, 0)) == KappaRational(0)
    assert ham.eigenvalue((0, 1, 0, 0)) == kappa_linear(4, 20)
    assert ham.eigenvalue((1, 1, 0, 0)) == kappa_linear(10, 32)


def test_eigenvalue_matches_quadratic_form():
    # 2(lam + k rho, lam + k rho) - 2k^2(rho, rho), recomputed through the
    # inverse Cartan matrix
    assert rs.inner(rs.WEYL_VECTOR, rs.WEYL_VECTOR) == 14
    weights = [m for m in itertools.product(range(4), repeat=4) if sum(m) <= 3]
    assert len(weights) == 35
    for m in weights + [(2, 2, 2, 2), (0, 3, 1, 2)]:
        lam2 = rs.inner(m, m)
        lamrho = rs.inner(m, rs.WEYL_VECTOR)
        want = KappaRational((int(2 * lam2), int(4 * lamrho)))
        assert ham.eigenvalue(m) == want


def test_apply_on_simple_inputs():
    assert ham.apply(Z1) == Z1 * kappa_linear(2, 12)
    assert ham.apply(ZPolynomial.constant(1)).is_zero()
    expect = (
        Z1**2 * kappa_linear(8, 24) - Z2 * 8 - ZPolynomial.constant(32)
    )
    assert ham.apply(Z1 * Z1) == expect


def test_monomial_route_simple_inputs():
    assert ham.apply_to_monomial((1, 0, 0, 0)) == Z1 * kappa_linear(2, 12)
    assert ham.apply_to_monomial((0, 0, 0, 0)).is_zero()
    assert ham.apply_to_monomial((2, 0, 0, 0)) == ham.apply(Z1 * Z1)


def test_routes_agree_random():
    rng = random.Random(2024)
    for _ in range(60):
        e = tuple(rng.randint(0, 7) for _ in range(4))
        assert ham.apply(ZPolynomial.monomial(e)) == ham.apply_to_monomial(e), e


coeffs = st.builds(
    KappaRational,
    st.lists(st.integers(-5, 5), min_size=0, max_size=2).map(tuple),
    st.lists(st.integers(-5, 5), min_size=1, max_size=2)
    .map(tuple)
    .filter(lambda p: any(p)),
)
exponents = st.tuples(*([st.integers(0, 3)] * 4))
zpolys = st.dictionaries(exponents, coeffs, max_size=4).map(ZPolynomial)


@settings(max_examples=60, deadline=None)
@given(zpolys, zpolys, coeffs, coeffs)
def test_apply_is_linear(p, q, a, b):
    assert ham.apply(p * a + q * b) == ham.apply(p) * a + ham.apply(q) * b


def pairwise_apply(p):
    """L p summed term by term with ZPolynomial + and *, the reference for
    apply, which sums each output monomial once."""
    out = ZPolynomial.zero()
    for key, coeff in ham._TABLE.items():
        d = p
        for j in key:
            d = d.derivative(j)
        out = out + coeff * d
    return out


# Coefficients over 1/(k^2 + k + 1), a denominator with no rational root, so
# kappa_sum tests every factor against the sum.
quadratic_den = st.builds(
    lambda num, scale: KappaRational(num, (scale, scale, scale)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(tuple),
    st.sampled_from([1, 2, -3]),
)
mixed_zpolys = st.dictionaries(
    st.tuples(*([st.integers(0, 4)] * 4)), coeffs | quadratic_den, max_size=6
).map(ZPolynomial)


# L z1^2 and L z2 meet at z2 with -8 and 4 + 20k, so this image has a
# coefficient that sums to zero.
CANCELS_AT_Z2 = (Z1 * Z1 * kappa_linear(4, 20) + Z2 * 8) * KappaRational(1, (1, 1, 1))


@settings(max_examples=80, deadline=None)
@given(mixed_zpolys)
@example(CANCELS_AT_Z2)
def test_apply_matches_pairwise_sum(p):
    got = ham.apply(p)
    assert got == pairwise_apply(p)
    assert all(got.terms.values())


@settings(max_examples=40, deadline=None)
@given(zpolys)
def test_triality_equivariance(p):
    for sigma in rs.TRIALITY_MAPS:
        assert ham.apply(p.permute_variables(sigma)) == ham.apply(p).permute_variables(
            sigma
        )


def test_table_is_triality_invariant():
    # L commutes with triality entry by entry: sigma carries the operator
    # d_key to d_sigma(key), so its coefficient is the sigma-image of key's.
    assert len(ham._TABLE) == 14
    for sigma in rs.TRIALITY_MAPS:
        for key, coeff in ham._TABLE.items():
            image = tuple(sorted(sigma[j] for j in key))
            assert ham._TABLE[image] == coeff.permute_variables(sigma), (sigma, key)


def test_shift_groups_derived_from_table():
    # All 17 shifts reach (3,4,3,3); only (1,2,1,1) depends on k.
    e = (3, 4, 3, 3)
    image = ham.apply_to_monomial(e).terms
    off = {rs.weight_to_root(tuple(x - y for x, y in zip(e, f))): c
           for f, c in image.items() if f != e}
    assert set(off) == {
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1),
        (1, 1, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1),
        (1, 2, 1, 0), (1, 2, 0, 1), (0, 2, 1, 1),
        (1, 2, 1, 1),
        (2, 2, 1, 1), (1, 2, 2, 1), (1, 2, 1, 2),
    }
    assert [mu for mu, c in off.items() if len(c.num) == 2] == [(1, 2, 1, 1)]
    e = (2, 3, 1, 4)
    w = rs.root_to_weight((1, 2, 1, 1))
    shifted = tuple(x - y for x, y in zip(e, w))
    assert ham.apply_to_monomial(e).terms[shifted] == kappa_linear(-288, 48)
    # apply_to_monomial assigns each group's term without merging: no two
    # shifts may land on the same exponent, nor on the diagonal.
    shifts = [s for s, _ in ham._SHIFTED]
    assert len(set(shifts)) == len(shifts) == 17 and (0, 0, 0, 0) not in shifts


@pytest.mark.parametrize("coeff, exps", [
    (KappaRational((0, 0, 1)), (1, 0, 0, 0)),  # quadratic in the coupling
    (KappaRational(1, 2), (1, 0, 0, 0)),  # not an integer
    (KappaRational(1), (0, 0, 0, 0)),  # shift omega_1, off the root lattice
], ids=["quadratic", "fraction", "off-lattice"])
def test_derivation_rejects_unrepresentable_entry(monkeypatch, coeff, exps):
    monkeypatch.setitem(ham._TABLE, (1,), ZPolynomial.monomial(exps, coeff))
    with pytest.raises(ValueError):
        ham._derive()


def test_integer_evaluator_matches_both_routes():
    # The walk's evaluator against the polynomial wrapper and against
    # generic differentiation, on every exponent with entries <= 4.
    for e in itertools.product(range(5), repeat=4):
        eps, image = ham.monomial_image(e)
        assert all(isinstance(x, int) for _, pair in image for x in (*pair, *eps))
        assert all(pair != (0, 0) for _, pair in image)
        pairs = {f: kappa_linear(*pair) for f, pair in image}
        if eps != (0, 0):
            pairs[e] = kappa_linear(*eps)
        assert len(pairs) == len(image) + (eps != (0, 0))
        assert ham.apply_to_monomial(e).terms == pairs, e
        assert ham.apply(ZPolynomial.monomial(e)).terms == pairs, e


def test_monomial_route_rejects_invalid_exponent(monkeypatch):
    # The evaluator reads _FALLING and _SHIFTED on a memo miss, so with the
    # memo emptied both walks meet the term: an empty product appended to
    # _FALLING is the constant 1.
    always = (rs.root_to_weight((1, 0, 0, 0)), [(1, 0, len(ham._FALLING))])
    monkeypatch.setattr(ham, "_FALLING", (*ham._FALLING, ()))
    monkeypatch.setattr(ham, "_SHIFTED", (always,))
    routes = [ham.monomial_image, ham.apply_to_monomial, solver.solve,
              lambda m: solver.solve_at(m, Fraction(7, 10))]
    solver.clear_cache()
    ham.monomial_image.cache_clear()
    try:
        for route in routes:
            with pytest.raises(ArithmeticError):
                route((0, 0, 0, 0))
    finally:
        solver.clear_cache()
        ham.monomial_image.cache_clear()


@pytest.mark.parametrize("e", [(True, 0, 0, 0), (1.5, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0)],
                         ids=["bool", "float", "negative", "three"])
def test_bad_exponent_is_refused_around_the_memo(e):
    # apply_to_monomial checks before the lookup, where (True, 0, 0, 0)
    # would find z1's image; monomial_image checks on a miss, so no entry
    # is stored under a bad exponent for a later solve to find.
    ham.monomial_image((1, 0, 0, 0))
    with pytest.raises(ValueError):
        ham.apply_to_monomial(e)
    ham.monomial_image.cache_clear()
    with pytest.raises(ValueError):
        ham.monomial_image(e)
    assert ham.monomial_image.cache_info().currsize == 0


def test_image_memo_is_bounded_shared_and_faithful():
    ham.monomial_image.cache_clear()
    solver.clear_cache()
    try:
        solver.solve((6, 6, 6, 6))  # 844 images, the orbit minima of 3,295 exponents
        solver.solve_at((5, 5, 4, 3), Fraction(7, 10))  # 1,018 more, less the overlap
    finally:
        solver.clear_cache()
    info = ham.monomial_image.cache_info()
    assert info.misses > info.maxsize == 1024 >= info.currsize
    for e in itertools.product(range(5), repeat=4):
        image = ham.monomial_image(e)
        assert isinstance(image[1], tuple)
        assert image == ham.monomial_image.__wrapped__(e), e
        assert ham.monomial_image(e) is image  # one shared entry


def test_monomial_shifts_stay_in_root_cone():
    rng = random.Random(5)
    for _ in range(40):
        e = tuple(rng.randint(0, 5) for _ in range(4))
        image = ham.apply_to_monomial(e)
        for produced in image.terms:
            mu_w = tuple(e[i] - produced[i] for i in range(4))
            mu = rs.weight_to_root(mu_w)
            assert all(c >= 0 for c in mu), (e, produced)


def test_commutator_cases():
    one = ZPolynomial.constant(1)
    assert ham.commutator(1, one) == Z1 * kappa_linear(2, 12)
    got = ham.commutator(1, Z1)
    expect = Z1**2 * kappa_linear(6, 12) - Z2 * 8 - ZPolynomial.constant(32)
    assert got == expect
    assert ham.commutator(3, one) == Z3 * kappa_linear(2, 12)
    with pytest.raises(ValueError, match="variable index 0"):  # not z4
        ham.commutator(0, Z1)

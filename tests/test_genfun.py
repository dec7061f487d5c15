"""Generating functions: printed data, series expansion, defining equations."""

import pytest

from csd4 import genfun, solver
from csd4.zpoly import Z1, Z2, Z3, Z4, ZPolynomial


def test_build_stored_data():
    f1 = genfun.build("F1")
    assert list(f1.numerator) == [
        ZPolynomial.constant(1),
        ZPolynomial.zero(),
        ZPolynomial.constant(-1),
    ]
    d = genfun.DENOMINATOR
    assert len(d) == 9
    assert d[0] == ZPolynomial.constant(1)
    assert d[4] == Z3**2 + Z4**2 - Z2 * 2 - 2
    assert d[8] == ZPolynomial.constant(1)
    f0 = genfun.build("F0")
    assert f0.numerator[0] == ZPolynomial.constant(8)
    g0 = genfun.build("G0")
    assert g0.numerator[0] == Z2 - 4
    with pytest.raises(KeyError):
        genfun.build("F2")


def test_denominator_palindrome():
    d = genfun.DENOMINATOR
    for i in range(9):
        assert d[i] == d[8 - i]


def test_expand_low_orders():
    s = genfun.expand("F0", 1)
    assert s.coeffs[0] == ZPolynomial.constant(8)
    assert s.coeffs[1] == Z1
    s = genfun.expand("F1", 2)
    assert s.coeffs[2] == Z1**2 - Z2 - 1
    s = genfun.expand("G0", 0)
    assert s.coeffs[0] == Z2 - 4
    s = genfun.expand("G1", 1)
    assert s.coeffs[0] == Z2
    assert s.coeffs[1] == Z1 * Z2 - Z3 * Z4
    with pytest.raises(ValueError):
        genfun.expand("F0", -1)


def test_series_match_solver():
    for label, order in (("F0", 8), ("F1", 8), ("G0", 6), ("G1", 6)):
        results = genfun.series_check(label, order)
        assert all(ok for _, ok in results), (label, results)


def test_pde_residuals_vanish():
    for label in ("F0", "F1"):
        assert genfun.pde_residual(label, 6).is_zero()
    with pytest.raises(KeyError):
        genfun.pde_residual("G0", 2)


def test_zero_coupling_three_term_relation():
    # z1 row(m) = row(m+1) + row(m-1) + mixed(m-1) on expanded coefficients.
    # Valid for m >= 2; at m = 1 the mixed coefficient is 2, not 1 (only the
    # diagonal slot is absorbed by the value-8 convention of the constant
    # term), leaving an exact defect of one mixed polynomial.
    f0 = genfun.expand("F0", 8)
    g0 = genfun.expand("G0", 7)
    for m in range(2, 8):
        lhs = Z1 * f0.coeffs[m]
        rhs = f0.coeffs[m + 1] + f0.coeffs[m - 1] + g0.coeffs[m - 1]
        assert lhs == rhs, m
    defect = Z1 * f0.coeffs[1] - f0.coeffs[2] - f0.coeffs[0] - g0.coeffs[0]
    assert defect == g0.coeffs[0]  # exactly one extra copy of (z2 - 4)


def test_target_coefficient_conventions():
    assert genfun.target_coefficient("F0", 0) == ZPolynomial.constant(8)
    assert genfun.target_coefficient("F1", 0) == ZPolynomial.constant(1)
    assert genfun.target_coefficient("G1", 0) == solver.specialize(
        solver.solve((0, 1, 0, 0)), 1
    )

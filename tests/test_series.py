"""Truncated series arithmetic and division."""

import random

import pytest

from csd4.kappa import KappaRational
from csd4.series import TauSeries
from csd4.zpoly import Z1, Z2, ZPolynomial

ONE = ZPolynomial.constant(1)


def const(c):
    return ZPolynomial.constant(c)


def test_geometric_series():
    num = TauSeries([ONE], 3)
    den = TauSeries([ONE, const(-1)], 3)
    q = num / den
    assert q == TauSeries([ONE, ONE, ONE, ONE], 3)


def test_self_division():
    den = TauSeries([ONE, Z1, Z2 * 3], 4)
    q = den / den
    assert q.coeffs[0] == ONE
    assert all(c.is_zero() for c in q.coeffs[1:])


def test_telescoping_division():
    num = TauSeries([ONE, ZPolynomial.zero(), const(-1)], 2)
    den = TauSeries([ONE, const(-1)], 2)
    assert num / den == TauSeries([ONE, ONE, ZPolynomial.zero()], 2)


def test_division_requires_invertible_lead():
    with pytest.raises(ZeroDivisionError):
        TauSeries([ONE], 2) / TauSeries([Z1, ONE], 2)
    with pytest.raises(ZeroDivisionError):
        TauSeries([ONE], 2) / TauSeries([ZPolynomial.zero(), ONE], 2)


def test_mul_div_roundtrip_random():
    rng = random.Random(7)
    vars_ = [Z1, Z2, ONE]
    for _ in range(25):
        order = rng.randint(1, 4)

        def rand_poly():
            p = ZPolynomial.zero()
            for _ in range(rng.randint(0, 2)):
                p = p + vars_[rng.randrange(3)] * rng.randint(-3, 3)
            return p

        q = TauSeries([rand_poly() for _ in range(order + 1)], order)
        d_coeffs = [const(rng.choice([1, -1, 2]))] + [
            rand_poly() for _ in range(order)
        ]
        d = TauSeries(d_coeffs, order)
        assert (q * d) / d == q


def test_truncation_consistency():
    a = TauSeries([ONE, Z1, Z2, Z1 * Z2], 3)
    b = TauSeries(a.coeffs, 1)
    assert b.order == 1 and len(b.coeffs) == 2
    prod = a * a
    assert prod.order == 3
    # (1 + z1 t)^2 keeps only terms through t^1 at order 1
    c = TauSeries([ONE, Z1], 1)
    assert (c * c).coeffs[1] == Z1 * 2


def test_scalar_mul():
    a = TauSeries([ONE, Z1], 1)
    k = KappaRational((0, 1))
    b = a * k
    assert b.coeffs[1] == Z1 * k

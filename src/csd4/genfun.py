"""Rational generating functions for the single-row eigenpolynomial families.

The four series collect, at coupling 0 or 1, the polynomials with quantum
numbers (m,0,0,0) or (m,1,0,0).  All four share one denominator D(t,z);
numerators and denominator are stored exactly as polynomial data in the
auxiliary variable t and expanded by truncated series division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import hamiltonian, solver
from .kappa import KappaRational
from .series import TauSeries
from .zpoly import Z1, Z2, ZPolynomial

LABELS = ("F0", "G0", "F1", "G1")


_Z34_MINUS_Z1 = ZPolynomial({(0, 0, 1, 1): 1, (1, 0, 0, 0): -1})
# z3^2 + z4^2 - 2 z2 - 2
_QUARTIC = ZPolynomial({(0, 0, 2, 0): 1, (0, 0, 0, 2): 1, (0, 1, 0, 0): -2, (0, 0, 0, 0): -2})

DENOMINATOR = (
    ZPolynomial.constant(1),
    -Z1,
    Z2,
    -_Z34_MINUS_Z1,
    _QUARTIC,
    -_Z34_MINUS_Z1,
    Z2,
    -Z1,
    ZPolynomial.constant(1),
)

# F0 = sum_m tr(g^m) t^m over the 8-dimensional representation, which is
# 8 - t D'(t)/D(t) for D(t) = det(1 - t g); so its numerator is
# 8 D - t D' = sum_i (8 - i) D_i t^i, whose t^8 term vanishes.
_NUM_F0 = tuple(d * (8 - i) for i, d in enumerate(DENOMINATOR[:8]))

_NUM_F1 = (
    ZPolynomial.constant(1),
    ZPolynomial.zero(),
    ZPolynomial.constant(-1),
)

_NUM_G0 = (
    ZPolynomial({(0, 1, 0, 0): 1, (0, 0, 0, 0): -4}),
    ZPolynomial({(1, 0, 0, 0): 6, (0, 0, 1, 1): -3}),
    ZPolynomial({
        (0, 0, 0, 0): -8,
        (2, 0, 0, 0): -2,
        (0, 1, 0, 0): -10,
        (0, 2, 0, 0): -1,
        (0, 0, 2, 0): 4,
        (1, 0, 1, 1): 2,
        (0, 0, 0, 2): 4,
    }),
    ZPolynomial({
        (1, 0, 0, 0): 10,
        (1, 1, 0, 0): 5,
        (1, 0, 2, 0): -3,
        (0, 0, 1, 1): -4,
        (0, 1, 1, 1): 1,
        (1, 0, 0, 2): -3,
    }),
    ZPolynomial({
        (0, 1, 0, 0): 8,
        (2, 0, 0, 0): -4,
        (0, 2, 0, 0): 2,
        (0, 1, 2, 0): -1,
        (1, 0, 1, 1): 4,
        (0, 1, 0, 2): -1,
    }),
    ZPolynomial({
        (1, 0, 0, 0): -6,
        (1, 1, 0, 0): -6,
        (0, 0, 1, 1): -1,
        (0, 1, 1, 1): 1,
    }),
    ZPolynomial({(0, 0, 0, 0): 8, (2, 0, 0, 0): 6, (0, 1, 0, 0): 2, (0, 2, 0, 0): -1}),
    ZPolynomial({(1, 0, 0, 0): -10, (1, 1, 0, 0): 1}),
    ZPolynomial({(0, 0, 0, 0): 4, (0, 1, 0, 0): -1}),
)

_NUM_G1 = (
    Z2,
    ZPolynomial({(0, 0, 1, 1): -1}),
    ZPolynomial({(0, 0, 2, 0): 1, (0, 0, 0, 2): 1, (0, 1, 0, 0): -2, (0, 0, 0, 0): -1}),
    -_Z34_MINUS_Z1,
    Z2,
    -Z1,
    ZPolynomial.constant(1),
)


@dataclass(frozen=True)
class RationalGF:
    label: str
    numerator: tuple
    denominator: tuple
    kappa: int  # coupling at which the series coefficients live
    row: int  # second quantum number of the generated family


_TABLE = {
    "F0": (_NUM_F0, 0, 0),
    "G0": (_NUM_G0, 0, 1),
    "F1": (_NUM_F1, 1, 0),
    "G1": (_NUM_G1, 1, 1),
}


def build(label: str) -> RationalGF:
    try:
        num, kappa, row = _TABLE[label]
    except KeyError:
        raise KeyError(f"unknown generating function {label!r}") from None
    return RationalGF(label, num, DENOMINATOR, kappa, row)


def expand(gf, order: int) -> TauSeries:
    """Truncated series of the rational function up to t^order."""
    if isinstance(gf, str):
        gf = build(gf)
    return TauSeries(gf.numerator, order) / TauSeries(gf.denominator, order)


def target_coefficient(gf, m: int) -> ZPolynomial:
    """The solver-side value the t^m series coefficient must reproduce."""
    if isinstance(gf, str):
        gf = build(gf)
    if gf.row == 0 and m == 0:
        return ZPolynomial.constant(8 if gf.kappa == 0 else 1)
    quantum = (m, gf.row, 0, 0)
    return solver.solve_at(quantum, Fraction(gf.kappa))


def series_check(label: str, order: int) -> list:
    """Per-coefficient comparison against the solver; list of (m, ok)."""
    gf = build(label)
    series = expand(gf, order)
    out = []
    for m in range(order + 1):
        out.append((m, series.coeffs[m] == target_coefficient(gf, m)))
    return out


def pde_residual(label: str, order: int) -> TauSeries:
    """Residual of the defining differential equation, order by order.

    The series is annihilated by (half the character-variable operator at
    the relevant coupling) minus (t d/dt)^2, minus an extra 6 t d/dt drift
    for the unit-coupling family.
    """
    if label not in ("F0", "F1"):
        raise KeyError(f"no differential equation is checked for {label!r}")
    gf = build(label)
    series = expand(gf, order)
    half = KappaRational(1, 2)
    kappa0 = Fraction(gf.kappa)
    out = []
    for k, coeff in enumerate(series.coeffs):
        lhs = (hamiltonian.apply(coeff) * half).substitute_kappa(kappa0)
        drift = k * k + (6 * k if gf.kappa == 1 else 0)
        out.append(lhs - coeff * drift)
    return TauSeries(out, order)

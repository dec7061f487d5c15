"""Numeric cross-validation on the torus coordinates.

Everything here is deliberately independent of the symbolic engine: the
characters are evaluated from their trigonometric definitions, and the
untransformed operator acts by central finite differences.  Agreement with
the exact eigenpolynomials is then a genuine two-route check.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import hamiltonian, solver
from .errors import NearSingularity

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MARGIN = 0.2  # every |sin| factor of a generic point exceeds it


def characters_from_q(q):
    """Values of the four fundamental characters at torus angles q.

    The square root of x1 x2 x3 x4 is fixed continuously as
    exp(i(q1+q2+q3+q4)); the double sum in the second character runs over
    all ordered pairs including equal indices, which is what makes its
    value at the origin equal the full dimension 28.
    """
    x = [cmath.exp(2j * qj) for qj in q]
    xbar = cmath.exp(1j * sum(q))
    inv = [1 / xj for xj in x]
    z1 = sum(x) + sum(inv)
    z2 = (
        sum(x[i] * x[j] for i, j in _PAIRS)
        + sum(inv[i] * inv[j] for i, j in _PAIRS)
        + sum(inv[i] * x[j] for i in range(4) for j in range(4))
    )
    z3 = xbar * sum(inv) + sum(x) / xbar
    z4 = xbar + 1 / xbar + sum(x[i] * x[j] for i, j in _PAIRS) / xbar
    return (z1, z2, z3, z4)


def sine_product(q) -> complex:
    """Product over pairs of sin(q_j - q_k) sin(q_j + q_k)."""
    out = 1.0 + 0j
    for j, k in _PAIRS:
        out *= cmath.sin(q[j] - q[k]) * cmath.sin(q[j] + q[k])
    return out


def min_sine(q) -> float:
    return min(
        min(abs(cmath.sin(q[j] - q[k])), abs(cmath.sin(q[j] + q[k])))
        for j, k in _PAIRS
    )


def generic_points(seed: int, count: int) -> list:
    """Deterministic generic torus points, each |sin| factor above _MARGIN."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        q = tuple(rng.uniform(0.1, math.pi - 0.1) for _ in range(4))
        if min_sine(q) > _MARGIN:
            points.append(q)
    return points


def apply_torus_operator(f, q, kappa: float, h: float) -> complex:
    """Finite-difference action of the gauged operator in torus coordinates.

    Central second-order differences; one evaluation at q and two per
    coordinate direction (nine in total) feed both the pure second
    derivatives and the cotangent drift terms.
    """
    q = list(q)
    f0 = f(q)
    plus = []
    minus = []
    for j in range(4):
        qp = list(q)
        qp[j] += h
        plus.append(f(qp))
        qm = list(q)
        qm[j] -= h
        minus.append(f(qm))
    second = sum(plus[j] - 2 * f0 + minus[j] for j in range(4)) / (h * h)
    first = [(plus[j] - minus[j]) / (2 * h) for j in range(4)]
    drift = 0j
    for j, k in _PAIRS:
        drift += (first[j] - first[k]) / cmath.tan(q[j] - q[k])
        drift += (first[j] + first[k]) / cmath.tan(q[j] + q[k])
    return 0.5 * second + kappa * drift


@dataclass(frozen=True)
class ResidualResult:
    residual: float  # the smaller of the two sign conventions
    sign: int  # the sign that attains it
    minus: float
    plus: float


def hamiltonian_residual(m, kappa, q, h: float = 1e-4) -> ResidualResult:
    """Relative residual of the eigenvalue equation at one torus point.

    The polynomial is specialized exactly at the rational coupling and
    evaluated through the characters; the operator is applied numerically.
    Both overall signs of the operator are tried, and the minimizing one is
    reported so the suite can assert a single consistent convention.
    """
    return scan_residuals(m, kappa, [q], h)[0][0]


def scan_residuals(m, kappa, points, h: float):
    """:func:`hamiltonian_residual` at each point, the worst one, and the signs.

    The polynomial is specialized once, before the first point.
    """
    for q in points:
        if min_sine(q) <= 0.1:
            raise NearSingularity(f"torus point {q} too close to a potential node")
    kappa = Fraction(kappa)
    phi_poly = solver.solve_at(tuple(m), kappa)
    eps = float(hamiltonian.eigenvalue(tuple(m)).substitute(kappa))

    def phi(qq):
        return phi_poly.eval_complex(characters_from_q(qq))

    results = []
    for q in points:
        applied = apply_torus_operator(phi, q, float(kappa), h)
        phi0 = phi(q)
        scale = abs(eps * phi0) if eps else abs(phi0)
        if scale == 0:
            raise NearSingularity(f"eigenfunction vanishes at {q}")
        res_minus = abs(-applied - eps * phi0) / scale
        res_plus = abs(applied - eps * phi0) / scale
        if res_minus <= res_plus:
            results.append(ResidualResult(res_minus, -1, res_minus, res_plus))
        else:
            results.append(ResidualResult(res_plus, +1, res_minus, res_plus))
    # A non-finite residual, NaN too, is the worst: it fails every tolerance.
    worst = max((r.residual for r in results), default=0.0,
                key=lambda x: x if math.isfinite(x) else math.inf)
    return results, worst, {r.sign for r in results}


def special_kappa_identity(n: int, q) -> float:
    """Relative error of the factorized form at coupling -(n-1)/2.

    Returns |lhs - rhs| / |rhs|, where lhs is the polynomial with quantum
    numbers (n,n,n,n) at that coupling, evaluated through the characters,
    and rhs is (-1)^n 2^(12n) times the n-th power of the sine product
    (the n-th power of the Weyl denominator, up to sign).  The identity
    lhs = rhs holds for even n.  For odd n it cannot: lhs is Weyl-symmetric
    while rhs changes sign when two angles are swapped, so the value
    measures the mismatch between the symmetric and the antisymmetric side.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    kappa0 = Fraction(-(n - 1), 2)
    poly = solver.solve_at((n, n, n, n), kappa0)
    lhs = poly.eval_complex(characters_from_q(q))
    rhs = (-1) ** n * 2 ** (12 * n) * sine_product(q) ** n
    if rhs == 0:
        return abs(lhs)
    return abs(lhs - rhs) / abs(rhs)

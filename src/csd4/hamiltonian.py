"""The gauged Calogero-Sutherland operator in character variables.

After factoring out the ground-state wavefunction and changing variables to
the four fundamental characters z1..z4, the Hamiltonian becomes a second
order differential operator L with polynomial coefficients.  It is
normalized here so that L P = eps(m) P on the eigenpolynomial with quantum
numbers m, with eps the excitation energy above the ground state.

Two routes to L are provided: generic term-by-term differentiation
(:func:`apply`), and the closed-form action on a single monomial
(:func:`apply_to_monomial`).  They must agree identically; tests enforce it.
"""

from __future__ import annotations

from .kappa import KappaRational, kappa_linear
from .rootsystem import check_dominant, root_to_weight
from .zpoly import ZPolynomial


def eigenvalue(m) -> KappaRational:
    """Excitation energy eps(m), an exact degree-1 polynomial in the coupling."""
    m1, m2, m3, m4 = check_dominant(m)
    quad = (
        2 * (m1 * m1 + m3 * m3 + m4 * m4)
        + 4 * m2 * m2
        + 2 * (m1 * m3 + m1 * m4 + m3 * m4)
        + 4 * m2 * (m1 + m3 + m4)
    )
    lin = 12 * (m1 + m3 + m4) + 20 * m2
    return kappa_linear(quad, lin)


def ground_energy() -> KappaRational:
    """Total ground-state energy 28 k^2."""
    return KappaRational((0, 0, 28))


def total_energy(m) -> KappaRational:
    """Total energy of level m: excitation plus ground-state energy."""
    return eigenvalue(m) + ground_energy()


# Coefficients of L, with second-order cross terms listed once for j < k.
_SECOND = {
    (1, 1): ZPolynomial({(2, 0, 0, 0): 2, (0, 1, 0, 0): -4, (0, 0, 0, 0): -16}),
    (2, 2): ZPolynomial({
        (0, 2, 0, 0): 4,
        (2, 0, 0, 0): -8,
        (0, 0, 2, 0): -8,
        (0, 0, 0, 2): -8,
        (1, 0, 1, 1): -4,
        (0, 1, 0, 0): 16,
    }),
    (3, 3): ZPolynomial({(0, 0, 2, 0): 2, (0, 1, 0, 0): -4, (0, 0, 0, 0): -16}),
    (4, 4): ZPolynomial({(0, 0, 0, 2): 2, (0, 1, 0, 0): -4, (0, 0, 0, 0): -16}),
    (1, 2): ZPolynomial({(1, 1, 0, 0): 4, (0, 0, 1, 1): -12, (1, 0, 0, 0): -16}),
    (1, 3): ZPolynomial({(1, 0, 1, 0): 2, (0, 0, 0, 1): -16}),
    (1, 4): ZPolynomial({(1, 0, 0, 1): 2, (0, 0, 1, 0): -16}),
    (2, 3): ZPolynomial({(0, 1, 1, 0): 4, (1, 0, 0, 1): -12, (0, 0, 1, 0): -16}),
    (2, 4): ZPolynomial({(0, 1, 0, 1): 4, (1, 0, 1, 0): -12, (0, 0, 0, 1): -16}),
    (3, 4): ZPolynomial({(0, 0, 1, 1): 2, (1, 0, 0, 0): -16}),
}

_FIRST = {
    1: ZPolynomial.monomial((1, 0, 0, 0), kappa_linear(2, 12)),
    2: ZPolynomial({
        (0, 1, 0, 0): kappa_linear(4, 20),
        (0, 0, 0, 0): kappa_linear(-16, 16),
    }),
    3: ZPolynomial.monomial((0, 0, 1, 0), kappa_linear(2, 12)),
    4: ZPolynomial.monomial((0, 0, 0, 1), kappa_linear(2, 12)),
}


def apply(p: ZPolynomial) -> ZPolynomial:
    """L applied by generic differentiation, exactly."""
    out = ZPolynomial.zero()
    firsts = {j: p.derivative(j) for j in range(1, 5)}
    for (j, k), coeff in _SECOND.items():
        d2 = firsts[j].derivative(k)
        if d2:
            out = out + coeff * d2
    for j, coeff in _FIRST.items():
        if firsts[j]:
            out = out + coeff * firsts[j]
    return out


# Closed-form action on a monomial z^e: L z^e = eps(e) z^e minus a fixed
# list of downward shifts.  Each family pairs the shift (in simple-root
# coordinates) with the coefficient as a function of the exponents; the
# coefficient vanishes exactly when the shifted exponent would go negative.

def _c_aj(i):
    def f(e):
        return KappaRational(4 * e[i] * (e[i] - 1))

    return f


def _c_b(j):
    def f(e):
        return KappaRational(12 * e[1] * e[j])

    return f


def _c_c(i, j):
    def f(e):
        return KappaRational(16 * e[i] * e[j])

    return f


def _c_2a2(e):
    return KappaRational(8 * e[1] * (e[1] - 1))


def _c_d(e):
    # depends on the coupling: 16 e2 (2 - e2 - k + e1 + e3 + e4)
    n = 16 * e[1]
    return kappa_linear(n * (2 - e[1] + e[0] + e[2] + e[3]), -n)


def _c_4aj(i):
    def f(e):
        return KappaRational(16 * e[i] * (e[i] - 1))

    return f


MONOMIAL_SHIFT_FAMILIES = (
    ((1, 0, 0, 0), _c_aj(0)),
    ((0, 1, 0, 0), _c_aj(1)),
    ((0, 0, 1, 0), _c_aj(2)),
    ((0, 0, 0, 1), _c_aj(3)),
    ((1, 1, 0, 0), _c_b(0)),
    ((0, 1, 1, 0), _c_b(2)),
    ((0, 1, 0, 1), _c_b(3)),
    ((1, 1, 1, 0), _c_c(0, 2)),
    ((1, 1, 0, 1), _c_c(0, 3)),
    ((0, 1, 1, 1), _c_c(2, 3)),
    ((1, 2, 1, 0), _c_2a2),
    ((1, 2, 0, 1), _c_2a2),
    ((0, 2, 1, 1), _c_2a2),
    ((1, 2, 1, 1), _c_d),
    ((2, 2, 1, 1), _c_4aj(0)),
    ((1, 2, 2, 1), _c_4aj(2)),
    ((1, 2, 1, 2), _c_4aj(3)),
)

_SHIFT_WEIGHTS = tuple(
    (root_to_weight(shift), fn) for shift, fn in MONOMIAL_SHIFT_FAMILIES
)


def apply_to_monomial(e) -> ZPolynomial:
    """L z^e from the closed form; must agree with :func:`apply`."""
    e = tuple(e)
    out = {}
    eps = eigenvalue(e)
    if eps:
        out[e] = eps
    for w, fn in _SHIFT_WEIGHTS:
        coeff = fn(e)
        if not coeff:
            continue
        shifted = (e[0] - w[0], e[1] - w[1], e[2] - w[2], e[3] - w[3])
        if any(x < 0 for x in shifted):
            raise ArithmeticError(
                f"nonzero shift coefficient at invalid exponent {shifted}"
            )
        acc = out.get(shifted)
        acc = -coeff if acc is None else acc - coeff
        if acc:
            out[shifted] = acc
        elif shifted in out:
            del out[shifted]
    return ZPolynomial(out, _raw=True)


def commutator(v: int, p: ZPolynomial) -> ZPolynomial:
    """[L, z_v] p, always derived from :func:`apply` itself."""
    zv = ZPolynomial.variable(v)
    return apply(zv * p) - zv * apply(p)

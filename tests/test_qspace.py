"""Numeric validation on the torus: characters, residuals, factorization."""

import math
import random
from fractions import Fraction

import pytest

from csd4 import qspace, solver
from csd4.errors import NearSingularity
from csd4.qspace import generic_points


def test_characters_at_identity():
    z = qspace.characters_from_q((0.0, 0.0, 0.0, 0.0))
    for got, want in zip(z, (8, 28, 8, 8)):
        assert abs(got - want) < 1e-12


def test_characters_real_on_real_torus():
    # Uniform angles, so points near the nodes are covered too.
    rng = random.Random(11)
    for _ in range(20):
        q = tuple(rng.uniform(0, math.pi) for _ in range(4))
        for zj in qspace.characters_from_q(q):
            assert abs(zj.imag) < 1e-12


def test_characters_symmetric_under_angle_permutation():
    q = (0.3, 0.7, 1.1, 1.9)
    base = qspace.characters_from_q(q)
    perm = (q[2], q[0], q[3], q[1])
    permuted = qspace.characters_from_q(perm)
    for a, b in zip(base, permuted):
        assert abs(a - b) < 1e-10


def test_residual_examples():
    q = generic_points(3, 1)[0]
    r = qspace.hamiltonian_residual((1, 0, 0, 0), Fraction(1), q, 1e-4)
    assert r.residual < 1e-6
    assert r.sign == -1
    r = qspace.hamiltonian_residual((1, 1, 0, 0), Fraction(7, 10), q, 1e-4)
    assert r.residual < 1e-6
    assert r.sign == -1


def test_residual_ground_state_trivial():
    q = generic_points(4, 1)[0]
    r = qspace.hamiltonian_residual((0, 0, 0, 0), Fraction(3, 2), q, 1e-4)
    assert r.residual < 1e-9


def test_residual_sign_consistency():
    points = generic_points(0, 3)
    signs = set()
    for q in points:
        for m, kappa in (((1, 0, 0, 0), Fraction(1)), ((0, 1, 0, 0), Fraction(13, 10))):
            signs.add(qspace.hamiltonian_residual(m, kappa, q).sign)
    assert signs == {-1}


def test_scan_specializes_once(monkeypatch):
    # One exact polynomial serves every point, with the same floats as one
    # point at a time.
    m, kappa, points = (1, 1, 0, 0), Fraction(7, 10), generic_points(5, 4)
    single = [qspace.hamiltonian_residual(m, kappa, q) for q in points]
    calls = []
    real = solver.solve_at
    monkeypatch.setattr(solver, "solve_at", lambda *a: calls.append(a) or real(*a))
    results, worst, signs = qspace.scan_residuals(m, kappa, points, 1e-4)
    assert calls == [(m, kappa)]
    assert results == single
    assert worst == max(r.residual for r in single) and signs == {-1}


def test_near_singularity_rejected():
    with pytest.raises(NearSingularity):
        qspace.hamiltonian_residual((1, 0, 0, 0), Fraction(1), (0.5, 0.5, 1.1, 1.9))


def test_non_finite_residual_fails_every_tolerance():
    # An infinite step makes the residual NaN, which must not read as a pass.
    results, worst, _ = qspace.scan_residuals(
        (1, 0, 0, 0), Fraction(1), generic_points(0, 1), float("inf")
    )
    assert not math.isfinite(results[0].residual)
    for tolerance in (1e-6, 1.0, 1e300, float("inf")):
        assert not worst < tolerance


def test_special_identity_even_case():
    for q in generic_points(21, 3):
        assert qspace.special_kappa_identity(2, q) < 1e-8


def test_special_identity_nodes():
    # coincident angles: for the even case both sides vanish
    q = (0.7, 0.7, 1.3, 2.1)
    assert qspace.special_kappa_identity(2, q) < 1e-8
    # for n=1 the polynomial side (an orbit sum) does NOT vanish on the wall
    assert qspace.special_kappa_identity(1, q) > 1e-3
    with pytest.raises(ValueError):
        qspace.special_kappa_identity(0, q)


def test_zero_coupling_matches_orbit_sums():
    # Independent oracle: at zero coupling the eigenpolynomials, evaluated
    # through the characters, are Weyl-orbit sums of exponentials.  The
    # orbit is enumerated directly (permutations and even sign flips of the
    # euclidean coordinates of the highest weight).
    import cmath
    import itertools
    from fractions import Fraction as F

    from csd4 import solver

    half = F(1, 2)
    basis = [
        (F(1), F(0), F(0), F(0)),
        (F(1), F(1), F(0), F(0)),
        (half, half, half, -half),
        (half, half, half, half),
    ]

    def orbit_sum(m, q):
        lam = tuple(sum(m[i] * basis[i][j] for i in range(4)) for j in range(4))
        seen = set()
        for perm in itertools.permutations(range(4)):
            for signs in itertools.product((1, -1), repeat=4):
                if signs[0] * signs[1] * signs[2] * signs[3] != 1:
                    continue
                seen.add(tuple(signs[j] * lam[perm[j]] for j in range(4)))
        return sum(
            cmath.exp(2j * sum(float(w[j]) * q[j] for j in range(4))) for w in seen
        )

    for m in [(0, 1, 0, 0), (2, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 0)]:
        poly = solver.specialize(solver.solve(m), 0)
        for q in generic_points(17, 2):
            lhs = poly.eval_complex(qspace.characters_from_q(q))
            rhs = orbit_sum(m, q)
            assert abs(lhs - rhs) < 1e-9, (m, q)


def test_special_identity_odd_case_breaks_symmetrically():
    # The odd-n factorized form is antisymmetric under swapping two angles
    # while the polynomial side is symmetric; the check quantifies that.
    q = (0.31, 0.83, 1.37, 1.91)
    err = qspace.special_kappa_identity(1, q)
    q_swapped = (0.83, 0.31, 1.37, 1.91)
    err_swapped = qspace.special_kappa_identity(1, q_swapped)
    assert err >= 0 and err_swapped >= 0
    # lhs is invariant, rhs flips sign: the two errors differ unless lhs = 0
    assert abs(err - err_swapped) > 1e-3

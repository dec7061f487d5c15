"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every criterion is expected to pass.

Criterion 7 checks the special-coupling formula
``P_{(n,n,n,n)}(k=(1-n)/2) = (-1)^n 2^(12n) sine_product^n``, i.e.
``P_{n rho} = (-1)^n delta^n`` with ``delta`` the Weyl denominator.  For even
``n`` it asserts the formula as stated (n=2).  For odd ``n`` the formula
cannot hold: the left side is Weyl-symmetric and ``delta^n`` is
antisymmetric.  At n=1 (``k=0``) it asserts instead what the two sides are,
the symmetrization and the antisymmetrization of ``e^rho`` over a Weyl group
enumerated here.  For n=1 and n=2 it also asserts that ``delta^n`` is an
eigenfunction of the torus operator at ``k=(1-n)/2`` (the reflection
``k -> 1-k``), with the eigenvalue of ``(n,n,n,n)``.
"""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction

from csd4 import fixtures, genfun, qspace, recurrence, rootsystem, solver
from csd4 import hamiltonian as ham
from csd4.qspace import generic_points
from csd4.zpoly import ZPolynomial


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    return ok


def dominant_weights(total):
    out = []
    for m in itertools.product(range(total + 1), repeat=4):
        if sum(m) <= total:
            out.append(m)
    return out


def test_criterion_1_golden_corpus():
    start = time.time()
    corpus = fixtures.load_golden()
    bad = []
    for entry in corpus["polynomials"]:
        want = solver.CSPolynomial.from_fixture_obj(entry)
        got = solver.solve(want.m)
        if not (
            got.coefficients == want.coefficients
            and got.eigenvalue == want.eigenvalue
            and got.polynomial == want.polynomial
        ):
            bad.append(("symbolic", want.m))
    for key, kappa0 in (("characters", 1), ("monomials", 0)):
        for entry in corpus[key]:
            m = tuple(entry["m"])
            want = ZPolynomial.from_json_obj(entry["terms"])
            if solver.specialize(solver.solve(m), kappa0) != want:
                bad.append((key, m))
    elapsed = time.time() - start
    ok = not bad and elapsed < 30.0
    assert _report(
        "1 golden corpus (36 entries, exact)",
        ok,
        f"mismatches={bad} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_eigen_equation():
    checked = 0
    failures = []
    for m in dominant_weights(3):
        if not solver.verify_eigen(solver.solve(m)):
            failures.append(m)
        checked += 1
    rng = random.Random(42)
    seen = set()
    while len(seen) < 10:
        m = tuple(rng.randint(0, 5) for _ in range(4))
        if sum(m) > 5 or m in seen:
            continue
        seen.add(m)
        if not solver.verify_eigen(solver.solve(m)):
            failures.append(m)
        checked += 1
    ok = not failures
    assert _report(
        "2 eigen-equation (exact)", ok, f"checked={checked} failures={failures}"
    )


def test_criterion_3_operator_cross_check():
    failures = []
    count = 0
    for e in itertools.product(range(4), repeat=4):
        if ham.apply(ZPolynomial.monomial(e)) != ham.apply_to_monomial(e):
            failures.append(e)
        count += 1
    rng = random.Random(7)
    for _ in range(200):
        e = tuple(rng.randint(0, 9) for _ in range(4))
        if ham.apply(ZPolynomial.monomial(e)) != ham.apply_to_monomial(e):
            failures.append(e)
        count += 1
    ok = not failures
    assert _report(
        "3 operator cross-check (exact)", ok, f"cases={count} failures={failures}"
    )


def test_criterion_4_dimension_degeneration():
    failures = []
    for m in dominant_weights(3):
        value = solver.specialize(solver.solve(m), 1).eval_exact((8, 28, 8, 8))
        expected = rootsystem.weyl_dimension(m)
        if value != expected:
            failures.append((m, value, expected))
    ok = not failures
    assert _report(
        "4 dimension degeneration (exact)",
        ok,
        f"weights={len(dominant_weights(3))} failures={failures}",
    )


def test_criterion_5_recurrence_closed_forms():
    start = time.time()
    report = recurrence.verify_closed_forms(6)
    triality_ok = True
    for sigma in rootsystem.TRIALITY_MAPS[1:]:
        for v, m in ((1, (2, 1, 1, 0)), (2, (1, 1, 0, 2)), (4, (1, 0, 2, 1))):
            if not recurrence.triality_consistent(v, m, sigma).ok:
                triality_ok = False
    elapsed = time.time() - start
    ok = report.ok and triality_ok and elapsed < 300.0
    detail = (
        f"records={len(report.records)} failures={len(report.failures)} "
        f"triality_ok={triality_ok} elapsed={elapsed:.1f}s"
    )
    assert _report("5 recurrence closed forms m<=6 (exact)", ok, detail)


def test_criterion_6_generating_functions():
    bad = []
    for label, order in (("F0", 8), ("F1", 8), ("G0", 6), ("G1", 6)):
        for m, good in genfun.series_check(label, order):
            if not good:
                bad.append((label, m))
    pde_ok = all(genfun.pde_residual(label, 6).is_zero() for label in ("F0", "F1"))
    ok = not bad and pde_ok
    assert _report(
        "6 generating functions (exact)", ok, f"series_failures={bad} pde_ok={pde_ok}"
    )


RHO = (3, 2, 1, 0)  # euclidean coordinates of the weight (1,1,1,1)


def weyl_group():
    """W(D4) as (permutation, signs, det): 4! permutations times the 8 sign
    vectors with an even number of minus signs, acting by
    ``(w v)_j = signs[j] * v[perm[j]]``; det(w) is the permutation's sign."""
    out = []
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        for signs in itertools.product((1, -1), repeat=4):
            if math.prod(signs) == 1:
                out.append((perm, signs, (-1) ** inversions))
    return out


def weyl_sums(group, weight, q):
    """Sums over the group of exp(2i (w weight).q), plain and weighted by det(w)."""
    sym = anti = 0j
    for perm, signs, det in group:
        phase = sum(signs[j] * weight[perm[j]] * q[j] for j in range(4))
        term = cmath.exp(2j * phase)
        sym += term
        anti += det * term
    return sym, anti


def test_criterion_7_special_kappa_identity():
    points = generic_points(0, 5)
    group = weyl_group()
    assert len(group) == 192
    # n=2: the factorized form as stated.
    worst_even = max(qspace.special_kappa_identity(2, q) for q in points)
    # n=1, k=0: the polynomial side is the symmetrization of e^rho, and minus
    # the stated right side, 2^12 sine_product, is its antisymmetrization (the
    # Weyl denominator formula).  The two differ, so n=1 cannot factorize.
    p_rho = solver.specialize(solver.solve((1, 1, 1, 1)), 0)
    worst_sym = worst_anti = 0.0
    for q in points:
        sym, anti = weyl_sums(group, RHO, q)
        lhs = p_rho.eval_complex(qspace.characters_from_q(q))
        rhs = -(2**12) * qspace.sine_product(q)
        worst_sym = max(worst_sym, abs(lhs - sym) / abs(sym))
        worst_anti = max(worst_anti, abs(-rhs - anti) / abs(anti))
    # Both parities rest on the reflection k -> 1-k: delta^n is an
    # eigenfunction at k=(1-n)/2, with the sign convention of criterion 8.
    worst_reflect = {}
    for n in (1, 2):
        kappa = Fraction(1 - n, 2)
        eps = float(ham.eigenvalue((n, n, n, n)).substitute(kappa))

        def delta_n(qq, n=n):
            return (2**12 * qspace.sine_product(qq)) ** n

        worst_reflect[n] = 0.0
        for q in points:
            applied = qspace.apply_torus_operator(delta_n, q, float(kappa), 1e-4)
            target = eps * delta_n(q)
            residual = abs(-applied - target) / abs(target)
            worst_reflect[n] = max(worst_reflect[n], residual)
    ok = (
        worst_even < 1e-8
        and worst_sym < 1e-10
        and worst_anti < 1e-10
        and max(worst_reflect.values()) < 1e-6
    )
    detail = (
        f"n=2 max_rel_err={worst_even:.3e} (tol 1e-8); "
        f"n=1 symmetrization max_rel_err={worst_sym:.3e}, "
        f"antisymmetrization max_rel_err={worst_anti:.3e} (tol 1e-10); "
        f"reflection residual n=1 {worst_reflect[1]:.3e}, "
        f"n=2 {worst_reflect[2]:.3e} (tol 1e-6)"
    )
    assert _report("7 special-coupling identity (numeric)", ok, detail)


def test_criterion_8_qspace_residual():
    points = generic_points(0, 5)
    failures = []
    signs = set()
    for m in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)):
        for kappa in (Fraction(7, 10), Fraction(13, 10)):
            for q in points:
                r = qspace.hamiltonian_residual(m, kappa, q, 1e-4)
                signs.add(r.sign)
                if r.residual >= 1e-6:
                    failures.append((m, float(kappa), r.residual))
    ok = not failures and len(signs) == 1
    assert _report(
        "8 torus finite-difference residual (numeric)",
        ok,
        f"failures={failures} signs={signs}",
    )


def test_criterion_9_ladder():
    failures = []
    for m in range(1, 6):
        if recurrence.ladder_next(m).polynomial != solver.solve((m + 1, 0, 0, 0)).polynomial:
            failures.append(("up", m))
    for m in range(1, 4):
        if recurrence.ladder_mixed(m).polynomial != solver.solve((m, 1, 0, 0)).polynomial:
            failures.append(("mixed", m))
    ok = not failures
    assert _report("9 ladder algorithm (exact)", ok, f"failures={failures}")

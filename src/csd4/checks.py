"""Verification suites behind ``csd4 verify``.

Every check, whatever it compares, yields one :class:`Check` record; a
suite is a function from the parsed ``verify`` options (attributes
``max_m``, ``order``, ``seed``, ``step``, ``tolerance``) to a list of them.
:data:`SUITES` lists the suites in the order ``verify --suite all`` runs
them.  The acceptance tests keep their own assertions, so these suites stay
a second route rather than the only one.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import fixtures, qspace, recurrence, rootsystem, solver
from .errors import Check, PoleAtKappa
from .genfun import pde_residual, series_check
from .zpoly import ZPolynomial


def golden(opts) -> list:
    checks = []
    corpus = fixtures.load_golden()
    for entry in corpus["polynomials"]:
        want = solver.CSPolynomial.from_fixture_obj(entry)
        checks.append(Check(f"polynomial {list(want.m)}", solver.solve(want.m) == want))
    for key, kappa0 in (("characters", 1), ("monomials", 0)):
        for entry in corpus[key]:
            m = tuple(entry["m"])
            want = ZPolynomial.from_json_obj(entry["terms"])
            got = solver.solve_at(m, kappa0)
            checks.append(Check(f"{key[:-1]} {list(m)}", got == want))
    return checks


def eigen(opts) -> list:
    checks = [
        Check(f"eigen {list(m)}", solver.verify_eigen(solver.solve(m)))
        for m in itertools.product(range(4), repeat=4)
        if sum(m) <= 3
    ]
    rng = random.Random(opts.seed)
    seen = set()
    while len(seen) < 10:
        m = tuple(rng.randint(0, 5) for _ in range(4))
        if sum(m) > 5 or m in seen:
            continue
        seen.add(m)
        checks.append(
            Check(f"eigen random {list(m)}", solver.verify_eigen(solver.solve(m)))
        )
    return checks


def recur(opts) -> list:
    checks = recurrence.verify_closed_forms(opts.max_m).records
    for sigma in rootsystem.TRIALITY_MAPS[1:]:
        label = "".join(str(sigma[i]) for i in (1, 2, 3, 4))
        for v, m in ((1, (2, 1, 1, 0)), (2, (1, 1, 0, 2))):
            rep = recurrence.triality_consistent(v, m, sigma)
            checks.append(Check(f"triality z{v} m={list(m)} sigma={label}", rep.ok))
    return checks


def ladder(opts) -> list:
    checks = []
    for m in range(1, 6):
        got = recurrence.ladder_next(m)
        want = solver.solve((m + 1, 0, 0, 0))
        checks.append(Check(f"ladder ({m + 1},0,0,0)", got.polynomial == want.polynomial))
    for m in range(1, 4):
        got = recurrence.ladder_mixed(m)
        want = solver.solve((m, 1, 0, 0))
        checks.append(
            Check(f"ladder mixed ({m},1,0,0)", got.polynomial == want.polynomial)
        )
    return checks


def genfun(opts) -> list:
    checks = []
    for label, order in (("F0", max(opts.order, 8)), ("F1", max(opts.order, 8)),
                         ("G0", min(opts.order, 6)), ("G1", min(opts.order, 6))):
        for m, good in series_check(label, order):
            checks.append(Check(f"{label} series t^{m}", good))
    for label in ("F0", "F1"):
        residual = pde_residual(label, min(opts.order, 6))
        checks.append(Check(f"{label} pde residual", residual.is_zero()))
    return checks


def qcheck(opts) -> list:
    checks = []
    points = qspace.generic_points(opts.seed, 5)
    signs = set()
    for m in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)):
        for kappa in (Fraction(7, 10), Fraction(13, 10)):
            _, worst, seen = qspace.scan_residuals(m, kappa, points, opts.step)
            signs |= seen
            checks.append(Check(f"residual m={list(m)} kappa={kappa}",
                                worst < opts.tolerance, {"max_residual": worst}))
    checks.append(Check("consistent sign", len(signs) == 1))
    return checks


def special(opts) -> list:
    checks = []
    points = qspace.generic_points(opts.seed, 5)
    for n, tol in ((1, 1e-10), (2, 1e-8)):
        name = f"special identity n={n}"
        try:
            worst = max(qspace.special_kappa_identity(n, q) for q in points)
        except PoleAtKappa as exc:
            checks.append(Check(name, False, {"pole": str(exc)}))
            continue
        checks.append(Check(name, worst < tol, {"max_relative_error": worst}))
    return checks


SUITES = {
    "golden": golden,
    "eigen": eigen,
    "recur": recur,
    "ladder": ladder,
    "genfun": genfun,
    "qcheck": qcheck,
    "special": special,
}

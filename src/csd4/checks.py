"""Verification suites behind ``csd4 verify``.

Every check, whatever it compares, yields one :class:`Check` record; a
suite is a function of no argument that returns a list of them.
:data:`SUITES` lists the suites in the order ``verify --suite all`` runs
them.  The acceptance tests keep their own assertions, so these suites stay
a second route rather than the only one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import fixtures, qspace, recurrence, rootsystem, solver
from .errors import Check, PoleAtKappa
from .genfun import pde_residual, series_check
from .zpoly import ZPolynomial, field


def golden() -> list:
    try:
        corpus = fixtures.load_golden()
        for name, entries in corpus.items():
            if not isinstance(entries, list):
                raise ValueError(f"{name}.json does not hold a list of entries")
        polynomials = [solver.CSPolynomial.from_fixture_obj(e) for e in corpus["polynomials"]]
        specialized = [(key, kappa0, rootsystem.check_dominant(field(e, "m")),
                        ZPolynomial.from_json_obj(field(e, "terms")))
                       for key, kappa0 in (("characters", 1), ("monomials", 0))
                       for e in corpus[key]]
    except (OSError, ValueError) as exc:
        return [Check("golden corpus", False, {"error": f"{type(exc).__name__}: {exc}"})]
    checks = [Check(f"polynomial {list(w.m)}", solver.solve(w.m) == w) for w in polynomials]
    return checks + [Check(f"{key[:-1]} {list(m)}", solver.solve_at(m, kappa0) == want)
                     for key, kappa0, m, want in specialized]


# The first ten distinct weights with |m| <= 5 that random.Random(0) drew;
# their records keep the name "eigen random".
_DRAWN = ((0, 0, 4, 1), (0, 0, 2, 3), (0, 1, 2, 0), (5, 0, 0, 0), (1, 0, 1, 3),
          (0, 4, 0, 0), (1, 1, 0, 2), (0, 3, 1, 0), (0, 0, 0, 3), (0, 0, 3, 1))


def eigen() -> list:
    checks = [Check(f"eigen {list(m)}", solver.verify_eigen(solver.solve(m)))
              for m in itertools.product(range(4), repeat=4) if sum(m) <= 3]
    return checks + [Check(f"eigen random {list(m)}", solver.verify_eigen(solver.solve(m)))
                     for m in _DRAWN]


def recur() -> list:
    checks = recurrence.verify_closed_forms(3).records
    for sigma in rootsystem.TRIALITY_MAPS[1:]:
        label = "".join(str(sigma[i]) for i in (1, 2, 3, 4))
        for v, m in ((1, (2, 1, 1, 0)), (2, (1, 1, 0, 2))):
            rep = recurrence.triality_consistent(v, m, sigma)
            checks.append(Check(f"triality z{v} m={list(m)} sigma={label}", rep.ok))
    return checks


def ladder() -> list:
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


def genfun() -> list:
    checks = []
    for label, order in (("F0", 8), ("F1", 8), ("G0", 6), ("G1", 6)):
        for m, good in series_check(label, order):
            checks.append(Check(f"{label} series t^{m}", good))
    for label in ("F0", "F1"):
        residual = pde_residual(label, 6)
        checks.append(Check(f"{label} pde residual", residual.is_zero()))
    return checks


def qcheck() -> list:
    checks = []
    points = qspace.generic_points(0, 5)
    signs = set()
    for m in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)):
        for kappa in (Fraction(7, 10), Fraction(13, 10)):
            _, worst, seen = qspace.scan_residuals(m, kappa, points, qspace.STEP)
            signs |= seen
            checks.append(Check(f"residual m={list(m)} kappa={kappa}",
                                worst < qspace.TOLERANCE, {"max_residual": worst}))
    checks.append(Check("consistent sign", len(signs) == 1))
    return checks


def special() -> list:
    checks = []
    points = qspace.generic_points(0, 5)
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

"""The three workloads: their inputs, their operations and their oracles.

An operation's ``run`` makes the library calls and is the only part that is
timed; its ``check`` runs afterwards, outside the timed region, and returns
``None`` or the reason the output is wrong.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from csd4 import fixtures, genfun, hamiltonian, qspace, recurrence, solver
from csd4.errors import PoleAtKappa
from csd4.kappa import poly_eval
from csd4.rootsystem import TRIALITY_MAPS, apply_triality
from csd4.series import TauSeries
from csd4.zpoly import ZPolynomial

import mix

HERE = Path(__file__).resolve().parent

# The ROADMAP's ladder of quantum numbers for the symbolic solve, with how
# many cold solves of each rung one pass makes.  The three rungs of about
# 0.1 s repeat so that their medians rest on several samples; with two
# solves of (8,0,0,0) the pass median falls in the middle of those fifteen.
LADDER = (((8, 0, 0, 0), 2), ((12, 0, 0, 0), 5), ((0, 6, 0, 0), 5),
          ((2, 2, 2, 2), 5), ((3, 3, 3, 3), 1), ((4, 4, 4, 4), 1))
LADDER_DIGESTS = HERE / "ladder_digests.json"

EIGEN_LIST = tuple(
    m for m in itertools.product(range(4), repeat=4) if 1 <= sum(m) <= 3
) + ((1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3))
CLOSED_FORMS_MAX_M = 6
TRIALITY_CASES = tuple(
    (v, m, s) for s in range(1, len(TRIALITY_MAPS))
    for v, m in ((1, (2, 1, 1, 0)), (2, (1, 1, 0, 2)), (4, (1, 0, 2, 1)))
)
EXPANSIONS = tuple((v, (1, 1, 0, 0)) for v in range(1, 5)) + ((2, (0, 1, 1, 1)),)
LADDER_NEXT = range(1, 6)
LADDER_MIXED = range(1, 4)
SERIES = (("F0", 8), ("F1", 8), ("G0", 6), ("G1", 6))
PDE = (("F0", 6), ("F1", 6))
OPERATOR_EXPONENTS = tuple(itertools.product(range(4), repeat=4))
# Checks under about 0.1 s run this many times in a row in each pass, so that
# their latencies, and the percentiles among them, rest on more samples.
# The other four take 0.13 s to 3 s and run once.
SHORT_REPEATS = 3
LONG_CHECKS = ("verify_eigen(2, 2, 2, 2)", "verify_eigen(3, 3, 3, 3)",
               f"verify_closed_forms({CLOSED_FORMS_MAX_M})", "apply vs apply_to_monomial")

# A torus residual passes when its absolute error is within this share of
# (1 + |eps|) times the summed magnitudes of the polynomial's terms: central
# differences lose accuracy with the size of the terms, not of their sum.
RESIDUAL_TOL = 1e-5


@dataclass
class Op:
    kind: str
    label: str
    run: Callable  # run(tracer) -> output
    check: Callable  # check(output) -> None or the reason it is wrong
    repeats: int = 1  # runs in a row in each pass; its latency is their median


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fixture_digest(p) -> str:
    """sha256 of the canonical fixture JSON of a solved polynomial."""
    return _digest(p.to_fixture_obj())


def first_pole(p, k0):
    """mu of the first coefficient, in (height, mu) order, with a pole at k0."""
    for mu in sorted(p.coefficients, key=lambda mu: (sum(mu), mu)):
        if poly_eval(p.coefficients[mu].den, k0) == 0:
            return mu
    return None


def eigen_mismatch(m, k0, s):
    """Exact check of a specialized polynomial against L P = eps(m) P at k0."""
    if s.coefficient(m) != 1:
        return f"leading coefficient of {m} is not 1"
    eps = hamiltonian.eigenvalue(m).substitute(k0)
    if hamiltonian.apply(s).substitute_kappa(k0) != s * eps:
        return f"{m} at k={k0} fails the eigen-equation"
    return None


def residual_mismatch(req, s, r):
    z = qspace.characters_from_q(req.q)
    phi0, mag = 0j, 0.0
    for e, c in s.terms.items():
        t = complex(float(c.as_fraction()))
        for zi, ei in zip(z, e):
            t *= zi ** ei
        phi0 += t
        mag += abs(t)
    eps = float(hamiltonian.eigenvalue(req.m).substitute(req.k0))
    err = r.residual * (abs(eps * phi0) if eps else abs(phi0))
    if r.sign != -1:
        return f"residual of {req.m} at k={req.k0} has sign {r.sign}"
    if not err <= RESIDUAL_TOL * (1 + abs(eps)) * mag:
        return f"residual of {req.m} at k={req.k0}, q={req.q} is {r.residual:.3e}"
    return None


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.golden: dict = {}
        self.golden_at: dict = {}

    def setup(self, tr) -> None:
        """Fixture load and warm-up before the timed passes; the harness
        repeats it and reports the median."""
        corpus = tr.call("fixtures.load_golden", fixtures.load_golden)
        self.golden = {tuple(e["m"]): solver.CSPolynomial.from_fixture_obj(e)
                       for e in corpus["polynomials"]}
        # the corpus also pins the specializations at k=1 and k=0
        self.golden_at = {
            Fraction(k0): {tuple(e["m"]): ZPolynomial.from_json_obj(e["terms"])
                           for e in corpus[key]}
            for key, k0 in (("characters", 1), ("monomials", 0))
        }

    def golden_mismatch(self, p):
        want = self.golden.get(p.m)
        if want is not None and (p.coefficients, p.eigenvalue, p.polynomial) != (
            want.coefficients, want.eigenvalue, want.polynomial
        ):
            return f"{p.m} differs from the golden corpus"
        return None

    def ops(self) -> list:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        return hashlib.sha256(repr([op.label for op in self.ops()]).encode()).hexdigest()



class SolveLadder(Workload):
    """Cold symbolic solves of the ladder; the seed only orders them."""

    name = "solve_ladder"

    def setup(self, tr) -> None:
        super().setup(tr)
        with open(LADDER_DIGESTS, encoding="utf-8") as fh:
            self.digests = {tuple(json.loads(k)): v for k, v in json.load(fh).items()}

    def ops(self) -> list:
        ops = [Op("solve", f"solve{m}", self._runner(m), self._checker(m))
               for m, repeats in LADDER for _ in range(repeats)]
        random.Random(self.seed).shuffle(ops)
        return ops

    @staticmethod
    def _runner(m):
        def run(tr):
            tr.call("solver.clear_cache", solver.clear_cache)
            return tr.call("solver.solve", solver.solve, m)
        return run

    def _checker(self, m):
        def check(p):
            if fixture_digest(p) != self.digests[m]:
                return f"solve{m} differs from its recorded digest"
            return self.golden_mismatch(p)
        return check


@dataclass
class Outcome:
    poly: object = None  # the solved CSPolynomial, when the request solved directly
    value: object = None  # specialized ZPolynomial or qspace.ResidualResult
    pole: PoleAtKappa | None = None


class CouplingMix(Workload):
    """Seeded compute --kappa style requests, each cold."""

    name = "coupling_mix"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.requests = mix.generate(seed)
        # digests of outputs already checked, which later passes must repeat
        self._solved: dict = {}  # m -> fixture digest
        self._verified: dict = {}  # (m, k0) -> digest of the specialized output
        self._poles: dict = {}

    def inputs_digest(self) -> str:
        return mix.digest(self.requests)

    def ops(self) -> list:
        return [Op(r.kind, f"{r.kind}{r.m}@{r.k0}", self._runner(r), self._checker(r))
                for r in self.requests]

    @staticmethod
    def _runner(req):
        def run(tr):
            tr.call("solver.clear_cache", solver.clear_cache)
            if req.kind == "residual":
                try:
                    return Outcome(value=tr.call(
                        "qspace.hamiltonian_residual", qspace.hamiltonian_residual,
                        req.m, req.k0, req.q))
                except PoleAtKappa as exc:
                    return Outcome(pole=exc)
            p = tr.call("solver.solve", solver.solve, req.m)
            try:
                return Outcome(p, tr.call("solver.specialize", solver.specialize, p, req.k0))
            except PoleAtKappa as exc:
                return Outcome(p, pole=exc)
        return run

    def _checker(self, req):
        def check(out):
            p = out.poly if out.poly is not None else solver.solve(req.m)
            reason = self.solve_mismatch(p)
            if reason:
                return reason
            key = (req.m, req.k0)
            if key not in self._poles:
                self._poles[key] = first_pole(p, req.k0)
            mu = self._poles[key]
            if out.pole is not None:
                if mu is None or out.pole.mu != mu or out.pole.kappa != req.k0:
                    return (f"{req.m} at k={req.k0}: PoleAtKappa(mu={out.pole.mu}, "
                            f"kappa={out.pole.kappa}), expected mu={mu}")
                return None
            if mu is not None:
                return f"{req.m} at k={req.k0}: no PoleAtKappa, expected mu={mu}"
            if req.kind == "residual":
                s = solver.specialize(p, req.k0)
                return self.specialized_mismatch(req, s) or residual_mismatch(req, s, out.value)
            return self.specialized_mismatch(req, out.value)
        return check

    def solve_mismatch(self, p):
        digest = fixture_digest(p)
        if self._solved.setdefault(p.m, digest) != digest:
            return f"solve{p.m} changed between requests"
        return self.golden_mismatch(p)

    def specialized_mismatch(self, req, s):
        key = (req.m, req.k0)
        digest = _digest(s.to_json_obj())
        if key in self._verified:
            return None if digest == self._verified[key] else (
                f"{req.m} at k={req.k0} differs from its verified output")
        want = self.golden_at.get(req.k0, {}).get(req.m)
        if want is not None and s != want:
            return f"{req.m} at k={req.k0} differs from the golden corpus"
        reason = eigen_mismatch(req.m, req.k0, s)
        if reason is None:
            self._verified[key] = digest
        return reason


class ExactChecks(Workload):
    """The exact identity checks, with every polynomial solved in set-up.

    The checks are fixed, so the seed is not used.
    """

    name = "exact_checks"

    def setup(self, tr) -> None:
        super().setup(tr)
        tr.call("solver.clear_cache", solver.clear_cache)
        for m in sorted(self.needed(), key=lambda m: (sum(m), m)):
            tr.call("solver.solve", solver.solve, m)

    @staticmethod
    def needed() -> set:
        """Every m the pass may solve: peeling z_v * P_b only meets b + SHIFTS[v]."""
        ms = set(EIGEN_LIST)
        products = set(EXPANSIONS)
        for n in range(1, CLOSED_FORMS_MAX_M + 1):
            for i in range(4):
                base = tuple(n if j == i else 0 for j in range(4))
                products.update((v, base) for v in range(1, 5))
        for v, m, s in TRIALITY_CASES:
            sigma = TRIALITY_MAPS[s]
            products.update(((v, m), (sigma[v], apply_triality(m, sigma))))
        for v, base in products:
            ms.add(base)
            for shift in recurrence.SHIFTS[v]:
                mp = tuple(b + d for b, d in zip(base, shift))
                if min(mp) >= 0:
                    ms.add(mp)
        ms.update((n, 0, 0, 0) for n in range(max(LADDER_NEXT) + 2))
        ms.update((n, 0, 0, 0) for n in range(max(LADDER_MIXED) + 3))
        ms.update((n, 1, 0, 0) for n in LADDER_MIXED)
        for label, order in SERIES:
            row = genfun.build(label).row
            ms.update((n, row, 0, 0) for n in range(order + 1))
        return ms

    def ops(self) -> list:
        ops = [Op("verify_eigen", f"verify_eigen{m}", self._eigen(m), self._eigen_ok)
               for m in EIGEN_LIST]
        ops.append(Op("closed_forms", f"verify_closed_forms({CLOSED_FORMS_MAX_M})",
                      _call("recurrence.verify_closed_forms", recurrence.verify_closed_forms,
                            CLOSED_FORMS_MAX_M), _report_ok))
        ops += [Op("triality", f"triality{v},{m},{s}", self._triality(v, m, s), _report_ok)
                for v, m, s in TRIALITY_CASES]
        ops += [Op("expand_product", f"expand_product{v},{m}", self._expand_product(v, m),
                   self._expansion_ok(v, m)) for v, m in EXPANSIONS]
        ops += [Op("ladder", f"ladder_next({n})",
                   self._ladder("recurrence.ladder_next", recurrence.ladder_next, n,
                                (n + 1, 0, 0, 0)), _ladder_ok) for n in LADDER_NEXT]
        ops += [Op("ladder", f"ladder_mixed({n})",
                   self._ladder("recurrence.ladder_mixed", recurrence.ladder_mixed, n,
                                (n, 1, 0, 0)), _ladder_ok) for n in LADDER_MIXED]
        ops += [Op("series_check", f"series_check({label},{order})",
                   _call("genfun.series_check", genfun.series_check, label, order),
                   lambda out, order=order: None if len(out) == order + 1
                   and all(ok for _, ok in out) else f"series coefficients differ: {out}")
                for label, order in SERIES]
        ops += [Op("pde_residual", f"pde_residual({label},{order})",
                   _call("genfun.pde_residual", genfun.pde_residual, label, order),
                   lambda out: None if out.is_zero() else "nonzero PDE residual")
                for label, order in PDE]
        ops += [Op("expand", f"expand({label},{order})",
                   _call("genfun.expand", genfun.expand, label, order),
                   _series_division_ok(label, order)) for label, order in SERIES]
        ops.append(Op("operator", "apply vs apply_to_monomial", _cross_check, _cross_check_ok))
        for op in ops:
            if op.label not in LONG_CHECKS:
                op.repeats = SHORT_REPEATS
        return ops  # in a fixed order: peak memory depends on it

    @staticmethod
    def _eigen(m):
        def run(tr):
            p = tr.call("solver.solve", solver.solve, m)
            return p, tr.call("solver.verify_eigen", solver.verify_eigen, p)
        return run

    def _eigen_ok(self, out):
        p, ok = out
        return self.golden_mismatch(p) or (None if ok is True else f"verify_eigen{p.m} failed")

    @staticmethod
    def _triality(v, m, s):
        return _call("recurrence.triality_consistent", recurrence.triality_consistent,
                     v, m, TRIALITY_MAPS[s])

    @staticmethod
    def _expand_product(v, m):
        return _call("recurrence.expand_product", recurrence.expand_product, v, m)

    @staticmethod
    def _expansion_ok(v, m):
        def check(out):
            total = ZPolynomial.zero()
            for mp, c in out.terms.items():
                total = total + solver.solve(mp).polynomial * c
            if total != ZPolynomial.variable(v) * solver.solve(m).polynomial:
                return f"expand_product({v},{m}) does not sum back to z{v} P{m}"
            return None
        return check

    @staticmethod
    def _ladder(span, fn, n, target):
        def run(tr):
            return tr.call(span, fn, n), tr.call("solver.solve", solver.solve, target)
        return run


def _call(span, fn, *args):
    return lambda tr: tr.call(span, fn, *args)


def _report_ok(report):
    if not report.records:
        return "empty report"
    return None if report.ok else f"{len(report.failures)} failed records"


def _ladder_ok(out):
    got, want = out
    if (got.m, got.eigenvalue, got.coefficients, got.polynomial) != (
        want.m, want.eigenvalue, want.coefficients, want.polynomial
    ):
        return f"ladder output {got.m} differs from solve"
    return None


def _series_division_ok(label, order):
    def check(out):
        gf = genfun.build(label)
        if out * TauSeries(list(gf.denominator), order) != TauSeries(list(gf.numerator), order):
            return f"expand({label},{order}) times the denominator is not the numerator"
        return None
    return check


def _cross_check(tr):
    return [(tr.call("hamiltonian.apply", hamiltonian.apply, ZPolynomial.monomial(e)),
             tr.call("hamiltonian.apply_to_monomial", hamiltonian.apply_to_monomial, e))
            for e in OPERATOR_EXPONENTS]


def _cross_check_ok(out):
    bad = [e for e, (a, b) in zip(OPERATOR_EXPONENTS, out) if a != b]
    return f"apply and apply_to_monomial differ at {bad}" if bad else None


WORKLOADS = {w.name: w for w in (SolveLadder, CouplingMix, ExactChecks)}

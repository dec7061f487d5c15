"""Per-layer metrics of a traced run, and the layer replays behind them.

``kappa`` and ``zpoly`` are timed on operands harvested from the traced
pass's own outputs.  A layer the workload made no call into gets a small
fixed probe, so that every per-layer number is measured on every workload
rather than read as zero.  Timings are read from the spans once they are in
reference time (``speed.py``), so the replays run first and the metrics are
totted up after the clock has stopped.
"""

from __future__ import annotations

import operator
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

from csd4 import genfun, hamiltonian, qspace, recurrence, solver
from csd4.errors import PoleAtKappa
from csd4.kappa import poly_mul
from csd4.rootsystem import TRIALITY_MAPS
from csd4.zpoly import ZPolynomial

import mix
import spans

K_REPLAY = Fraction(7, 10)
PROBE_COUPLINGS = (Fraction(7, 10), Fraction(-1, 2))
PROBE_POINTS = tuple(mix.torus_point(random.Random(i)) for i in range(2))
MAX_PAIRS = 400
ZPOLY_MAX_TERMS = 320
MAX_ZPOLYS = 16
PROBE_MAX_TERMS = 100
REPEATS = 3


def harvest(outputs) -> list:
    """Distinct solved polynomials among the outputs, in (|m|, m) order."""
    found: dict = {}
    stack = list(outputs)
    while stack:
        x = stack.pop()
        if isinstance(x, solver.CSPolynomial):
            found.setdefault(x.m, x)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
        elif getattr(x, "poly", None) is not None:
            stack.append(x.poly)
    return [found[m] for m in sorted(found, key=lambda m: (sum(m), m))]


def strided(items: list, cap: int) -> list:
    if len(items) <= cap:
        return items
    return [items[i * len(items) // cap] for i in range(cap)]


@dataclass
class PerItem:
    """A replay's metric: `scale` times the median span of `name` over `items`."""
    name: str
    items: int
    scale: float
    unit: str

    def value(self, stats) -> float:
        return self.scale * statistics.median(stats[self.name].durations) / self.items


def _per_op(tr, name, fn, items, scale, unit) -> tuple:
    """Run fn over the items REPEATS times, one span a repeat."""
    def loop():
        for args in items:
            fn(*args)
    for _ in range(REPEATS):
        tr.call(name, loop)
    return PerItem(name, len(items), scale, unit), unit


def kappa_replay(tr, polys) -> dict:
    coeffs = [p.coefficients[mu] for p in polys
              for mu in sorted(p.coefficients, key=lambda mu: (sum(mu), mu))]
    pairs = strided(list(zip(coeffs, coeffs[1:])), MAX_PAIRS)
    reduced = sum((a + b).den != poly_mul(a.den, b.den) for a, b in pairs)
    singles = strided([(c, K_REPLAY) for c in coeffs], MAX_PAIRS)
    return {
        "kappa.add_us": _per_op(tr, "kappa.add", operator.add, pairs, 1e6, "us"),
        "kappa.mul_us": _per_op(tr, "kappa.mul", operator.mul, pairs, 1e6, "us"),
        "kappa.div_us": _per_op(tr, "kappa.div", operator.truediv, pairs, 1e6, "us"),
        "kappa.substitute_us": _per_op(tr, "kappa.substitute", lambda c, k: c.substitute(k),
                                       singles, 1e6, "us"),
        "kappa.add_reduced_ratio": (reduced / len(pairs), "ratio"),
        "kappa.den_deg_max": (max(len(c.den) - 1 for c in coeffs), "count"),
        "kappa.distinct_dens": (len({c.den for c in coeffs}), "count"),
    }


def zpoly_replay(tr, polys) -> dict:
    small = strided([p.polynomial for p in polys if len(p.polynomial) <= ZPOLY_MAX_TERMS],
                    MAX_ZPOLYS)
    z1 = ZPolynomial.variable(1)
    pairs = list(zip(small, small[1:] + small[:1]))
    return {
        "zpoly.mul_ms": _per_op(tr, "zpoly.mul", lambda p: z1 * p, [(p,) for p in small],
                                1e3, "ms"),
        "zpoly.sub_ms": _per_op(tr, "zpoly.sub", operator.sub, pairs, 1e3, "ms"),
        "zpoly.substitute_kappa_ms": _per_op(
            tr, "zpoly.substitute_kappa", lambda p: p.substitute_kappa(K_REPLAY),
            [(p,) for p in small], 1e3, "ms"),
    }


def cone_stats(tr, polys) -> dict:
    cone = sum(len(tr.call("solver.support_cone", solver.support_cone, p.m)) for p in polys)
    nnz = sum(len(p.coefficients) for p in polys)
    return {"solver.cone_size": (cone, "count"), "solver.nnz_ratio": (nnz / cone, "ratio")}


def _probe_specialize(tr, polys):
    for p in strided([p for p in polys if len(p.coefficients) <= ZPOLY_MAX_TERMS], MAX_ZPOLYS):
        for k0 in PROBE_COUPLINGS:
            try:
                tr.call("solver.specialize", solver.specialize, p, k0)
            except PoleAtKappa:
                pass
    return True, {}


def _probe_qspace(tr, polys):
    out = [tr.call("qspace.hamiltonian_residual", qspace.hamiltonian_residual,
                   (1, 1, 0, 0), K_REPLAY, q) for q in PROBE_POINTS]
    ok = all(r.residual < 1e-6 and r.sign == -1 for r in out)
    return ok, {"max_residual": max(r.residual for r in out)}


def _probe_hamiltonian(tr, polys):
    small = [p.polynomial for p in polys if len(p.polynomial) <= PROBE_MAX_TERMS][:4]
    ok = True
    for poly in small:
        applied = tr.call("hamiltonian.apply", hamiltonian.apply, poly)
        by_monomial = ZPolynomial.zero()
        for e, c in poly.terms.items():
            by_monomial = by_monomial + tr.call(
                "hamiltonian.apply_to_monomial", hamiltonian.apply_to_monomial, e) * c
        ok = ok and applied == by_monomial
    return ok, {}


def _probe_recurrence(tr, polys):
    reports = [
        tr.call("recurrence.verify_closed_forms", recurrence.verify_closed_forms, 2),
        tr.call("recurrence.triality_consistent", recurrence.triality_consistent,
                1, (1, 0, 1, 0), TRIALITY_MAPS[1]),
    ]
    expansion = tr.call("recurrence.expand_product", recurrence.expand_product, 1, (1, 1, 0, 0))
    up = tr.call("recurrence.ladder_next", recurrence.ladder_next, 2)
    mixed = tr.call("recurrence.ladder_mixed", recurrence.ladder_mixed, 1)
    ok = (all(r.ok for r in reports) and expansion.terms
          and up.polynomial == solver.solve((3, 0, 0, 0)).polynomial
          and mixed.polynomial == solver.solve((1, 1, 0, 0)).polynomial)
    return bool(ok), {"records": sum(len(r.records) for r in reports)}


def _probe_genfun(tr, polys):
    tr.call("genfun.expand", genfun.expand, "F0", 6)
    ok = all(good for _, good in tr.call("genfun.series_check", genfun.series_check, "F1", 4))
    return ok and tr.call("genfun.pde_residual", genfun.pde_residual, "F0", 4).is_zero(), {}


# span-name prefix of a layer -> its probe, which returns (ok, counts)
PROBES = {
    "solver.specialize": _probe_specialize,
    "qspace.": _probe_qspace,
    "hamiltonian.": _probe_hamiltonian,
    "recurrence.": _probe_recurrence,
    "genfun.": _probe_genfun,
}


def probe_missing_layers(tr, polys) -> tuple:
    """Probe each layer that has no span yet; returns (probes run, failed, counts)."""
    seen = {s.name for s in tr.spans}
    ran, failed, counts = 0, [], {}
    for prefix, probe in PROBES.items():
        if any(name.startswith(prefix) for name in seen):
            continue
        tr.request = f"probe:{prefix}"
        ok, found = probe(tr, polys)
        ran += 1
        counts.update(found)
        if not ok:
            failed.append(prefix)
    return ran, failed, counts


@dataclass
class Replayed:
    metrics: dict  # name -> (value or PerItem, unit)
    probes: int  # probes run
    failed: list  # probes whose verdict was false
    found: dict  # counts the probes found


def replay_layers(tr, outputs) -> Replayed:
    """The replays and probes after the traced pass, with the spans they leave."""
    polys = harvest(outputs)
    metrics = {}
    tr.request = "replay"
    metrics.update(cone_stats(tr, polys))
    metrics.update(kappa_replay(tr, polys))
    metrics.update(zpoly_replay(tr, polys))
    return Replayed(metrics, *probe_missing_layers(tr, polys))


def layer_metrics(tr, outputs, replayed, untraced_s, traced_s) -> dict:
    """Per-layer metrics from spans already mapped to reference time."""
    st = spans.by_name(tr.spans)
    metrics = {name: (v.value(st) if isinstance(v, PerItem) else v, unit)
               for name, (v, unit) in replayed.metrics.items()}
    found = replayed.found

    def busy(*names):
        return sum(st[n].busy_s for n in names if n in st)

    def calls(name):
        return st[name].calls if name in st else 0

    residuals = [o.value.residual for o in outputs
                 if isinstance(getattr(o, "value", None), qspace.ResidualResult)]
    if "max_residual" in found:
        residuals.append(found["max_residual"])
    records = sum(len(o.records) for o in outputs if isinstance(o, recurrence.Report))
    poles = sum(s.name == "solver.specialize" and s.error == "PoleAtKappa" for s in tr.spans)
    metrics.update({
        "solver.solve.calls": (calls("solver.solve"), "count"),
        "solver.solve.busy_s": (busy("solver.solve"), "s"),
        "solver.solve.p50_ms": (1e3 * statistics.median(st["solver.solve"].durations), "ms"),
        "solver.support_cone.busy_s": (busy("solver.support_cone"), "s"),
        "solver.specialize.calls": (calls("solver.specialize"), "count"),
        "solver.specialize.busy_s": (busy("solver.specialize"), "s"),
        "solver.pole_frac": (poles / max(calls("solver.specialize"), 1), "ratio"),
        "qspace.hamiltonian_residual.calls": (calls("qspace.hamiltonian_residual"), "count"),
        "qspace.hamiltonian_residual.busy_s": (busy("qspace.hamiltonian_residual"), "s"),
        "qspace.max_residual": (max(residuals), "ratio"),
        "hamiltonian.apply.busy_s": (busy("hamiltonian.apply"), "s"),
        "hamiltonian.apply_to_monomial.busy_s": (busy("hamiltonian.apply_to_monomial"), "s"),
        "recurrence.verify_closed_forms.busy_s": (busy("recurrence.verify_closed_forms"), "s"),
        "recurrence.expand_product.busy_s": (busy("recurrence.expand_product"), "s"),
        "recurrence.triality_consistent.busy_s": (busy("recurrence.triality_consistent"), "s"),
        "recurrence.ladder.busy_s": (busy("recurrence.ladder_next", "recurrence.ladder_mixed"), "s"),
        "recurrence.records": (records + found.get("records", 0), "count"),
        "genfun.expand.busy_s": (busy("genfun.expand"), "s"),
        "genfun.series_check.busy_s": (busy("genfun.series_check"), "s"),
        "genfun.pde_residual.busy_s": (busy("genfun.pde_residual"), "s"),
        "fixtures.load_golden.busy_s": (busy("fixtures.load_golden"), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.untraced_run_s": (untraced_s, "s"),
        "trace.traced_run_s": (traced_s, "s"),
        "trace.spans": (len(tr.spans), "count"),
        "trace.op_self_s": (sum(v.busy_s for k, v in st.items() if k.startswith("op.")), "s"),
    })
    return metrics

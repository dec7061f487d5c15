"""Tests of the benchmark itself:  python3 perfbench/selftest.py

The file name keeps pytest from collecting it with the library's suite.
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from csd4 import solver  # noqa: E402
from csd4.errors import PoleAtKappa  # noqa: E402
from csd4.kappa import KappaRational  # noqa: E402
from csd4.qspace import min_sine  # noqa: E402
from csd4.zpoly import ZPolynomial  # noqa: E402

import mix  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def altered(poly: ZPolynomial, exps) -> ZPolynomial:
    terms = dict(poly.terms)
    terms[exps] = terms[exps] + KappaRational(1)
    return ZPolynomial(terms)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        self.assertEqual(mix.generate(7), mix.generate(7))
        self.assertEqual(mix.digest(mix.generate(7)), mix.digest(mix.generate(7)))

    def test_other_seed_other_requests(self):
        self.assertNotEqual(mix.digest(mix.generate(7)), mix.digest(mix.generate(8)))

    def test_every_seed_gets_the_same_costs(self):
        def costs(seed):  # triality permutes m1, m3, m4 and keeps the cost
            return sorted((r.kind, r.m[1], sorted((r.m[0], r.m[2], r.m[3])), r.k0)
                          for r in mix.generate(seed))
        self.assertEqual(costs(1), costs(2))

    def test_requests_stay_in_range(self):
        reqs = mix.generate(3)
        self.assertEqual(len(reqs), mix.REQUESTS)
        self.assertEqual(sum(r.kind == "residual" for r in reqs), mix.REQUESTS // mix.RESIDUAL_EVERY)
        for r in reqs:
            self.assertTrue(1 <= sum(r.m) <= mix.MAX_M and min(r.m) >= 0)
            self.assertIn(r.k0, mix.COUPLINGS)
            if r.kind == "residual":
                self.assertGreater(min_sine(r.q), mix.NODE_MARGIN)


def checked(wl, req, out=None):
    op = next(o for o in wl.ops() if o.label == f"{req.kind}{req.m}@{req.k0}")
    return op.check(op.run(spans.Tracer(False)) if out is None else out)


class OracleTest(unittest.TestCase):
    def coupling_mix(self, *requests):
        wl = workloads.CouplingMix(0)
        wl.requests = list(requests)
        wl.setup(spans.Tracer(False))
        return wl

    def test_specialized_output_passes(self):
        req = mix.Request("specialize", (2, 1, 0, 0), Fraction(7, 10))
        self.assertIsNone(checked(self.coupling_mix(req), req))

    def test_one_altered_coefficient_fails(self):
        req = mix.Request("specialize", (2, 1, 0, 0), Fraction(7, 10))
        p = solver.solve(req.m)
        bad = altered(solver.specialize(p, req.k0), (0, 1, 0, 0))
        out = workloads.Outcome(p, bad)
        self.assertIsNotNone(checked(self.coupling_mix(req), req, out))

    def test_one_altered_coefficient_fails_the_ladder(self):
        wl = workloads.SolveLadder(0)
        wl.setup(spans.Tracer(False))
        op = next(o for o in wl.ops() if o.label == "solve(8, 0, 0, 0)")
        p = op.run(spans.Tracer(False))
        self.assertIsNone(op.check(p))
        mu = max(p.coefficients)
        coeffs = dict(p.coefficients)
        coeffs[mu] = coeffs[mu] + KappaRational(1)
        self.assertIsNotNone(op.check(solver.CSPolynomial(p.m, p.eigenvalue, coeffs, p.polynomial)))

    def test_pole_with_the_right_mu_passes(self):
        req = mix.Request("specialize", (2, 0, 0, 0), Fraction(-1, 3))
        wl = self.coupling_mix(req)
        out = wl.ops()[0].run(spans.Tracer(False))
        self.assertIsInstance(out.pole, PoleAtKappa)
        self.assertIsNone(wl.ops()[0].check(out))

    def test_wrong_pole_mu_fails(self):
        req = mix.Request("specialize", (2, 0, 0, 0), Fraction(-1, 3))
        p = solver.solve(req.m)
        right = workloads.first_pole(p, req.k0)
        wrong = next(mu for mu in p.coefficients if mu != right)
        out = workloads.Outcome(p, pole=PoleAtKappa(req.k0, mu=wrong))
        self.assertIsNotNone(checked(self.coupling_mix(req), req, out))

    def test_missing_pole_fails(self):
        req = mix.Request("specialize", (2, 0, 0, 0), Fraction(-1, 3))
        p = solver.solve(req.m)
        fake = solver.specialize(p, Fraction(7, 10))
        self.assertIsNotNone(checked(self.coupling_mix(req), req, workloads.Outcome(p, fake)))

    def test_residual_oracle(self):
        req = next(r for r in mix.generate(1) if r.kind == "residual" and sum(r.m) <= 3
                   and workloads.first_pole(solver.solve(r.m), r.k0) is None)
        wl = self.coupling_mix(req)
        out = wl.ops()[0].run(spans.Tracer(False))
        self.assertIsNone(wl.ops()[0].check(out))
        off = type(out.value)(out.value.residual + 1.0, -1, 0.0, 0.0)
        self.assertIsNotNone(wl.ops()[0].check(workloads.Outcome(value=off)))


class QuantileTest(unittest.TestCase):
    def test_harrell_davis(self):
        self.assertAlmostEqual(run.hd_quantile([4.0] * 7, 0.5), 4.0)
        self.assertAlmostEqual(run.hd_quantile(list(range(101)), 0.5), 50.0, places=6)
        self.assertAlmostEqual(run.hd_quantile([1.0] * 10 + [2.0] * 10, 0.5), 1.5, places=6)
        low, high = (run.hd_quantile(list(range(50)), p) for p in (0.5, 0.9))
        self.assertLess(low, high)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        S = spans.Span
        recorded = [
            S(0, "parent", 0.0, 10.0, None, "r"),
            S(1, "a", 1.0, 3.0, 0, "r"),
            S(2, "b", 2.0, 4.0, 0, "r"),  # overlaps a: [1, 4] is covered once
            S(3, "c", 8.0, 12.0, 0, "r"),  # only [8, 10] lies inside the parent
            S(4, "grandchild", 1.5, 2.5, 1, "r"),
        ]
        got = spans.self_times(recorded)
        self.assertAlmostEqual(got[0], 10.0 - 3.0 - 2.0)
        self.assertAlmostEqual(got[1], 2.0 - 1.0)
        self.assertAlmostEqual(got[4], 1.0)

    def test_tracer_links_parents_and_requests(self):
        tr = spans.Tracer(True)
        tr.request = "req1"
        tr.call("outer", lambda: tr.call("inner", lambda: None))
        with self.assertRaises(ZeroDivisionError):
            tr.call("boom", lambda: 1 / 0)
        outer, inner, boom = tr.spans
        self.assertEqual((outer.parent, inner.parent, boom.parent), (None, outer.id, None))
        self.assertEqual({s.request for s in tr.spans}, {"req1"})
        self.assertEqual(boom.error, "ZeroDivisionError")
        stats = spans.by_name(tr.spans)
        self.assertAlmostEqual(stats["outer"].busy_s, outer.duration - inner.duration)

    def test_disabled_tracer_records_nothing(self):
        tr = spans.Tracer(False)
        self.assertEqual(tr.call("x", lambda a: a + 1, 1), 2)
        self.assertEqual(tr.spans, [])


class SpeedClockTest(unittest.TestCase):
    @staticmethod
    def clock(durations, gap=1.0):
        """Probes of the given durations, one after each gap of wall time,
        with a reference probe of 1 s."""
        c = speed.SpeedClock(reference_probe_s=1.0)
        t = 0.0
        for d in durations:
            c.record(t, t + d)
            t += d + gap
        return c

    def test_probes_take_no_reference_time(self):
        c = self.clock([1.0] * 6)  # probes at [0, 1], [2, 3], [4, 5], ...
        self.assertAlmostEqual(c.span(0.5, 0.9), 0.0)
        self.assertAlmostEqual(c.span(1.0, 4.0), 2.0)  # two gaps of 1 s, one probe
        self.assertAlmostEqual(c.span(1.5, 2.5), 0.5)

    def test_slow_host_reads_as_reference_speed(self):
        fast, slow = self.clock([1.0] * 6), self.clock([2.0] * 6, gap=2.0)
        # the same work: one gap and one probe on either host
        self.assertAlmostEqual(fast.span(1.0, 3.0), 1.0)
        self.assertAlmostEqual(slow.span(2.0, 6.0), 1.0)

    def test_rate_is_the_median_of_nearby_probes(self):
        c = self.clock([1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0])
        # one slow probe among its neighbours does not move the rate
        self.assertAlmostEqual(c.span(3.0, 4.0), 1.0)

    def test_ref_is_monotone_before_between_and_after_probes(self):
        c = self.clock([1.0, 2.0, 1.5, 1.0])
        stamps = [-1.0 + 0.25 * i for i in range(60)]
        refs = [c.ref(t) for t in stamps]
        self.assertEqual(refs, sorted(refs))

    def test_probe_work_is_fixed(self):
        self.assertEqual(speed.probe_work(), speed.probe_work())


if __name__ == "__main__":
    unittest.main()

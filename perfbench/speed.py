"""Reference time: wall time corrected for the speed of the host.

The host's speed drifts: the same pure-Python loop can take 25 ms in one
two-second window and 37 ms in the next, and 1.5 ms or 2.5 ms from one
tenth of a second to the next, in CPU time as much as in wall time.  Neither
clock can then tell a slower program from a slower machine.

``SpeedClock`` runs a fixed probe of standard-library work (it never calls
csd4) from a SIGALRM handler every ``INTERVAL_S`` of wall time, in the
benchmark's own thread.  The benchmark takes plain ``time.perf_counter()``
stamps, and ``ref`` maps a stamp to reference time once the probes around
it have run.  The probes take no reference time.  Between two probes,
reference time advances at the wall rate times ``REFERENCE_PROBE_S`` over
the median duration of the ``2 * HALF_WINDOW`` probes around that stretch.
When the host runs the probe in ``REFERENCE_PROBE_S``, a reference second
is a wall second; when the host is slower, the same work still reads the
same.  A change to csd4 does not move the probe, so it moves the reading in
full.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import math
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
HALF_WINDOW = 2
# About the median probe duration on the 2-vCPU host where the benchmark was
# defined, so that reference seconds there read close to wall seconds.
REFERENCE_PROBE_S = 2.7e-3

_KEYS = tuple((i % 7, i % 5, i % 3) for i in range(1, 120))
_A, _B = 3 ** 4000 + 12345, 7 ** 2500 + 999


def probe_work() -> int:
    """Fixed work: about half of it Fraction sums in a dict keyed by
    exponent tuples, half multiplication, remainder and gcd of integers of
    some 7000 bits.  When the host slows, pure-Python code like the first
    half slows more than csd4 does, and big-integer code like the second
    half less; across runs, csd4's compensated times moved least with the
    host's speed when the two halves took about the same time.  Returns a
    checksum."""
    acc, terms = Fraction(0), {}
    for i, key in enumerate(_KEYS, 1):
        v = Fraction(i * i + 1, 2 * i + 3)
        terms[key] = terms.get(key, 0) + v
        acc += v * Fraction(3, i + 1)
    x = acc.numerator + len(terms)
    for i in range(5):
        x ^= (_A * (_B + i)) % (_A - i)
        x ^= math.gcd(_A + i, 3 * _B + i)
    return x


class SpeedClock:
    def __init__(self, reference_probe_s: float = REFERENCE_PROBE_S):
        self.reference_probe_s = reference_probe_s
        self.starts: list[float] = []  # wall stamps of each probe's start
        self.ends: list[float] = []
        self._map = None  # (reference time at each probe's start, rate of each stretch)

    def probe(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection owed to the workload would read as a slow host
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.record(start, end)

    def record(self, start: float, end: float) -> None:
        self.starts.append(start)
        self.ends.append(end)
        self._map = None

    def start(self) -> None:
        """Probe at once, then every INTERVAL_S of wall time until ``stop()``."""
        probe_work()  # the first call pays for cold code paths
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _build(self):
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        # stretch k runs from the end of probe k-1 to the start of probe k;
        # stretch len(durations) is the open end after the last probe
        rates = [self.reference_probe_s
                 / statistics.median(durations[max(0, k - HALF_WINDOW):k + HALF_WINDOW])
                 for k in range(len(durations) + 1)]
        gaps = (s - e for e, s in zip(self.ends, self.starts[1:]))
        at_start = list(itertools.accumulate(
            (gap * rate for gap, rate in zip(gaps, rates[1:])), initial=0.0))
        return at_start, rates

    def ref(self, wall: float) -> float:
        """Reference time of a ``time.perf_counter()`` stamp."""
        if self._map is None:
            self._map = self._build()
        at_start, rates = self._map
        k = bisect.bisect_right(self.starts, wall)  # probes started by then
        if k == 0:
            return (wall - self.starts[0]) * rates[0]
        if wall < self.ends[k - 1]:
            return at_start[k - 1]  # inside a probe
        return at_start[k - 1] + (wall - self.ends[k - 1]) * rates[k]

    def span(self, a: float, b: float) -> float:
        """Reference seconds between two wall stamps."""
        return self.ref(b) - self.ref(a)

    def summary(self) -> dict:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        qs = statistics.quantiles(durations, n=10) if len(durations) > 1 else durations * 9
        return {"probes": len(durations), "probe_ms_p10": round(1e3 * qs[0], 3),
                "probe_ms_p50": round(1e3 * statistics.median(durations), 3),
                "probe_ms_p90": round(1e3 * qs[-1], 3)}

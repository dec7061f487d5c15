"""csd4 benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times passes over the workload's operations for about
``--seconds`` seconds and prints the end-to-end metrics; with ``--trace 1``
it runs a warm-up pass, an untraced and a traced pass, replays the layers
and prints the per-layer metrics.  Every output is checked exactly, outside the timed
region.  Every time is reported in reference seconds: wall time corrected
for the host's speed by a probe that runs alongside (``speed.py``).
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("solve_ladder", "coupling_mix", "exact_checks")


class Crash:
    """An operation that raised where no exception was expected."""

    def __init__(self, exc: Exception):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def import_library():
    """Import csd4 from this checkout's src/ only, and the benchmark modules."""
    sys.path.insert(0, str(ROOT / "src"))
    import csd4

    if Path(csd4.__file__).resolve().parent != ROOT / "src" / "csd4":
        raise ImportError(f"csd4 was imported from {csd4.__file__}, not from {ROOT / 'src'}")
    import replay
    import spans
    import workloads

    return replay, spans, workloads


@dataclass
class Pass:
    """Wall stamps of one pass and of each of its operations."""
    start: float
    end: float
    ops: list  # (start, end) of each operation

    def seconds(self, clock) -> float:
        return clock.span(self.start, self.end)

    def latencies(self, clock) -> list:
        return [clock.span(a, b) for a, b in self.ops]


def one_pass(ops, tr, tag):
    """Run every operation once; returns (Pass, outputs)."""
    stamps, outputs = [], []
    gc.collect()  # every pass starts from the same collector state
    start = time.perf_counter()
    for i, op in enumerate(ops):
        tr.request = f"{tag}{i}"
        t0 = time.perf_counter()
        try:
            out = tr.call(f"op.{op.kind}", op.run, tr)
        except Exception as exc:  # the oracle counts it as a failure
            out = Crash(exc)
        stamps.append((t0, time.perf_counter()))
        outputs.append(out)
    return Pass(start, time.perf_counter(), stamps), outputs


def check_pass(ops, outputs) -> list:
    """Failure messages for one pass; runs outside the timed region."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Crash):
            reason = f"raised {out.text}"
        else:
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"oracle raised {Crash(exc).text}"
        if reason:
            failures.append(f"{op.label}: {reason}")
    return failures


def commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "csd4").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def hd_quantile(values, p, grid=20000):
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of every order statistic.  Unlike a single order
    statistic it does not jump when the quantile falls in a gap between
    clusters of operation latencies."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p - 1, (n + 1) * (1 - p) - 1  # exponents of the density
    ts = [(j + 0.5) / grid for j in range(grid)]
    logs = [a * math.log(t) + b * math.log1p(-t) for t in ts]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * xs[int(t * n)] for t, w in zip(ts, weights)) / sum(weights)


def samples_by_label(passes, labels) -> dict:
    """Operation label -> its latencies over the passes and its repeats."""
    samples: dict = {}
    for latencies in passes:
        for label, x in zip(labels, latencies):
            samples.setdefault(label, []).append(x)
    return samples


def end_to_end(setup_s, samples, labels) -> dict:
    """An operation's latency is the median of all its samples in the run,
    which keeps a slow spell of the machine during one pass out of every
    figure."""
    per_op = [statistics.median(samples[label]) for label in labels]
    run_s = sum(per_op)
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (len(per_op) / run_s, "1/s"),
        "op_p50_ms": (1e3 * hd_quantile(per_op, 0.5), "ms"),
        "op_p90_ms": (1e3 * hd_quantile(per_op, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    clock = speed.SpeedClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock) -> int:
    try:
        replay, spans, workloads = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import csd4: {exc}", file=sys.stderr)
        return 2
    imported = time.perf_counter()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tr = spans.Tracer(bool(args.trace))
    plain = spans.Tracer(False)
    setups = []
    for i in range(SETUP_REPEATS):
        tracer = tr if i == SETUP_REPEATS - 1 else plain  # spans of one set-up
        tracer.request = f"setup{i}"
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(tracer)
        setups.append((t0, time.perf_counter()))
    ops = wl.ops()
    runs = [op for op in ops for _ in range(op.repeats)]  # one pass, in order

    passes, failures = [], []

    def timed_pass(tracer, tag):
        """(Pass, outputs); outputs are dropped unless traced."""
        stamps, outputs = one_pass(runs, tracer, tag)
        failures.extend(check_pass(runs, outputs))
        return stamps, outputs if tracer.enabled else None

    if args.trace:
        # A first pass warms the allocator and any lazy state; the traced
        # pass is then compared with the untraced pass just before it.
        passes.append(timed_pass(plain, "warm.")[0])
        passes.append(timed_pass(plain, "p1.")[0])
        traced, outputs = timed_pass(tr, "traced.")
        replayed = replay.replay_layers(tr, outputs)
    else:
        wall = 0.0
        while True:
            passes.append(timed_pass(plain, f"p{len(passes)}.")[0])
            last = passes[-1].end - passes[-1].start
            wall += last
            if wall + last > args.seconds:
                break
    clock.stop()  # every stamp is taken; from here on, they are mapped
    attempted = len(runs) * (len(passes) + args.trace)
    import_s = clock.span(PROCESS_START, imported)
    setup_times = [clock.span(a, b) for a, b in setups]
    pass_s = [p.seconds(clock) for p in passes]

    if args.trace:
        tr.retime(clock.ref)
        metrics = replay.layer_metrics(tr, outputs, replayed, pass_s[-1],
                                       traced.seconds(clock))
        attempted += replayed.probes
        failures += [f"probe {p}: verdict false" for p in replayed.failed]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tr.write(spans_path)
        print(f"spans: {len(tr.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        setup_s = import_s + statistics.median(setup_times)
        samples = samples_by_label([p.latencies(clock) for p in passes],
                                   [op.label for op in runs])
        metrics = end_to_end(setup_s, samples, [op.label for op in ops])
        if args.workload == "solve_ladder":
            for label, xs in sorted(samples.items(), key=lambda kv: min(kv[1])):
                print(f"rung {label}: median {statistics.median(xs):.3f} s over {len(xs)}")

    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_digest": wl.inputs_digest(), "commit": commit(),
        "source_digest": source_digest(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "pass_s": [round(t, 4) for t in pass_s],
        "op_samples": attempted, "fail_frac": len(failures) / attempted,
        "import_s": round(import_s, 4), "setup_runs_s": [round(t, 4) for t in setup_times],
        "wall_s": round(time.perf_counter() - PROCESS_START, 3), "speed": clock.summary(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

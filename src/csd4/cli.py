"""Command-line interface.

Subcommands: compute, verify, genfun, qcheck, dims, recur.  All output is
deterministic for a fixed invocation (including the seed); JSON keys are
sorted.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 pole/resonance.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import checks, genfun, qspace, recurrence, rootsystem, solver
from .errors import PoleAtKappa, Report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_POLE = 3


def _parse_m(text: str):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad quantum numbers {text!r}")
    try:
        return rootsystem.check_dominant(parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"quantum numbers must be four nonnegative integers, got {text!r}"
        ) from None


# argparse reads an argument starting with "-" as an option unless it looks
# like -1 or -0.5; a coupling may also be written -p/q or -1e0.
_NEGATIVE_NUMBER = re.compile(r"^-\d+/\d+$|^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _parse_coupling(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad coupling value {text!r}")


def _parse_kappa(text: str):
    return None if text == "symbolic" else _parse_coupling(text)


def _bounded(convert, low=None, strict=False):
    """An argparse type: ``convert(text)``, finite as a float, and at least
    ``low`` (above it if strict) unless ``low`` is None."""
    def parse(text: str):
        value = convert(text)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # a number beyond the float range
            finite = False
        if not finite:
            raise argparse.ArgumentTypeError(f"must be finite as a float, got {text!r}")
        if low is not None and not (value > low if strict else value >= low):
            bound = f"{'>' if strict else '>='} {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


# A smaller step cannot move a torus angle of order 1.
_STEP = _bounded(float, sys.float_info.epsilon, strict=True)


def _emit(obj, text=None) -> int:
    """Print ``obj`` as JSON, or in its place the strings of the iterable
    ``text`` and a newline (``--format text``).

    The one verdict-to-exit-code rule: exit 1 exactly when ``obj`` says
    ``"ok": false``.
    """
    if text is None:
        # Streamed: the indented text of a large solve is never held whole.
        json.dump(obj, sys.stdout, sort_keys=True, indent=2, allow_nan=False)
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(text)  # a polynomial's terms, never joined whole
        sys.stdout.write("\n")
    return EXIT_VERIFY_FAILED if obj.get("ok") is False else EXIT_OK


# ----------------------------------------------------------------------
# subcommands


def cmd_compute(args) -> int:
    if args.kappa is None:
        p = solver.solve(args.m)
        if args.format == "text":
            return _emit({}, p.polynomial.str_parts())
        return _emit({**p.to_fixture_obj(), "kappa": "symbolic"})
    poly = solver.solve_at(args.m, args.kappa)
    if args.format == "text":
        return _emit({}, poly.str_parts())
    return _emit({"m": list(args.m), "kappa": str(args.kappa),
                  "terms": poly.to_json_obj()})


def cmd_dims(args) -> int:
    dim = rootsystem.weyl_dimension(args.m)
    obj = {"m": list(args.m), "dim": dim}
    return _emit(obj, [str(dim)] if args.format == "text" else None)


def cmd_recur(args) -> int:
    return _emit(recurrence.expand_product(args.v, args.m).to_json_obj())


def cmd_genfun(args) -> int:
    obj = {"label": args.label, "order": args.order, "mode": args.check or "expand"}
    if args.check is None:
        series = genfun.expand(args.label, args.order)
        obj["coefficients"] = [{"coefficient": m, "terms": coeff.to_json_obj()}
                               for m, coeff in enumerate(series.coeffs)]
        return _emit(obj)
    if args.check == "series":
        verdicts = genfun.series_check(args.label, args.order)
    else:
        residual = genfun.pde_residual(args.label, args.order)
        verdicts = [(m, coeff.is_zero()) for m, coeff in enumerate(residual.coeffs)]
    obj["checks"] = [{"coefficient": m, "ok": ok} for m, ok in verdicts]
    obj["ok"] = all(row["ok"] for row in obj["checks"])
    return _emit(obj)


def cmd_qcheck(args) -> int:
    points = qspace.generic_points(args.seed, args.samples)
    results, worst, signs = qspace.scan_residuals(args.m, args.kappa, points, args.step)
    if not math.isfinite(worst):  # the floats overflowed: nothing was checked
        raise OverflowError("non-finite torus residual")
    rows = [{"q": list(q), "residual": r.residual, "sign": r.sign}
            for q, r in zip(points, results)]
    return _emit({
        "m": list(args.m),
        "kappa": str(args.kappa),
        "step": args.step,
        "seed": args.seed,
        "points": rows,
        "max_residual": worst,
        "consistent_sign": len(signs) == 1,
        "ok": worst < args.tolerance and len(signs) == 1,
    })


def cmd_verify(args) -> int:
    names = checks.SUITES if args.suite == "all" else (args.suite,)
    report = Report([c for name in names for c in checks.SUITES[name](args)])
    return _emit({
        "suite": args.suite,
        "checks": [c.to_json_obj() for c in report.records],
        "passed": sum(c.ok for c in report.records),
        "total": len(report.records),
        "ok": report.ok,
    })


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="csd4",
        description=(
            "Exact eigenpolynomials of the trigonometric Calogero-Sutherland "
            "model for D4 in fundamental-character variables."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="output format (default json)")

    p = sub.add_parser("compute", help="solve one eigenpolynomial")
    p.add_argument("--m", type=_parse_m, required=True,
                   help="quantum numbers, e.g. 2,0,0,0")
    p.add_argument("--kappa", type=_parse_kappa, default=None,
                   help='"symbolic" (default) or a rational like 1 or 7/10')
    p._negative_number_matcher = _NEGATIVE_NUMBER
    add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("dims", help="Weyl dimension of an irreducible module")
    p.add_argument("--m", type=_parse_m, required=True)
    add_common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("recur", help="expand z_v * P_m in the eigenbasis")
    p.add_argument("--v", type=int, choices=(1, 2, 3, 4), required=True,
                   help="index of the multiplying character")
    p.add_argument("--m", type=_parse_m, required=True,
                   help="base quantum numbers, e.g. 1,0,0,0")
    p.set_defaults(func=cmd_recur)

    p = sub.add_parser("genfun", help="generating-function expansion and checks")
    p.add_argument("--label", choices=genfun.LABELS, required=True,
                   help="which generating function")
    p.add_argument("--order", type=_bounded(int, 0), default=6,
                   help="truncation order in t (default 6)")
    p.add_argument("--check", choices=("series", "pde"), default=None,
                   help="compare against the solver, or test the defining "
                        "differential equation; omit to print coefficients")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("qcheck", help="finite-difference residuals on the torus")
    p.add_argument("--m", type=_parse_m, required=True,
                   help="quantum numbers of the eigenfunction")
    p.add_argument("--kappa", type=_bounded(_parse_coupling), default=Fraction(1),
                   help="rational coupling value (default 1)")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("--samples", type=_bounded(int, 1), default=5,
                   help="number of generic torus points (default 5)")
    p.add_argument("--step", type=_STEP, default=1e-4,
                   help="finite-difference step (default 1e-4)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the point sampler (default 0)")
    p.add_argument("--tolerance", type=_bounded(float, 0, strict=True), default=1e-6,
                   help="pass threshold on the relative residual")
    p.set_defaults(func=cmd_qcheck)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*checks.SUITES, "all"), default="all",
                   help="which suite to run (default all)")
    p.add_argument("--max-m", type=_bounded(int, 1), default=3, dest="max_m",
                   help="largest row index for the recurrence families")
    p.add_argument("--order", type=_bounded(int, 0), default=6,
                   help="series truncation order for the genfun suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled points and random weights")
    p.add_argument("--step", type=_STEP, default=1e-4,
                   help="finite-difference step for the qcheck suite")
    p.add_argument("--tolerance", type=_bounded(float, 0, strict=True), default=1e-6,
                   help="residual threshold for the qcheck suite")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    step, tolerance = getattr(args, "step", 1), getattr(args, "tolerance", 1)
    if step * step * tolerance <= sys.float_info.epsilon:
        ap.error(f"--step {step} is too small for --tolerance {tolerance}: the "
                 "rounding error eps/step^2 of the second difference exceeds it")
    if getattr(args, "check", None) == "pde" and args.label not in ("F0", "F1"):
        ap.error(f"the pde check is defined for F0/F1 only, not {args.label}")
    try:
        return args.func(args)
    except PoleAtKappa as exc:
        print(f"pole/resonance: {exc}", file=sys.stderr)
        return EXIT_POLE
    except OverflowError:
        if args.command != "qcheck":  # the one command that floats a coupling
            raise
        ap.error(f"--kappa {float(args.kappa):g} is too large for the floating-point "
                 "torus check")


if __name__ == "__main__":
    sys.exit(main())

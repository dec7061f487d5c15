"""Command-line behavior: outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import csd4
from csd4 import fixtures, genfun
from csd4.cli import _MAX_ORDER, _MAX_SAMPLES, _parse_coupling, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_module(*argv):
    """``python -m csd4 argv`` in a child, which finds the package where this
    process did (it need not be installed)."""
    src = str(Path(csd4.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "csd4", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_compute_symbolic(capsys):
    code, out = run(capsys, "compute", "--m", "2,0,0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == [2, 0, 0, 0]
    assert obj["kappa"] == "symbolic"
    assert obj["epsilon"] == {"num": "24*k + 8", "den": "1"}
    coeffs = {tuple(c["mu"]): (c["num"], c["den"]) for c in obj["coeffs"]}
    assert coeffs[(0, 0, 0, 0)] == ("1", "1")
    assert coeffs[(1, 0, 0, 0)] == ("-2", "k + 1")
    assert coeffs[(2, 2, 1, 1)] == ("-8*k", "3*k^2 + 4*k + 1")


def test_compute_specialized(capsys):
    code, out = run(capsys, "compute", "--m", "1,1,0,0", "--kappa", "1")
    assert code == 0
    obj = json.loads(out)
    terms = {tuple(t["exponents"]): t["num"] for t in obj["terms"]}
    assert terms == {(1, 1, 0, 0): "1", (0, 0, 1, 1): "-1"}


# Each run is named by what follows "--kappa" in the compute command below,
# or by its whole command line.
_COMPUTE = "compute --m 2,1,0,1 --kappa "


@pytest.mark.parametrize("argv, digest", [
    (_COMPUTE + "symbolic",
     "72fd432558aef5efd86cd89e52909ec2552186f1d182378d7c318a2f970997e9"),
    (_COMPUTE + "7/10",
     "724304dca43be5b01931743aefd2cbbfe03045b16e5c5d9bc5c8b11217aaffe3"),
    (_COMPUTE + "symbolic --format text",
     "88b690c7589b3361eaff16c1978d078d4a6a7e2f77c875f05d4b0676219aa534"),
    (_COMPUTE + "7/10 --format text",
     "503776eaf2033b30bb99088d036f4ee6e2e26c38d2d1a478c3e45284fc27a402"),
    ("dims --m 2,1,0,1 --format text",
     "58bdc6c4a0bea735ff8ad568e11f15d2b2b3e6231aeb83573822986df99f4966"),
], ids=lambda v: v.removeprefix(_COMPUTE) if " " in v else None)
def test_compute_stdout_bytes(capsys, argv, digest):
    # The exact text, as json.dumps(sort_keys=True, indent=2) renders it,
    # whether it is written whole or streamed, or as --format text prints it.
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compute_trivial(capsys):
    code, out = run(capsys, "compute", "--m", "0,0,0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"] == [{"mu": [0, 0, 0, 0], "num": "1", "den": "1"}]


def test_dims(capsys):
    code, out = run(capsys, "dims", "--m", "0,1,0,0")
    assert code == 0
    assert json.loads(out) == {"dim": 28, "m": [0, 1, 0, 0]}


def test_recur(capsys):
    code, out = run(capsys, "recur", "--v", "1", "--m", "0,0,0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"mp": [1, 0, 0, 0], "num": "1", "den": "1"}]


def test_genfun_expand(capsys):
    code, out = run(capsys, "genfun", "--label", "F1", "--order", "2")
    assert code == 0
    obj = json.loads(out)
    coeffs = obj["coefficients"]
    assert [c["coefficient"] for c in coeffs] == [0, 1, 2]
    t2 = {tuple(t["exponents"]): t["num"] for t in coeffs[2]["terms"]}
    assert t2 == {(2, 0, 0, 0): "1", (0, 1, 0, 0): "-1", (0, 0, 0, 0): "-1"}


def test_genfun_checks(capsys):
    code, out = run(capsys, "genfun", "--label", "G1", "--order", "4", "--check", "series")
    assert code == 0 and json.loads(out)["ok"]
    code, out = run(capsys, "genfun", "--label", "F0", "--order", "4", "--check", "pde")
    assert code == 0 and json.loads(out)["ok"]


def test_genfun_failed_check_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(genfun, "series_check", lambda label, order: [(0, True), (1, False)])
    code, out = run(capsys, "genfun", "--label", "F0", "--order", "1", "--check", "series")
    obj = json.loads(out)
    assert code == 1 and obj["ok"] is False
    assert obj["checks"] == [{"coefficient": 0, "ok": True}, {"coefficient": 1, "ok": False}]


def test_qcheck(capsys):
    code, out = run(
        capsys, "qcheck", "--m", "1,0,0,0", "--kappa", "1", "--samples", "3",
        "--seed", "1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["max_residual"] < 1e-6 and obj["consistent_sign"]


def test_qcheck_deterministic(capsys):
    args = ("qcheck", "--m", "0,1,0,0", "--kappa", "7/10", "--samples", "2", "--seed", "9")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_verify_golden(capsys):
    code, out = run(capsys, "verify", "--suite", "golden")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] == obj["total"] == 36


def test_verify_ladder(capsys):
    code, out = run(capsys, "verify", "--suite", "ladder")
    assert code == 0
    assert json.loads(out)["ok"]


def test_verify_recur(capsys):
    code, out = run(capsys, "verify", "--suite", "recur")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["total"] > 40


def test_verify_eigen(capsys):
    code, out = run(capsys, "verify", "--suite", "eigen")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["total"] == 45


def test_verify_special_reports_discrepancy(capsys):
    # The odd-n factorized identity cannot hold (symmetric vs antisymmetric);
    # the suite reports it as a failure rather than patching it.
    code, out = run(capsys, "verify", "--suite", "special")
    obj = json.loads(out)
    by_name = {c["name"]: c for c in obj["checks"]}
    assert not by_name["special identity n=1"]["ok"]
    assert by_name["special identity n=2"]["ok"]
    assert code == 1


def test_verify_all_record_set(capsys):
    # Every record of the default run, recorded suite by suite; the float
    # values are left out, the keys each record carries are not.
    with open(Path(__file__).with_name("verify_all_records.json")) as fh:
        want = json.load(fh)
    assert {suite: len(records) for suite, records in want.items()} == {
        "golden": 36, "eigen": 45, "recur": 193, "ladder": 8, "genfun": 34,
        "qcheck": 7, "special": 2,
    }
    code, out = run(capsys, "verify", "--suite", "all")
    got = [[c["name"], c["ok"], sorted(c)] for c in json.loads(out)["checks"]]
    assert got == [record for records in want.values() for record in records]
    assert [name for name, ok, _ in got if not ok] == ["special identity n=1"]
    assert code == 1


def _zero_den(corpus):
    corpus["monomials"][-1]["terms"][0]["den"] = "0"


def _float_m(corpus):
    corpus["monomials"][-1]["m"] = [1.5, 0, 0, 0]


def _no_terms(corpus):
    del corpus["characters"][0]["terms"]


def _no_coeffs(corpus):
    del corpus["polynomials"][-1]["coeffs"]


def _null_terms(corpus):
    corpus["characters"][0]["terms"] = None


def _not_a_list(corpus):
    corpus["monomials"] = {}


@pytest.mark.parametrize("spoil, error", [
    pytest.param(_zero_den, "ValueError: bad 'num' or 'den' in 'exponents' coefficient row",
                 id="zero-den"),
    pytest.param(_float_m, "ValueError: bad weight (1.5, 0, 0, 0)", id="float-m"),
    pytest.param(_no_terms, "ValueError: fixture entry without 'terms'", id="no-terms"),
    pytest.param(_no_coeffs, "ValueError: fixture entry without 'coeffs'", id="no-coeffs"),
    pytest.param(_null_terms, "ValueError: 'exponents' rows are a NoneType, not a list",
                 id="null-terms"),
    pytest.param(_not_a_list, "ValueError: monomials.json does not hold a list",
                 id="top-level-object"),
    pytest.param(None, "FileNotFoundError: ", id="missing"),
])
def test_verify_reports_an_unreadable_corpus(spoil, error, tmp_path, monkeypatch, capsys):
    # A corpus that cannot be read is one failed golden record naming the
    # error, read before anything is solved; the other six suites still run.
    # A missing key or a file that is not a list is such an error too, not
    # a KeyError or TypeError that stops the run.  With no spoil, the
    # directory is missing.
    if spoil:
        corpus = fixtures.load_golden()
        spoil(corpus)
        for name, entries in corpus.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(entries), encoding="utf-8")
        monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    else:
        monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path / "missing"))
    with open(Path(__file__).with_name("verify_all_records.json")) as fh:
        want = json.load(fh)
    code, out = run(capsys, "verify", "--suite", "all")
    assert code == 1
    first, *rest = json.loads(out)["checks"]
    assert first["name"] == "golden corpus" and not first["ok"]
    assert first["error"].startswith(error)
    assert [[c["name"], c["ok"], sorted(c)] for c in rest] == [
        record for suite, records in want.items() if suite != "golden" for record in records]


@pytest.mark.parametrize("argv", [
    ["compute", "--m", "1,2"],
    ["compute", "--m", "1,x,0,0"],
    ["genfun", "--label", "F0", "--order", "-1"],
    ["genfun", "--label", "G0", "--check", "pde"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1/0"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "symbolic"],
    ["qcheck", "--m", "1,0,0,0", "--samples", "0"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1e400"],
    # a numerator or denominator past the digits int() parses, in any notation
    ["compute", "--m", "2,2,2,2", "--kappa", "1e4300"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1e-4300"],
    # an exponent alone past twice that: refused before its power of ten
    ["compute", "--m", "1,0,0,0", "--kappa", "1e10000000"],
    ["compute", "--m", "1,0,0,0", "--kappa", "1E+10000000"],
    ["compute", "--m", "1,0,0,0", "--kappa", "-1e-10000000"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1e10000000"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1E+10000000"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "-1e-10000000"],
    # finite as a float, but the eigenvalue at this coupling is not
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1e308", "--samples", "1"],
    # the eigenvalue is finite, but the torus arithmetic overflows to NaN
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1e307", "--samples", "1"],
    # verify runs one fixed configuration, and qcheck one numerical method
    # (qspace.STEP and qspace.TOLERANCE): a tuning option, even at the value
    # used, is unknown
    ["verify", "--suite", "recur", "--max-m", "3"],
    ["verify", "--suite", "genfun", "--order", "6"],
    ["verify", "--suite", "eigen", "--seed", "0"],
    ["verify", "--suite", "qcheck", "--step", "1e-4"],
    ["verify", "--suite", "qcheck", "--tolerance", "1e-6"],
    ["qcheck", "--m", "1,0,0,0", "--step", "1e-4"],
    ["qcheck", "--m", "1,0,0,0", "--tolerance", "1e-6"],
], ids=[
    "compute-short-m", "compute-non-integer-m", "genfun-order", "genfun-pde-label",
    "qcheck-kappa-pole", "qcheck-kappa-symbolic", "qcheck-samples",
    "qcheck-kappa-overflow", "compute-kappa-digits", "qcheck-kappa-digits",
    "compute-kappa-exponent", "compute-kappa-exponent-plus", "compute-kappa-exponent-minus",
    "qcheck-kappa-exponent", "qcheck-kappa-exponent-plus", "qcheck-kappa-exponent-minus",
    "qcheck-energy-overflow", "qcheck-residual-overflow",
    "verify-no-max-m", "verify-no-order", "verify-no-seed", "verify-no-step",
    "verify-no-tolerance", "qcheck-no-step", "qcheck-no-tolerance",
])
def test_usage_error_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "usage: csd4" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bound", [
    (["qcheck", "--m", "1,0,0,0", "--samples"], _MAX_SAMPLES),
    (["genfun", "--label", "F0", "--order"], _MAX_ORDER),
], ids=["samples", "order"])
def test_upper_bounds_are_named(argv, bound, capsys):
    # The bound itself parses; one more is a usage error that names it,
    # through main (the console script's entry point) and python -m csd4.
    assert build_parser().parse_args([*argv, str(bound)]) is not None
    with pytest.raises(SystemExit) as err:
        main([*argv, str(bound + 1)])
    assert err.value.code == 2
    assert f"must be <= {bound}, got '{bound + 1}'" in capsys.readouterr().err
    result = run_module(*argv, "1000000000")
    assert result.returncode == 2 and not result.stdout
    assert f"must be <= {bound}, got '1000000000'" in result.stderr


def test_coupling_digit_limit():
    # 4,300 digits is the most a coupling's numerator or denominator may
    # have (the parse alone: no solve at such a coupling runs here).
    assert _parse_coupling("1e4299") == 10**4299
    assert _parse_coupling("-1e-4299") == Fraction(-1, 10**4299)
    assert _parse_coupling("9" * 4300 + "/7") == Fraction(10**4300 - 1, 7)
    # An exponent is refused past twice the limit before it is applied; the
    # values with the largest exponents under the limit stay accepted: 4,300
    # decimal digits bring 10^8599 down to 10^4299, and 4,300 integer digits
    # bring 10^-8598 up to 1/10^4299.
    assert _parse_coupling("0." + "0" * 4299 + "1e8599") == 10**4299
    assert _parse_coupling("1" + "0" * 4299 + "e-8598") == Fraction(1, 10**4299)
    for text in ["0." + "0" * 4299 + "1e8601", "1" + "0" * 4299 + "e-8601", "0e8601"]:
        with pytest.raises(argparse.ArgumentTypeError, match="more than 4300 digits"):
            _parse_coupling(text)


def test_pole_exit_code(capsys):
    code = main(["compute", "--m", "2,0,0,0", "--kappa=-1/3"])
    assert code == 3
    err = capsys.readouterr().err
    assert "pole" in err
    # the same coupling written with a space is a value, not an option
    assert main(["compute", "--m", "2,0,0,0", "--kappa", "-1/3"]) == 3
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", [
    ["compute", "--m", "1,0,0,0", "--kappa", "-1/2"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "-7/10", "--samples", "1"],
    ["compute", "--m", "1,0,0,0", "--kappa", "-1e0"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "-7E-1", "--samples", "1"],
], ids=["compute", "qcheck", "compute-exponent", "qcheck-exponent"])
def test_negative_coupling_with_space(argv, capsys):
    i = argv.index("--kappa")
    joined = [*argv[:i], f"--kappa={argv[i + 1]}", *argv[i + 2:]]
    assert run(capsys, *argv) == run(capsys, *joined)
    assert run(capsys, *argv)[0] == 0


def test_console_script_entry_point():
    result = run_module("dims", "--m", "1,0,0,0")
    assert result.returncode == 0
    assert json.loads(result.stdout)["dim"] == 8


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_beyond_the_int_to_str_digit_limit(fmt, capsys):
    # At this coupling some exact coefficients have more digits than
    # Python's default int-to-str limit (4,300 from 3.10.7 on); main lifts the
    # limit while the command runs and restores it on return.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, "compute", "--m", "2,2,2,2", "--kappa", "1e400", "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["kappa"] == "1" + "0" * 400
    assert max(len(s) for s in re.findall(r"\d+", out)) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_json_keys_sorted(capsys):
    _, out = run(capsys, "compute", "--m", "1,0,1,0")
    obj = json.loads(out)
    assert list(obj) == sorted(obj)


def test_readme_library_example_prints_its_comments(capsys):
    # Each print in the README's library example is followed by the line it
    # writes, as a comment.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(want) == 4
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want


def test_readme_text_format_examples(capsys):
    # The --format text lines the README quotes.
    assert run(capsys, "compute", "--m", "1,1,0,0", "--kappa", "1", "--format", "text") == (
        0, "(1)*z1*z2 + (-1)*z3*z4\n")
    assert run(capsys, "dims", "--m", "0,1,0,0", "--format", "text") == (0, "28\n")

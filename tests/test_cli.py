"""Command-line behavior: outputs, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from csd4.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
    code, out = run(capsys, "verify", "--suite", "recur", "--max-m", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["total"] > 40


def test_verify_eigen(capsys):
    code, out = run(capsys, "verify", "--suite", "eigen", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["total"] == 45


def test_verify_special_reports_discrepancy(capsys):
    # The odd-n factorized identity cannot hold (symmetric vs antisymmetric);
    # the suite reports it as a failure rather than patching it.
    code, out = run(capsys, "verify", "--suite", "special", "--seed", "0")
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


@pytest.mark.parametrize("argv", [
    ["compute", "--m", "1,2"],
    ["compute", "--m", "1,x,0,0"],
    ["genfun", "--label", "F0", "--order", "-1"],
    ["genfun", "--label", "G0", "--check", "pde"],
    ["verify", "--suite", "recur", "--max-m", "0"],
    ["verify", "--suite", "genfun", "--order", "-3"],
    ["verify", "--suite", "qcheck", "--step", "0"],
    ["qcheck", "--m", "1,0,0,0", "--step", "0"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1/0"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "symbolic"],
    ["qcheck", "--m", "1,0,0,0", "--samples", "0"],
    ["qcheck", "--m", "1,0,0,0", "--tolerance", "-1"],
    ["qcheck", "--m", "1,0,0,0", "--tolerance", "0"],
    ["qcheck", "--m", "1,0,0,0", "--tolerance", "nan"],
    ["qcheck", "--m", "1,0,0,0", "--tolerance", "inf"],
    ["verify", "--suite", "qcheck", "--tolerance", "-1"],
    ["verify", "--suite", "qcheck", "--tolerance", "nan"],
    ["verify", "--suite", "qcheck", "--tolerance", "inf"],
    ["qcheck", "--m", "1,0,0,0", "--step", "inf", "--samples", "1"],
    ["verify", "--suite", "qcheck", "--step", "inf"],
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1e400"],
    # finite as a float, but the eigenvalue at this coupling is not
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1e308", "--samples", "1"],
    # the eigenvalue is finite, but the torus arithmetic overflows to NaN
    ["qcheck", "--m", "1,0,0,0", "--kappa", "1e307", "--samples", "1"],
    # a step at or below machine epsilon cannot move a torus angle of order 1
    ["qcheck", "--m", "1,0,0,0", "--step", "1e-200", "--samples", "1"],
    ["verify", "--suite", "qcheck", "--step", "1e-200"],
    ["qcheck", "--m", "1,0,0,0", "--step", "1e-17"],
    # the second difference's rounding error eps/step^2 must stay below the
    # tolerance
    ["qcheck", "--m", "1,0,0,0", "--step", "1e-15", "--samples", "1"],
    ["verify", "--suite", "qcheck", "--step", "1e-15"],
    ["qcheck", "--m", "1,0,0,0", "--step", "1e-6", "--tolerance", "1e-6"],
], ids=[
    "compute-short-m", "compute-non-integer-m", "genfun-order", "genfun-pde-label",
    "verify-max-m", "verify-order",
    "verify-step", "qcheck-step", "qcheck-kappa-pole", "qcheck-kappa-symbolic",
    "qcheck-samples", "qcheck-tolerance-negative", "qcheck-tolerance-zero",
    "qcheck-tolerance-nan", "qcheck-tolerance-inf", "verify-tolerance-negative",
    "verify-tolerance-nan", "verify-tolerance-inf", "qcheck-step-inf",
    "verify-step-inf", "qcheck-kappa-overflow", "qcheck-energy-overflow",
    "qcheck-residual-overflow",
    "qcheck-step-underflow", "verify-step-underflow", "qcheck-step-below-epsilon",
    "qcheck-step-rounding", "verify-step-rounding", "qcheck-step-for-tolerance",
])
def test_usage_error_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "usage: csd4" in capsys.readouterr().err


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
    result = subprocess.run(
        [sys.executable, "-m", "csd4.cli", "dims", "--m", "1,0,0,0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dim"] == 8


def test_json_keys_sorted(capsys):
    _, out = run(capsys, "compute", "--m", "1,0,1,0")
    obj = json.loads(out)
    assert list(obj) == sorted(obj)

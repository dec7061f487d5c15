"""The benchmark's own tests, run as part of the library's suite.

``perfbench`` pins library names (the four fields of ``CSPolynomial``,
``recurrence.Report``, ``hamiltonian.apply_to_monomial``, ``kappa.poly_mul``
and more), so a refactor that breaks one of them fails here, not only when
the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr

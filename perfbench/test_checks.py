"""The benchmark's correctness gate bites: each workload's checker, fed a
corrupted result, makes the op count as failed.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cli_workload  # noqa: E402
import workloads  # noqa: E402
from arrowlab.spectral import Poly  # noqa: E402
from worker import _summary, run_verified  # noqa: E402


def _failures(result, check):
    """Failed-op count when `result` goes through the benchmark's op path."""
    return len(_summary([run_verified(lambda: result, check)], None)["failures"])


def _off_by_one_ulp(res):
    got, want = res["bernoulli"][-1]
    cs = list(got.coeffs)
    cs[0] = Fraction(cs[0].numerator + 1, cs[0].denominator)
    res["bernoulli"][-1] = (Poly(cs), want)


def _shift_one_point(res):
    res["p_quadrature"] = res["p_quadrature"].copy()
    res["p_quadrature"][200] += 2e-3


def _dip(res):
    res["entropies"][-1] = res["entropies"][-2] - 1e-9


@pytest.mark.parametrize("name, corrupt", [
    ("baker-second-law", _dip),
    ("friedrichs-two-path", _shift_one_point),
    ("exact-algebra", _off_by_one_ulp),
])
def test_corrupted_result_is_a_failed_op(name, corrupt):
    make, check = workloads.IN_PROCESS[name]
    res = make(np.random.default_rng(0)).op()
    assert _failures(res, check) == 0
    corrupt(res)
    assert _failures(res, check) == 1


def test_cli_nonzero_exit_is_a_failed_op(tmp_path):
    cmds = cli_workload.cycle(0, tmp_path / "config.txt")
    name, argv, artifacts = cmds[cli_workload.NAMES.index("boost")]
    proc = subprocess.run([sys.executable, "-m", "arrowlab.cli", *argv], capture_output=True,
                          text=True, env={"PYTHONPATH": str(ROOT / "src")})
    assert cli_workload.check_cli(name, proc.returncode, proc.stdout, tmp_path, artifacts) == []
    assert cli_workload.check_cli(name, 2, proc.stdout, tmp_path, artifacts) != []

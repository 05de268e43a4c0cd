"""Self-checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Two traced runs with one seed must record identical work counts; a
different seed must give different inputs; a typed failure must count as a
wrong answer wherever the reference has an answer, and so must a repeat that
does not reproduce the first answer; the benchmark must refuse a forced
precision mode and a checkout without the library source.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

WORK_COUNTS = (
    "kummer.evals",
    "kummer.terms_per_eval",
    "kummer.flagged_frac",
    "ball_spectrum.secular_calls",
    "ball_spectrum.scan_f_evals",
    "ball_spectrum.brent_calls",
    "jab_solver.solves",
    "jab_solver.F_evals",
    "jab_solver.cold_scans",
    "jab_solver.hint_hit_ratio",
    "measure.phi_volume_calls",
    "measure.phi_inverse_calls",
    "fd_oracle.calls",
)


def bench(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
        check=False,
    )


def traced_counts(workload: str, seed: int, ops: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=1)
    result = run.run(args, max_ops=ops)
    assert result["correct"] and result["attempted"] == ops
    return {k: result["metrics"][k]["value"] for k in WORK_COUNTS}


@pytest.mark.parametrize("workload,ops", [("eig_large_r", 6), ("sweep_slice", 1)])
def test_traced_work_counts_repeat_exactly(workload, ops):
    first = traced_counts(workload, 7, ops)
    assert first == traced_counts(workload, 7, ops)
    busy = "jab_solver.F_evals" if workload == "sweep_slice" else "kummer.evals"
    assert first[busy] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(workload):
    def inputs(seed):
        return WORKLOADS[workload](seed, ROOT).ops

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
    assert len(inputs(3)) == len(set(inputs(3)))


def judge(workload: str, op: Op, error: str | None, answer=None,
          unsteady: bool = False) -> dict:
    """Verify one outcome: a typed error, or an answer."""
    outcome = {"op": op, "answer": answer, "error": error, "samples": [1.0],
               "ok": False, "unsteady": unsteady}
    run.verify(run.load_library(), WORKLOADS[workload](1, ROOT), [outcome])
    return outcome


def test_typed_failure_is_wrong_where_the_reference_answers():
    sweep_row = WORKLOADS["sweep_slice"](1, ROOT).ops[0]
    assert judge("sweep_slice", sweep_row, "NoRootFound")["wrong"]
    assert judge("sweep_slice", sweep_row, "NonConvergent")["wrong"]
    assert judge("eig_large_r", Op(n=3, l=1, R=6.0), "NoRootFound")["wrong"]
    # eig_small_r tolerates the known defect only: a root beyond the scan's
    # ceiling (lambda about 6.9e6 at R = 0.002), not one the scan reaches.
    assert judge("eig_small_r", Op(n=3, l=1, R=0.5), "NoRootFound")["wrong"]
    assert judge("eig_small_r", Op(n=3, l=1, R=0.002), "NonConvergent")["wrong"]
    assert not judge("eig_small_r", Op(n=3, l=1, R=0.002), "NoRootFound")["wrong"]


def test_unreproduced_repeat_is_wrong():
    op = Op(n=2, l=0, R=1.0)
    answer = run.load_library().lowest_eigenvalue(2, 0, 1.0).Lambda
    assert not judge("eig_large_r", op, None, answer)["wrong"]
    assert judge("eig_large_r", op, None, answer, unsteady=True)["wrong"]


def test_loop_times_every_operation_and_flags_unreproduced_repeats():
    ops = [Op(n=2, l=0, R=1.0), Op(n=3, l=0, R=1.0)]
    calls = iter(range(10**9))
    outcomes, _ = run.closed_loop(run.load_library(), ops,
                                  lambda op: (op.n, next(calls)), 0.05)
    assert [o["op"] for o in outcomes] == ops
    assert all(len(o["samples"]) > 1 and o["unsteady"] for o in outcomes)
    steady, _ = run.closed_loop(run.load_library(), ops, lambda op: op.n, 0.0)
    assert [len(o["samples"]) for o in steady] == [1, 1]
    assert not any(o["unsteady"] for o in steady)


def test_forced_precision_mode_is_refused():
    env = dict(os.environ, CPLD_PRECISION="double")
    proc = bench("--workload", "eig_large_r", "--seed", "1", "--seconds", "1",
                 env=env)
    assert proc.returncode != 0
    assert "CPLD_PRECISION" in proc.stderr
    assert proc.stdout == ""


def test_checkout_without_library_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "eig_large_r", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

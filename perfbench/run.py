"""The agplate benchmark: one serial, single-process run of one workload.

    python3 perfbench/run.py --workload sweep_slice --seed 1 --seconds 50 --trace 0

Run from the repository root (the library is imported from ``src/``).  A
closed loop with one caller runs the workload's seeded set of operations
once, then cycles through it again until ``--seconds`` have passed (the
operation in flight is finished).  Every answer is checked against an
independent reference outside the timed region.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
set-up time (median of several fresh interpreters), passing operations per
second, median and tail latency of attempted operations, and peak memory.
Each operation's latency is the mean of its repeats.  ``--trace 1`` spends
a quarter of the time on an untraced calibration loop, then runs the set
once more with the per-layer tracer installed and reports per-layer work
counts and time shares plus the tracing overhead.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it give
each metric with its unit, the failure share, the tail percentile with its
sample count, and the environment.  The full result, with the per-binding
call table and (when traced) the spans, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import TraceError, Tracer  # noqa: E402
from workloads import ORACLE_MAX_ITERATIONS, ORACLE_MESH, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 7
CALIBRATION_SHARE = 0.25
TAIL_BEYOND = 10

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import agplate
{warmup}
print(repr(time.perf_counter() - t0))
"""

# Layers that must show work on each workload, and layers that must not.
BUSY = {
    "sweep_slice": ("kummer", "ball_spectrum", "jab_solver", "measure", "constants"),
    "eig_small_r": ("kummer", "ball_spectrum"),
    "eig_large_r": ("kummer", "ball_spectrum"),
}
IDLE = {
    "sweep_slice": (),
    "eig_small_r": ("jab_solver", "measure"),
    "eig_large_r": ("jab_solver", "measure"),
}


class BenchError(Exception):
    """The benchmark cannot run or its guard tripped; no result is printed."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except (BenchError, TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(args, max_ops: int | None = None) -> dict:
    """One benchmark run; ``max_ops`` keeps only the first operations of the set."""
    check_environment()
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    ops = workload.ops[:max_ops]
    env = environment(args)
    setup = [] if args.trace else measure_setup(workload)
    agplate = load_library()
    exec(workload.warmup, {"agplate": agplate})
    if args.trace:
        outcomes, metrics, extra = traced_run(agplate, workload, ops, args.seconds)
    else:
        outcomes, wall = closed_loop(
            agplate, ops, workload.call(agplate), args.seconds
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_calls, oracle_s = verify(agplate, workload, outcomes)
    ok = [o for o in outcomes if o["ok"]]
    failed = len(outcomes) - len(ok)
    if args.trace:
        metrics["fd_oracle.calls"] = (oracle_calls / len(outcomes), "calls/op")
        metrics["fd_oracle.busy_s"] = (oracle_s / len(outcomes), "s/op")
    else:
        if not ok:
            raise BenchError("no operation passed; ok_per_s would read 0")
        # Latency covers every attempted operation: a typed failure counts
        # at the time its caller waited for it (see NOTES.md for why).  On
        # eig_small_r this times the known defect's failure path; the
        # success path shows in ok_per_s and ok_p50_ms.
        typical = [latency(o) for o in outcomes]
        pass_s = sum(typical)
        samples = sorted(t for o in outcomes for t in o["samples"])
        tail_value, tail_pct, beyond = tail(samples)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ok_per_s": (len(ok) / pass_s, "1/s"),
            "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "op_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        extra = {
            "setup_samples_s": setup,
            "wall_s": wall,
            "pass_s": pass_s,
            "passes": len(samples) / len(outcomes),
            "ok_p50_ms": statistics.median(latency(o) for o in ok) * 1e3,
            "tail": {"percentile": tail_pct, "samples": len(samples),
                     "beyond": beyond},
        }
    wrong = sum(1 for o in outcomes if o["wrong"])
    report = {
        "env": env,
        "attempted": len(outcomes),
        "failed": failed,
        "fail_frac": failed / len(outcomes),
        "errors": count_errors(outcomes),
        "wrong": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    print_report(args, report)
    write_report(args, report)
    return {
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": report["metrics"],
    }


# -- environment --------------------------------------------------------------


def check_environment() -> None:
    mode = os.environ.get("CPLD_PRECISION", "")
    if mode not in ("", "auto"):
        raise BenchError(
            f"CPLD_PRECISION={mode!r} swaps the code path being measured; "
            "unset it (or set it to 'auto') to run the benchmark"
        )
    if not (SRC / "agplate" / "__init__.py").is_file():
        raise BenchError(f"library source not found under {SRC}")


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpld_precision": os.environ.get("CPLD_PRECISION", "auto") or "auto",
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "agplate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure_setup(workload) -> list[float]:
    """Import plus warm-up call, each in a fresh interpreter."""
    code = SETUP_CODE.format(src=str(SRC), warmup=workload.warmup)
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up run failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def load_library():
    """Import agplate from this checkout's src/; its modules are attributes."""
    sys.path.insert(0, str(SRC))
    agplate = importlib.import_module("agplate")
    where = Path(agplate.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported agplate from {where}, not from {SRC}")
    return agplate


# -- measurement ----------------------------------------------------------------


def closed_loop(agplate, ops, call, seconds, on_op=None):
    """Run every operation once, then cycle through them until the deadline.

    Returns one outcome per distinct operation, holding the latency of each
    repeat in ``samples``, and the wall time.  A repeat whose answer or typed
    failure differs from the first marks the operation ``unsteady``.
    """
    typed = (agplate.errors.NoRootFound, agplate.errors.NonConvergent)
    outcomes = [{"op": op, "answer": None, "error": None, "samples": [],
                 "ok": False, "unsteady": False} for op in ops]
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    k = 0
    while k < len(ops) or clock() < deadline:
        o = outcomes[k % len(ops)]
        answer = error = None
        t0 = clock()
        try:
            if on_op is None:
                answer = call(o["op"])
            else:
                with on_op(k):
                    answer = call(o["op"])
        except typed as exc:
            error = type(exc).__name__
        t1 = clock()
        if not o["samples"]:
            o["answer"], o["error"] = answer, error
        elif repr((answer, error)) != repr((o["answer"], o["error"])):
            o["unsteady"] = True
        o["samples"].append(t1 - t0)
        k += 1
    return outcomes, clock() - start


def latency(outcome) -> float:
    """An operation's latency: the mean of its repeats.

    A run ends part-way through a pass, so operations have one repeat more
    or less than others; a mean, unlike a best-of, does not favour the
    operations that happened to be repeated.
    """
    return statistics.fmean(outcome["samples"])


def traced_run(agplate, workload, ops, seconds):
    """Untraced calibration loop, then one traced pass over the same set.

    The traced pass runs every operation exactly once, so its work counts
    are those of a fixed amount of work and repeat exactly for one seed.
    """
    call = workload.call(agplate)
    calib, _ = closed_loop(agplate, ops, call, CALIBRATION_SHARE * seconds)
    tracer = Tracer(agplate)
    with tracer.installed():
        outcomes, wall = closed_loop(agplate, ops, call, 0.0,
                                     on_op=tracer.operation)
    for o, c in zip(outcomes, calib):
        o["unsteady"] |= c["unsteady"] or repr(
            (o["answer"], o["error"])) != repr((c["answer"], c["error"]))
    untraced = sum(latency(o) for o in calib)
    traced = sum(latency(o) for o in outcomes)
    guard(tracer, workload.name)
    metrics = layer_metrics(tracer, outcomes, traced / untraced - 1.0)
    extra = {
        "wall_s": wall,
        "calibration_passes": sum(len(o["samples"]) for o in calib) / len(calib),
        "layer_incl_s": tracer.layer_incl,
        "sites": tracer.site_table(),
        "spans": tracer.spans,
    }
    return outcomes, metrics, extra


def guard(tracer: Tracer, workload: str) -> None:
    """Refuse a traced result in which a layer's work went unseen."""
    silent = [l for l in BUSY[workload] if tracer.layer_calls(l) == 0]
    if silent:
        raise BenchError(
            f"trace guard: no calls recorded in {', '.join(silent)} on {workload}, "
            "where work is expected; the tracer's rebinding no longer sees it"
        )
    busy = [l for l in IDLE[workload] if tracer.layer_calls(l) != 0]
    if busy:
        raise BenchError(
            f"trace guard: calls recorded in {', '.join(busy)} on {workload}, "
            "which should not reach those layers"
        )


def layer_metrics(t: Tracer, outcomes, overhead: float) -> dict:
    """Per-layer metrics of a traced pass.

    The traced pass runs each operation of the set once; counts are given
    per operation (or per evaluation or solve) so that workloads and set
    sizes compare.
    """
    ops = len(outcomes)
    op_time = sum(latency(o) for o in outcomes)
    evals = t.calls_by_function("kummer", "eval_m") + t.calls_by_function(
        "kummer", "eval_m_dz")
    solves = t.calls_by_function("jab_solver", "solve_jab")
    f_evals = t.calls_by_function("jab_solver", "jab_condition")

    def frac(x, base):
        return x / base if base else 0.0

    def per_op(count, unit):
        return (count / ops, unit)

    def self_frac(layer):
        return (frac(t.layer_self(layer), op_time), "frac")

    return {
        "kummer.evals": per_op(evals, "evals/op"),
        "kummer.terms_per_eval": (frac(t.series_terms, evals), "terms/eval"),
        "kummer.us_per_eval": (frac(t.layer_incl["kummer"] * 1e6, evals), "us"),
        "kummer.flagged_frac": (frac(t.series_flagged, evals), "frac"),
        "kummer.self_frac": self_frac("kummer"),
        "ball_spectrum.secular_calls": per_op(
            t.calls_by_function("ball_spectrum", "secular_parts"), "calls/op"),
        "ball_spectrum.scans": per_op(
            t.calls_by_function("ball_spectrum", "scan_lowest_root"), "calls/op"),
        "ball_spectrum.scan_f_evals": per_op(t.scan_f_evals, "evals/op"),
        "ball_spectrum.brent_calls": per_op(
            t.calls("ball_spectrum.brentq"), "calls/op"),
        "ball_spectrum.brent_f_evals": per_op(
            t.brent_f_evals["ball_spectrum.brentq"], "evals/op"),
        "ball_spectrum.self_frac": self_frac("ball_spectrum"),
        "jab_solver.solves": per_op(solves, "solves/op"),
        "jab_solver.F_evals": per_op(f_evals, "evals/op"),
        "jab_solver.F_per_solve": (frac(f_evals, solves), "evals/solve"),
        "jab_solver.cold_scans": per_op(
            t.calls("jab_solver.scan_lowest_root"), "scans/op"),
        "jab_solver.hint_hit_ratio": (
            frac(t.hinted_solves - t.hint_fallbacks, t.hinted_solves), "ratio"),
        "jab_solver.incl_frac": (frac(t.layer_incl["jab_solver"], op_time), "frac"),
        "jab_solver.self_frac": self_frac("jab_solver"),
        "measure.phi_volume_calls": per_op(
            t.calls_by_function("measure", "phi_volume"), "calls/op"),
        "measure.phi_inverse_calls": per_op(
            t.calls_by_function("measure", "phi_inverse"), "calls/op"),
        "measure.self_frac": self_frac("measure"),
        "constants.self_frac": self_frac("constants"),
        "trace_overhead_frac": (overhead, "frac"),
    }


def verify(agplate, workload, outcomes) -> tuple[int, float]:
    """Mark each outcome against the reference, outside the timed region.

    ``ok``: answered and within the reference tolerance.  ``wrong``: an
    answer outside the tolerance, a typed failure the workload does not
    tolerate (the reference has an answer there), or a repeat that did not
    reproduce the first answer.  Any wrong outcome makes the run's
    ``correct`` false.  Returns the oracle's calls and busy time.
    """
    fd = agplate.fd_oracle
    calls = 0
    busy = 0.0

    def oracle(n, l, R):
        nonlocal calls, busy
        t0 = time.perf_counter()
        try:
            value = fd.fd_lowest_eigenvalue(
                fd.FdProblem(n, l, R, ORACLE_MESH),
                max_iterations=ORACLE_MAX_ITERATIONS,
            )
        except agplate.errors.NonConvergent as exc:
            raise BenchError(f"mesh oracle failed at n={n} l={l} R={R!r}: {exc}")
        busy += time.perf_counter() - t0
        calls += 1
        return value

    for o in outcomes:
        if o["error"] is None:
            o["ok"] = workload.check(o["op"], o["answer"], oracle)
            o["wrong"] = not o["ok"]
        else:
            o["wrong"] = not workload.tolerated(o["op"], o["error"], oracle)
        o["wrong"] |= o["unsteady"]
    return calls, busy


def tail(sorted_lat: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that keeps TAIL_BEYOND samples beyond."""
    n = len(sorted_lat)
    idx = max(n - 1 - TAIL_BEYOND, 0)
    return sorted_lat[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def count_errors(outcomes) -> dict[str, int]:
    return dict(Counter(o["error"] for o in outcomes if o["error"]))


# -- output -----------------------------------------------------------------------


def print_report(args, report: dict) -> None:
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"fail_frac={report['fail_frac']:.4f} errors={report['errors']} "
        f"wrong={report['wrong']}"
    )
    for name, m in report["metrics"].items():
        print(f"{name:36s} {fmt(m['value']):>16s} {m['unit']}")
    if "tail" in report:
        t = report["tail"]
        print(
            f"# op_tail_ms is p{t['percentile']:.1f} of {t['samples']} timed "
            f"calls ({t['beyond']} beyond it; {report['passes']:.2f} passes "
            f"over the set); median of passing operations "
            f"{report['ok_p50_ms']:.6g} ms"
        )


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}" if math.isfinite(value) else str(value)


def report_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def write_report(args, report: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = report_path(args.workload, args.seed, args.trace)
    path.write_text(json.dumps(report, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())

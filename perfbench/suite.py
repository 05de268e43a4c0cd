"""Run the benchmark over several seeds and workloads and summarise it.

    python3 perfbench/suite.py                          # every workload, seed 1
    python3 perfbench/suite.py --seeds 1-10             # run-to-run spread
    python3 perfbench/suite.py --workloads eig_large_r --seeds 1-5 --trace 1

Each run is a separate ``perfbench/run.py`` process, one after another.  The
table gives every end-to-end metric of each workload with its unit, the
failure share and the tail percentile; with more than one seed it adds the
median, the quartile spread as a share of the median (as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the bound
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, report_path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(report_path(workload, seed, trace).read_text())
    result["tail"] = report.get("tail")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, args.seconds, args.trace)
            runs.append(r)
            tail = r["tail"]
            tail_note = (f" tail=p{tail['percentile']:.1f}/{tail['samples']}"
                         if tail else "")
            values = " ".join(
                f"{k}={m['value']:.6g}" for k, m in r["metrics"].items()
            )
            print(f"{workload} seed={seed} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"fail_frac={r['failed'] / r['attempted']:.4f}{tail_note} "
                  f"{values}", flush=True)
        print(f"== {workload}: {len(runs)} run(s)")
        fails = [r["failed"] / r["attempted"] for r in runs]
        print(f"   {'fail_frac':34s} median {statistics.median(fails):12.6g} frac")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, rel = spread(values)
            bound = bounds.get(name)
            limit = f"  spread {rel:.4f} (bound {bound})" if len(runs) > 1 else ""
            print(f"   {name:34s} median {med:12.6g} {m['unit']}{limit}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Work counts of single reference calls, through the benchmark's tracer.

    python3 perfbench/baseline.py

Prints series evaluations, escalations (series returning the cancellation
flag), F evaluations and the share of ``minimize_jab`` time spent inside
``solve_jab`` for the calls the ROADMAP baseline names, so a change to one
layer can be read off as a change in counts.  Counts repeat exactly; times
depend on the host.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402

CALLS = (
    ("lowest_eigenvalue", (2, 0, 1.0)),
    ("lowest_eigenvalue", (5, 0, 0.075)),
    ("minimize_jab", (2, 1.0)),
    ("minimize_jab", (3, 1.0)),
)


def main() -> int:
    agplate = importlib.import_module("agplate")
    modules = {
        "lowest_eigenvalue": importlib.import_module("agplate.ball_spectrum"),
        "minimize_jab": importlib.import_module("agplate.jab_solver"),
    }
    agplate.lowest_eigenvalue(2, 0, 1.0)  # pay lazy imports first
    for name, args in CALLS:
        tracer = Tracer(agplate)
        with tracer.installed():
            t0 = time.perf_counter()
            getattr(modules[name], name)(*args)
            elapsed = time.perf_counter() - t0
        evals = tracer.calls_by_function("kummer", "eval_m") + (
            tracer.calls_by_function("kummer", "eval_m_dz"))
        line = (f"{name}{args}: {elapsed * 1e3:.1f} ms traced, "
                f"{evals} series evaluations, {tracer.series_flagged} flagged")
        if name == "minimize_jab":
            solve = tracer.sites["jab_solver.solve_jab"]
            line += (f", {solve.calls} solves, "
                     f"{tracer.calls('jab_solver.jab_condition')} F evaluations, "
                     f"{solve.incl / elapsed:.1%} of the time in solve_jab")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

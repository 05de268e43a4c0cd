"""Assembly of the comparison constants C(R, n) and the radius sweep.

For each dimension n and radius R the constant is the ratio

    C(R, n) = J_min(R, n) / Lambda_1(R, n),

where Lambda_1 is the fundamental clamped eigenvalue of the R-ball (radial
sector) and J_min is the minimum of the two-ball coupled eigenvalue over
all splits of the ball's weighted volume.  Because the split that puts all
volume on one ball reproduces the single-ball problem, J_min never exceeds
Lambda_1 beyond round-off, so C lies in (0, 1 + 1e-8].  Reported C is
clamped to 1 when the raw ratio overshoots by at most 1e-8; the raw ratio
is always retained alongside.

sweep() evaluates records over a left-open uniform radius grid

    R_k = r_min + (r_max - r_min) * k / steps,    k = 1 .. steps,

for each requested dimension, in deterministic (n, R) order.  Rows that
fail inside the solvers are recorded with NaN fields and a status of
no_root or nonconvergent instead of aborting the sweep.  Rows are
independent, so they may be computed by a process pool; ordering and
content do not depend on the worker count.

CSV layout (write_csv/read_csv): header mandatory, columns exactly

    n,R,Lambda1,lambda1,A_min,B_min,J_min,C,C_raw,status

with floats printed to 17 significant digits (round-trip exact) and LF
line endings.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .ball_spectrum import MIN_RADIUS, lowest_eigenvalue
from .errors import NonConvergent, NoRootFound
from .jab_solver import GRID_POINTS, split_minimum
# not called here, but perfbench/tracer.py requires this binding
from .jab_solver import minimize_jab  # noqa: F401

CLAMP_OVERSHOOT = 1e-8
CSV_HEADER = "n,R,Lambda1,lambda1,A_min,B_min,J_min,C,C_raw,status"
STATUS_OK = "ok"
STATUS_NO_ROOT = "no_root"
STATUS_NONCONVERGENT = "nonconvergent"
# status of a row whose solver raised one of these
_FAILURE_STATUS = {
    NoRootFound: STATUS_NO_ROOT,
    NonConvergent: STATUS_NONCONVERGENT,
}


@dataclass(frozen=True)
class ConstantRecord:
    """One (n, R) evaluation; numeric fields are NaN unless status is ok."""

    n: int
    R: float
    Lambda1: float
    lambda1: float
    A_min: float
    B_min: float
    J_min: float
    C: float
    C_raw: float
    status: str = STATUS_OK


def c_constant(n: int, R: float, grid_points: int = GRID_POINTS) -> ConstantRecord:
    """Evaluate C(R, n); solver failures propagate as exceptions.

    Lambda_1 comes from lowest_eigenvalue on the R-ball.  Its root is the
    A = 0 endpoint of the split minimization (F at A = 0 is a positive
    multiple of h_R), which split_minimum takes as it is; the other endpoint
    is the equal split's Dirichlet root mu_D1(A*), and each interior sample
    of minimize_jab's grid is ruled out by one sign of F where it can be
    (see jab_solver).  Every root comes from one certified bracket, at every
    radius, so a row never falls back to a scan or a warm-started chain.
    """
    if not (math.isfinite(R) and R >= MIN_RADIUS):
        raise ValueError(f"radius must be finite and at least {MIN_RADIUS}")
    mode = lowest_eigenvalue(n, 0, R)
    A_min, B_min, J_min = split_minimum(n, R, mode.lam, grid_points)
    c_raw = J_min / mode.Lambda
    c = 1.0 if 1.0 < c_raw <= 1.0 + CLAMP_OVERSHOOT else c_raw
    return ConstantRecord(
        n=n,
        R=R,
        Lambda1=mode.Lambda,
        lambda1=mode.lam,
        A_min=A_min,
        B_min=B_min,
        J_min=J_min,
        C=c,
        C_raw=c_raw,
        status=STATUS_OK,
    )


def _failed_record(n: int, R: float, status: str) -> ConstantRecord:
    nan = float("nan")
    return ConstantRecord(
        n=n, R=R, Lambda1=nan, lambda1=nan, A_min=nan, B_min=nan,
        J_min=nan, C=nan, C_raw=nan, status=status,
    )


def _sweep_task(task: tuple[int, float, int]) -> ConstantRecord:
    n, R, grid_points = task
    try:
        return c_constant(n, R, grid_points)
    except tuple(_FAILURE_STATUS) as exc:
        return _failed_record(n, R, _FAILURE_STATUS[type(exc)])


def sweep_radii(r_min: float, r_max: float, steps: int) -> list[float]:
    """The left-open uniform grid (r_min, r_max], endpoint included."""
    if not (MIN_RADIUS <= r_min < r_max):
        raise ValueError(
            f"need {MIN_RADIUS} <= r_min < r_max, got [{r_min}, {r_max}]"
        )
    if steps < 2:
        raise ValueError("steps must be at least 2")
    return [r_min + (r_max - r_min) * (k / steps) for k in range(1, steps + 1)]


def sweep(
    n_list: Sequence[int],
    r_min: float = 0.05,
    r_max: float = 3.0,
    steps: int = 120,
    grid_points: int = GRID_POINTS,
    parallel: bool = False,
) -> list[ConstantRecord]:
    """ConstantRecords for every n in n_list over the radius grid."""
    if not n_list:
        raise ValueError("need at least one dimension")
    radii = sweep_radii(r_min, r_max, steps)
    tasks = [(int(n), R, grid_points) for n in n_list for R in radii]
    if parallel:
        workers = os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_task, tasks))
    return [_sweep_task(task) for task in tasks]


def _fmt(x: float) -> str:
    return format(x, ".17g")


def format_records(records: Iterable[ConstantRecord]) -> str:
    """Render records as the canonical CSV text (LF endings)."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    str(r.n),
                    _fmt(r.R),
                    _fmt(r.Lambda1),
                    _fmt(r.lambda1),
                    _fmt(r.A_min),
                    _fmt(r.B_min),
                    _fmt(r.J_min),
                    _fmt(r.C),
                    _fmt(r.C_raw),
                    r.status,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(records: Iterable[ConstantRecord], path: str | Path) -> None:
    """Write the canonical CSV to path."""
    Path(path).write_bytes(format_records(records).encode("ascii"))


def read_csv(path: str | Path) -> list[ConstantRecord]:
    """Parse a CSV produced by write_csv; the header row is mandatory."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed header row")
    records = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ValueError(f"malformed row: {line!r}")
        records.append(
            ConstantRecord(
                n=int(parts[0]),
                R=float(parts[1]),
                Lambda1=float(parts[2]),
                lambda1=float(parts[3]),
                A_min=float(parts[4]),
                B_min=float(parts[5]),
                J_min=float(parts[6]),
                C=float(parts[7]),
                C_raw=float(parts[8]),
                status=parts[9],
            )
        )
    return records

"""Seeded workloads of the agplate benchmark and their independent references.

Every workload is a fixed, seeded set of distinct operations: ``ops`` is a
pure function of the workload and the seed.  A run times the whole set at
least once and then cycles through it again until its time is up, so every
run of one seed measures the same operations, and ``attempted``/``failed``
count the distinct operations.  The library only ever sees the generated
(n, l, R) values.

Why these three (see NOTES.md for the per-layer predictions):

* ``sweep_slice``: rows of the canonical 480-point acceptance grid
  (n in 2..5 times 120 radii on (0.05, 3]), one ``c_constant`` call each,
  checked against ``tests/data/frozen_sweep.csv``.  This is the headline job
  and the only workload that reaches ``jab_solver`` and ``measure``.
* ``eig_small_r``: ``lowest_eigenvalue(n, l, R)`` with R log-uniform over
  the whole accepted small-radius domain [1e-3, 1].  The fixed-step lambda
  scan does almost all the work, and the known small-R ``NoRootFound``
  defect shows as failed operations.  The range must not be narrowed to
  hide it.  It is the only workload on which a typed failure is not a
  wrong answer, and only where the reference puts the root beyond the
  scan's ceiling (see ``Workload.tolerated``).
* ``eig_large_r``: the same call with R uniform on [5.5, 6.75], where a
  large share of series evaluations cancel and escalate to mpmath.  The band
  stops at 6.75 because the mesh oracle itself stops converging for
  (n=5, l=1) at R >= 7.

Sampling is a seeded Latin hypercube (``latin_points``), so the operation
mix barely moves from seed to seed: every discrete value (n, or the (n, l)
pair) gets the same number of operations, one in each equal stratum of the
radius range (equal in log R for ``eig_small_r``), and across all values
the radii fill finer strata exactly once each.  Each draw is still
marginally uniform (log-uniform for ``eig_small_r``).  The set is then put
in a seeded order.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FROZEN_CSV = Path("tests") / "data" / "frozen_sweep.csv"

# Smallest radius the library accepts (ball_spectrum.MIN_RADIUS at the time
# the benchmark was defined); fixed here so the workload does not move.
SMALL_R_MIN = 1e-3
SMALL_R_MAX = 1.0
# Largest lambda the fixed-step root scan reaches
# (ball_spectrum.SCAN_CEILING_MAX when the benchmark was defined).  A root
# above it is the known small-R defect; fixed here so the rule does not move.
DEFECT_LAMBDA_MIN = 6400.0
LARGE_R_MIN = 5.5
LARGE_R_MAX = 6.75
EIG_MODES = tuple((n, l) for n in (2, 3, 4, 5) for l in (0, 1, 2))
SWEEP_DIMS = (2, 3, 4, 5)
# Operations per discrete value: 4 x 6 sweep rows.  A pass over the set
# takes about 25 s, so a 30 s run times each row about once.
SWEEP_ROWS_PER_DIM = 6

# Relative tolerances against the mesh oracle at ORACLE_MESH.  The worst
# gaps over all 12 (n, l) pairs were 2.3e-7 for R <= 1 and 4.6e-6 at
# R = 6.75 (mesh error grows with R); the tolerances leave a 4-9x margin.
ORACLE_MESH = 4000
# Inverse iteration converges slowly for (n=5, l=1) at R >= 5.6, where the
# two lowest eigenvalues crowd together: the library default of 500 steps
# fails there, and one input at R = 6.51 needed more than 5000.
ORACLE_MAX_ITERATIONS = 50000
SMALL_R_RTOL = 2e-6
LARGE_R_RTOL = 2e-5
# Criterion-3 rule of the acceptance battery, and the status the sweep
# records for each typed failure.
SWEEP_CTOL = 1e-6
FAILURE_STATUS = {"NoRootFound": "no_root", "NonConvergent": "nonconvergent"}


def latin_points(rng: random.Random, groups: int, per_group: int) -> list[list[float]]:
    """Seeded coordinates in [0, 1) for ``per_group`` operations of each group.

    A Latin hypercube over (group, coordinate): [0, 1) is cut into
    ``groups * per_group`` equal strata and every stratum holds exactly one
    point.  Each group gets one point in each of the ``per_group`` coarse
    strata; which fine stratum inside a coarse one falls to which group is
    a seeded permutation, and the point lies uniformly inside it.
    """
    points: list[list[float]] = [[] for _ in range(groups)]
    for k in range(per_group):
        fine = list(range(groups))
        rng.shuffle(fine)
        for g, f in enumerate(fine):
            points[g].append((k + (f + rng.random()) / groups) / per_group)
    return points


@dataclass(frozen=True)
class Op:
    """One operation's inputs; l is None for c_constant rows."""

    n: int
    R: float
    l: int | None = None


class Workload:
    """A named seeded set of operations plus its correctness check.

    Subclasses are built as ``Workload(seed, root)``, root being the
    checkout the benchmark runs in; ``ops`` then holds the distinct
    operations in the order they are run.  ``warmup`` is the untimed first
    call, as Python source in which ``agplate`` names the package.
    """

    name: str = ""
    warmup: str = ""
    ops: tuple[Op, ...] = ()

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def call(self, agplate) -> Callable[[Op], object]:
        """The timed call: returns the library's answer for one Op."""
        raise NotImplementedError

    def check(self, op: Op, answer: object, oracle) -> bool:
        """True when the answer matches the independent reference."""
        raise NotImplementedError

    def tolerated(self, op: Op, error: str, oracle) -> bool:
        """True when a typed failure (``error`` names its class) is the
        reference's outcome too; any other typed failure is a wrong answer."""
        return False


class SweepSlice(Workload):
    name = "sweep_slice"
    warmup = "agplate.c_constant(2, 1.0, grid_points=16)"

    def __init__(self, seed: int, root: Path) -> None:
        self.frozen = read_frozen(root / FROZEN_CSV)
        rng = self.rng(seed)
        ops = []
        points = latin_points(rng, len(SWEEP_DIMS), SWEEP_ROWS_PER_DIM)
        for n, xs in zip(SWEEP_DIMS, points):
            radii = sorted(R for (m, R) in self.frozen if m == n)
            ops += [Op(n=n, R=radii[int(x * len(radii))]) for x in xs]
        rng.shuffle(ops)
        self.ops = tuple(ops)

    def call(self, agplate):
        constants = agplate.constants

        def run(op: Op):
            # looked up per call so a tracer's rebinding is seen
            record = constants.c_constant(op.n, op.R)
            return record.status, record.C

        return run

    def check(self, op, answer, oracle) -> bool:
        ref_status, ref_c = self.frozen[(op.n, op.R)]
        status, c = answer
        if status != ref_status:
            return False
        if status != "ok":
            return True
        return abs(c - ref_c) <= SWEEP_CTOL * max(1.0, abs(ref_c))

    def tolerated(self, op, error, oracle) -> bool:
        # Same status rule: a raise stands for the status the sweep records.
        return self.frozen[(op.n, op.R)][0] == FAILURE_STATUS[error]


class _Eigen(Workload):
    warmup = "agplate.lowest_eigenvalue(2, 0, 1.0)"
    rtol = 0.0
    radii_per_mode = 0

    def __init__(self, seed: int, root: Path) -> None:
        rng = self.rng(seed)
        points = latin_points(rng, len(EIG_MODES), self.radii_per_mode)
        ops = [Op(n=n, R=self.radius(x), l=l)
               for (n, l), xs in zip(EIG_MODES, points) for x in xs]
        rng.shuffle(ops)
        self.ops = tuple(ops)

    def radius(self, x: float) -> float:
        raise NotImplementedError

    def call(self, agplate):
        ball_spectrum = agplate.ball_spectrum

        def run(op: Op):
            # looked up per call so a tracer's rebinding is seen
            return ball_spectrum.lowest_eigenvalue(op.n, op.l, op.R).Lambda

        return run

    def check(self, op, answer, oracle) -> bool:
        ref = oracle(op.n, op.l, op.R)
        return abs(answer - ref) <= self.rtol * abs(ref)


class EigSmallR(_Eigen):
    name = "eig_small_r"
    rtol = SMALL_R_RTOL
    # 48 calls, a pass of about 30 s: most fail after about 1 s of scanning.
    radii_per_mode = 4

    def radius(self, x: float) -> float:
        return SMALL_R_MIN * (SMALL_R_MAX / SMALL_R_MIN) ** x

    def tolerated(self, op, error, oracle) -> bool:
        # The known defect: the root lies beyond the scan's ceiling.  A
        # failure on any input whose root the scan does reach is wrong.
        if error != "NoRootFound":
            return False
        lam = math.sqrt(oracle(op.n, op.l, op.R))
        return lam > DEFECT_LAMBDA_MIN * (1.0 - self.rtol)


class EigLargeR(_Eigen):
    name = "eig_large_r"
    warmup = "agplate.lowest_eigenvalue(2, 0, 6.0)"
    rtol = LARGE_R_RTOL
    # 96 calls, a pass of about 4 s.  Calls cost 20-40 ms below R = 6.1 and
    # 50-140 ms above, where more series escalate, so a larger set keeps the
    # median from moving with the share of draws on each side.
    radii_per_mode = 8

    def radius(self, x: float) -> float:
        return LARGE_R_MIN + (LARGE_R_MAX - LARGE_R_MIN) * x


WORKLOADS = {w.name: w for w in (SweepSlice, EigSmallR, EigLargeR)}


def read_frozen(path: Path) -> dict[tuple[int, float], tuple[str, float]]:
    """(n, R) -> (status, C) from the frozen sweep, parsed without agplate."""
    with path.open(newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    return {(int(r["n"]), float(r["R"])): (r["status"], float(r["C"])) for r in rows}

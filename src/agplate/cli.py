"""Command-line front end for the clamped-ball pipeline.

Subcommands
    eig     fundamental eigenvalue of one ball (JSON)
    curve   fundamental frequency along a radius grid (CSV: R,l,lambda,status)
    jab     coupled two-ball eigenvalue for fixed radii (JSON)
    minjab  minimize the coupled eigenvalue over volume splits
            (CSV profile: A,B,sqrtJ,status; --profile PATH moves the CSV
            to a file and prints a JSON summary instead)
    const   the ratio C(R, n) with its ingredients (JSON)
    sweep   constants over a radius grid per dimension (CSV, constants schema)
    oracle  finite-difference eigenvalue cross-check (JSON)

Exit codes: 0 on success, 2 for invalid flags or parameter values,
3 when a solver fails (a certified root bracket held no sign change, or
an iteration cap was hit).

Every algorithm in the pipeline is deterministic, so there is no seed
flag; two runs with identical flags produce identical bytes.  Grids for
curve and sweep are left-open: steps points on (r_min, r_max], endpoint
included, r_min excluded.

The environment variable CPLD_PRECISION forces the working precision of
the series evaluator: "double" skips the mpmath repair of cancelled series,
"extended" always applies it, unset or "auto" repairs exactly when the
cancellation flag trips (largest term above 1e8 times the sum). A repair
that mpmath cannot complete exits with code 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .ball_spectrum import lowest_eigenvalue
from .constants import (
    STATUS_OK,
    _FAILURE_STATUS,
    _fmt,
    c_constant,
    format_records,
    sweep,
    sweep_radii,
)
from .errors import NonConvergent, NoRootFound
from .fd_oracle import ANTI_GAUSS, UNWEIGHTED, FdProblem, fd_lowest_eigenvalue
from .jab_solver import GRID_POINTS, minimize_jab, solve_jab
from .kummer import _precision_mode


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("ascii"))


def _json_line(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _cmd_eig(args: argparse.Namespace) -> int:
    mode = lowest_eigenvalue(args.n, args.l, args.R)
    payload = {
        "n": args.n,
        "R": args.R,
        "l": args.l,
        "lambda": mode.lam,
        "Lambda": mode.Lambda,
        "G_R": mode.G_R,
    }
    sys.stdout.write(_json_line(payload))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    lines = ["R,l,lambda,status"]
    for R in sweep_radii(args.r_min, args.r_max, args.steps):
        try:
            lam, status = lowest_eigenvalue(args.n, args.l, R).lam, STATUS_OK
        except tuple(_FAILURE_STATUS) as exc:
            lam, status = float("nan"), _FAILURE_STATUS[type(exc)]
        lines.append(f"{_fmt(R)},{args.l},{_fmt(lam)},{status}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_jab(args: argparse.Namespace) -> int:
    sol = solve_jab(args.n, args.A, args.B)
    payload = {
        "n": args.n,
        "A": args.A,
        "B": args.B,
        "lambda": sol.lam,
        "mu": sol.mu,
    }
    sys.stdout.write(_json_line(payload))
    return 0


def _cmd_minjab(args: argparse.Namespace) -> int:
    record = minimize_jab(args.n, args.R, args.grid_points)
    lines = ["A,B,sqrtJ,status"]
    for a, b, sqrt_j in record.profile:
        lines.append(f"{_fmt(a)},{_fmt(b)},{_fmt(sqrt_j)},{STATUS_OK}")
    csv_text = "\n".join(lines) + "\n"
    if args.profile is None:
        sys.stdout.write(csv_text)
    else:
        Path(args.profile).write_bytes(csv_text.encode("ascii"))
        payload = {
            "n": args.n,
            "R": args.R,
            "A_min": record.A_min,
            "B_min": record.B_min,
            "J_min": record.J_min,
        }
        sys.stdout.write(_json_line(payload))
    return 0


def _cmd_const(args: argparse.Namespace) -> int:
    rec = c_constant(args.n, args.R, args.grid_points)
    payload = {
        "n": rec.n,
        "R": rec.R,
        "Lambda1": rec.Lambda1,
        "lambda1": rec.lambda1,
        "A_min": rec.A_min,
        "B_min": rec.B_min,
        "J_min": rec.J_min,
        "C": rec.C,
        "C_raw": rec.C_raw,
        "status": rec.status,
    }
    sys.stdout.write(_json_line(payload))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    records = sweep(
        args.n,
        r_min=args.r_min,
        r_max=args.r_max,
        steps=args.steps,
        grid_points=args.grid_points,
        parallel=args.parallel,
    )
    _emit(format_records(records), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    density = ANTI_GAUSS if args.weight == "antigauss" else UNWEIGHTED
    problem = FdProblem(
        n=args.n, l=args.l, R=args.R, mesh=args.mesh, density=density
    )
    Lambda = fd_lowest_eigenvalue(problem)
    payload = {
        "n": args.n,
        "l": args.l,
        "R": args.R,
        "mesh": args.mesh,
        "weight": args.weight,
        "Lambda": Lambda,
    }
    sys.stdout.write(_json_line(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agplate",
        description="Clamped eigenvalues of centered balls under the "
        "exp(|x|^2/2) weight, two-ball volume splits, and the derived "
        "comparison constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eig = sub.add_parser("eig", help="fundamental eigenvalue of one ball")
    eig.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    eig.add_argument("--R", type=float, required=True, help="ball radius")
    eig.add_argument("--l", type=int, default=0, help="harmonic degree")
    eig.set_defaults(func=_cmd_eig)

    curve = sub.add_parser("curve", help="frequency along a radius grid")
    curve.add_argument("--n", type=int, required=True)
    curve.add_argument("--l", type=int, default=0)
    curve.add_argument("--r-min", type=float, required=True)
    curve.add_argument("--r-max", type=float, required=True)
    curve.add_argument("--steps", type=int, required=True)
    curve.add_argument("--out", default=None, help="CSV path (default stdout)")
    curve.set_defaults(func=_cmd_curve)

    jab = sub.add_parser("jab", help="coupled eigenvalue for a radii pair")
    jab.add_argument("--n", type=int, required=True)
    jab.add_argument("--A", type=float, required=True)
    jab.add_argument("--B", type=float, required=True)
    jab.set_defaults(func=_cmd_jab)

    minjab = sub.add_parser("minjab", help="minimize over volume splits")
    minjab.add_argument("--n", type=int, required=True)
    minjab.add_argument("--R", type=float, required=True)
    minjab.add_argument("--grid-points", type=int, default=GRID_POINTS)
    minjab.add_argument(
        "--profile",
        default=None,
        help="write the profile CSV here and print a JSON summary instead",
    )
    minjab.set_defaults(func=_cmd_minjab)

    const = sub.add_parser("const", help="the constant C(R, n)")
    const.add_argument("--n", type=int, required=True)
    const.add_argument("--R", type=float, required=True)
    const.add_argument("--grid-points", type=int, default=GRID_POINTS)
    const.set_defaults(func=_cmd_const)

    sweep_p = sub.add_parser("sweep", help="constants over a radius grid")
    sweep_p.add_argument(
        "--n", type=_int_list, required=True, help="dimensions, e.g. 2,3,4,5"
    )
    sweep_p.add_argument("--r-min", type=float, default=0.05)
    sweep_p.add_argument("--r-max", type=float, default=3.0)
    sweep_p.add_argument("--steps", type=int, default=120)
    sweep_p.add_argument("--grid-points", type=int, default=GRID_POINTS)
    sweep_p.add_argument("--parallel", action="store_true")
    sweep_p.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep_p.set_defaults(func=_cmd_sweep)

    oracle = sub.add_parser("oracle", help="finite-difference cross-check")
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--l", type=int, default=0)
    oracle.add_argument("--R", type=float, required=True)
    oracle.add_argument("--mesh", type=int, default=2000)
    oracle.add_argument(
        "--weight", choices=("antigauss", "none"), default="antigauss"
    )
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked up front, so subcommands that evaluate no series refuse
        # an invalid CPLD_PRECISION too
        _precision_mode()
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"agplate: {exc}\n")
        return 2
    except (NoRootFound, NonConvergent) as exc:
        sys.stderr.write(f"agplate: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

"""Weighted volume of centered balls under the density exp(|x|^2 / 2).

The weighted volume of the ball of radius R in dimension n is

    Phi(n, R) = beta_n * int_0^R exp(r^2/2) r^(n-1) dr
              = beta_n R^n / n * M(n/2, n/2 + 1, R^2/2),
    beta_n    = 2 pi^(n/2) / Gamma(n/2)  (surface area of the unit sphere),

where M is Kummer's confluent hypergeometric function: expanding exp(r^2/2)
and integrating termwise gives sum_k (R^2/2)^k / k! * n / (n + 2k), and
n / (n + 2k) = (n/2)_k / (n/2 + 1)_k.  At positive argument every term of
that series is positive, so the double-precision recurrence of the kummer
module sums it without cancellation.

Phi is strictly increasing in R, so it has a well-defined inverse, which is
what the half-mass and complement constructions below are built on.
"""

from __future__ import annotations

import math

from .errors import check_dimension
from .kummer import _sum_double

INVERT_TOL = 1e-12
CLAMP_TOL = 1e-12


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    check_dimension(n)
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def phi_volume(n: int, R: float) -> float:
    """Weighted volume Phi(n, R) = beta_n R^n / n * M(n/2, n/2 + 1, R^2/2).

    The series is summed in double precision whatever CPLD_PRECISION says:
    its terms are all positive, so there is no cancellation to repair.
    Above R of about 37.7, Phi overflows a double and the series raises
    NonConvergent.
    """
    check_dimension(n)
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError("radius must be finite and nonnegative")
    if R == 0.0:
        return 0.0
    half = 0.5 * n
    series, _, _ = _sum_double(half, half + 1.0, 0.5 * R * R)
    return unit_sphere_area(n) * R**n / n * series


def _phi_derivative(n: int, r: float) -> float:
    # d Phi / d R = beta_n exp(R^2/2) R^(n-1); positive for R > 0
    return unit_sphere_area(n) * math.exp(0.5 * r * r) * r ** (n - 1)


def phi_inverse(n: int, v: float) -> float:
    """Radius R with Phi(n, R) = v, for v >= 0.

    Bracketed Newton with bisection fallback; the bracket upper end doubles
    until it encloses v. Newton starts at the smaller of the bracket midpoint
    and the upper bound (n v / beta_n)^(1/n) on the root, so tiny volumes
    take a few steps instead of shrinking r by (1 - 1/n) per step.
    Terminates when |Phi(R) - v| <= INVERT_TOL * v, a relative test, so
    volumes far below 1 (Phi ~ R^n at R near MIN_RADIUS) still invert to
    full accuracy.  A bracket end that already passes this test is returned
    as it is: Newton from below would overshoot it on every step.
    """
    check_dimension(n)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError("target volume must be finite and nonnegative")
    if v == 0.0:
        return 0.0

    tol = INVERT_TOL * v
    lo, hi = 0.0, 1.0
    fhi = phi_volume(n, hi) - v
    doublings = 0
    while fhi < -tol:
        lo = hi
        hi *= 2.0
        fhi = phi_volume(n, hi) - v
        doublings += 1
        if doublings > 60:
            raise ValueError("target volume too large to bracket")
    if fhi <= tol:
        return hi

    # Phi(r) >= beta_n r^n / n, so the root lies at or below this bound, and
    # Phi is convex, so Newton from above descends onto the root
    r = min((n * v / unit_sphere_area(n)) ** (1.0 / n), 0.5 * (lo + hi))
    for _ in range(200):
        f = phi_volume(n, r) - v
        if abs(f) <= tol:
            return r
        if f > 0.0:
            hi = r
        else:
            lo = r
        step = f / _phi_derivative(n, r)
        candidate = r - step
        # keep Newton inside the bracket, otherwise bisect
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        r = candidate
    raise RuntimeError("inversion failed to converge")  # pragma: no cover


def half_mass_radius(n: int, R: float) -> float:
    """Radius A* of the centered ball holding half the weighted volume of B_R."""
    return phi_inverse(n, 0.5 * phi_volume(n, R))


def complement_radius(n: int, R: float, A: float) -> float:
    """Radius B with Phi(n, B) = Phi(n, R) - Phi(n, A).

    A is clamped into [0, R] when it violates the box by at most CLAMP_TOL;
    larger violations raise. complement_radius(n, R, 0) == R exactly and
    complement_radius(n, R, R) == 0 exactly.
    """
    check_dimension(n)
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError("radius must be finite and nonnegative")
    if not math.isfinite(A):
        raise ValueError("A must be finite")
    slack = CLAMP_TOL * max(1.0, R)
    if A < -slack or A > R + slack:
        raise ValueError(f"A={A} outside [0, {R}]")
    A = min(max(A, 0.0), R)
    if A == 0.0:
        return R
    if A == R:
        return 0.0
    return phi_inverse(n, phi_volume(n, R) - phi_volume(n, A))

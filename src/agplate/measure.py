"""Weighted volume of centered balls under the density exp(|x|^2 / 2).

The weighted volume of the ball of radius R in dimension n is

    Phi(n, R) = beta_n * int_0^R exp(r^2/2) r^(n-1) dr,
    beta_n    = 2 pi^(n/2) / Gamma(n/2)  (surface area of the unit sphere).

Phi is strictly increasing in R, so it has a well-defined inverse, which is
what the half-mass and complement constructions below are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

# Requested accuracy for the volume quadrature and the inversion.
QUAD_TOL = 1e-13
INVERT_TOL = 1e-12
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class BallSpec:
    """A centered ball: dimension n >= 2 and radius R > 0."""

    n: int
    R: float

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 2:
            raise ValueError("dimension must be an integer >= 2")
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("radius must be finite and positive")


def _check_dim(n: int) -> None:
    if int(n) != n or n < 2:
        raise ValueError("dimension must be an integer >= 2")


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    _check_dim(n)
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def phi_volume(n: int, R: float) -> float:
    """Weighted volume Phi(n, R), by adaptive Gauss-Kronrod quadrature."""
    _check_dim(n)
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError("radius must be finite and nonnegative")
    if R == 0.0:
        return 0.0
    value, _ = quad(
        lambda r: math.exp(0.5 * r * r) * r ** (n - 1),
        0.0,
        R,
        epsabs=QUAD_TOL,
        epsrel=QUAD_TOL,
        limit=200,
    )
    return unit_sphere_area(n) * value


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
    full accuracy.
    """
    _check_dim(n)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError("target volume must be finite and nonnegative")
    if v == 0.0:
        return 0.0

    lo, hi = 0.0, 1.0
    flo = -v
    fhi = phi_volume(n, hi) - v
    doublings = 0
    while fhi < 0.0:
        lo, flo = hi, fhi
        hi *= 2.0
        fhi = phi_volume(n, hi) - v
        doublings += 1
        if doublings > 60:
            raise ValueError("target volume too large to bracket")

    tol = INVERT_TOL * v
    # Phi(r) >= beta_n r^n / n, so the root lies at or below this bound, and
    # Phi is convex, so Newton from above descends onto the root
    r = min((n * v / unit_sphere_area(n)) ** (1.0 / n), 0.5 * (lo + hi))
    for _ in range(200):
        f = phi_volume(n, r) - v
        if abs(f) <= tol:
            return r
        if f > 0.0:
            hi, fhi = r, f
        else:
            lo, flo = r, f
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
    _check_dim(n)
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

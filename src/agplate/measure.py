"""Weighted volume of centered balls under the density exp(|x|^2 / 2).

The weighted volume of the ball of radius R in dimension n is

    Phi(n, R) = beta_n * int_0^R exp(r^2/2) r^(n-1) dr
              = beta_n R^n / n * M(n/2, n/2 + 1, R^2/2),
    beta_n    = 2 pi^(n/2) / Gamma(n/2)  (surface area of the unit sphere),

where M is Kummer's confluent hypergeometric function: expanding exp(r^2/2)
and integrating termwise gives sum_k (R^2/2)^k / k! * n / (n + 2k), and
n / (n + 2k) = (n/2)_k / (n/2 + 1)_k.  At positive argument every term of
that series is positive, so a double-precision recurrence sums it without
cancellation: phi_volume runs the kummer module's compensated loop and stop
rule with no magnitude tracking, since no term needs abs() and no sum can
cancel.

Phi is strictly increasing in R, so it has a well-defined inverse, which is
what the half-mass and complement constructions below are built on.
"""

from __future__ import annotations

import functools
import math

from .errors import NonConvergent, check_dimension
from .kummer import CONSECUTIVE_SMALL, MAX_TERMS, SERIES_TOL

INVERT_TOL = 1e-12
CLAMP_TOL = 1e-12


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    check_dimension(n)
    return _beta(n)


@functools.cache
def _beta(n: int) -> float:
    # beta_n for a checked n, computed once per dimension
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def _positive_series(a: float, b: float, x: float) -> float:
    """M(a, b, x) for a, b, x > 0, where every term is positive.

    The recurrence, compensated sum and stop rule of the kummer module's
    series, without abs() or a largest-term record, which positive terms
    do not need; the loop therefore returns the same bits.  k counts in
    floats, which hold every count up to MAX_TERMS exactly.
    """
    tol = SERIES_TOL
    t = 1.0
    s = 1.0
    comp = 0.0
    small = 0
    k = 0.0
    while k < MAX_TERMS:
        t *= (a + k) * x / ((b + k) * (k + 1.0))
        k += 1.0
        y = t - comp
        tt = s + y
        comp = (tt - s) - y
        s = tt
        if t <= tol * s:
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return s
        else:
            small = 0
    raise NonConvergent(
        f"Kummer series did not converge in {MAX_TERMS} terms "
        f"(a={a}, b={b}, z={x})"
    )


def phi_volume(n: int, R: float) -> float:
    """Weighted volume Phi(n, R) = beta_n R^n / n * M(n/2, n/2 + 1, R^2/2).

    The series is summed in double precision only: its terms are all
    positive, so there is no cancellation to repair.
    Above R of about 37.7, Phi overflows a double and the series raises
    NonConvergent.
    """
    check_dimension(n)
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError("radius must be finite and nonnegative")
    if R == 0.0:
        return 0.0
    half = 0.5 * n
    series = _positive_series(half, half + 1.0, 0.5 * R * R)
    return _beta(n) * R**n / n * series


def _phi_derivative(n: int, r: float) -> float:
    # d Phi / d R = beta_n exp(R^2/2) R^(n-1); positive for R > 0
    return _beta(n) * math.exp(0.5 * r * r) * r ** (n - 1)


def _volume_start(n: int, v: float) -> float:
    """Root of beta_n r^n e^(r^2/2) / (r^2 + n) = v, by Newton on its log.

    M(a, a + 1, x) ~ a e^x / (x + a) at both ends (it is 1 at x = 0 and
    a e^x / x to leading order as x grows), so this closed form matches Phi
    for small and for large r and its root is a start for phi_inverse that
    costs no series.  In u = log r the log of the left side minus log v,

        g(u) = log(beta_n / v) + n u + r^2/2 - log(r^2 + n),

    is increasing and convex for n >= 2.  g >= 0 at the small-volume bound
    r = (n v / beta_n)^(1/n), and, when L = log(v / beta_n) >= 1/2, also at
    r^2 = 2 L + 2 log(1 + n / (2 L)).  Newton from the smaller of the two
    descends to the root without overshooting it.
    """
    L = math.log(v) - math.log(_beta(n))
    u = (math.log(n) + L) / n
    if L >= 0.5:
        u = min(u, 0.5 * math.log(2.0 * L + 2.0 * math.log1p(0.5 * n / L)))
    for _ in range(100):
        r2 = math.exp(2.0 * u)
        g = n * u + 0.5 * r2 - math.log(r2 + n) - L
        step = g / (n + r2 - 2.0 * r2 / (r2 + n))
        u -= step
        if abs(step) <= 1e-12:
            break
    return math.exp(u)


def phi_inverse(n: int, v: float) -> float:
    """Radius R with Phi(n, R) = v, for v >= 0.

    Newton on log Phi from the closed-form start of _volume_start, with a
    bisection fallback.  log Phi bends far less than Phi: it grows like
    R^2/2 at large R and like n log R near 0, so Newton steps on it land
    closer to the root than steps on Phi itself.  The bracket is found on
    the way: each Phi(R) above v lowers its upper end, and a Newton step
    that leaves the bracket bisects it, or doubles R while no Phi(R) has
    exceeded v yet.  Terminates when |Phi(R) - v| <= INVERT_TOL * v, a
    relative test, so volumes far below 1 (Phi ~ R^n at R near MIN_RADIUS)
    still invert to full accuracy.
    """
    check_dimension(n)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError("target volume must be finite and nonnegative")
    if v == 0.0:
        return 0.0

    tol = INVERT_TOL * v
    lo, hi = 0.0, math.inf
    r = _volume_start(n, v)
    for _ in range(200):
        phi = phi_volume(n, r)
        if abs(phi - v) <= tol:
            return r
        if phi > v:
            hi = r
        else:
            lo = r
        # Newton on log Phi: d log Phi / dR = Phi'(R) / Phi(R)
        candidate = r - math.log(phi / v) * phi / _phi_derivative(n, r)
        # keep Newton inside the bracket, otherwise bisect (or double r)
        if not (lo < candidate < hi):
            candidate = 2.0 * r if hi == math.inf else 0.5 * (lo + hi)
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

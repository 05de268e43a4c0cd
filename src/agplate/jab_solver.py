"""Coupled lowest eigenvalue for a pair of centered balls, and its minimum.

For radii A, B >= 0 (not both zero) and the weight w = exp(r^2/2), consider
pairs of radial functions (v on the A-ball, w on the B-ball), each vanishing
at its own wall, with matched weighted slopes

    A^(n-1) e^(A^2/2) v'(A) = B^(n-1) e^(B^2/2) w'(B),

and minimize the joint Rayleigh quotient

    mu(A, B) = inf  ( int (L v)^2 w + int (L w)^2 w )
                  / ( int v^2 w     + int w^2 w ),

where L is the drifted radial Laplacian y'' + ((n-1)/r + r) y'.  The
Euler-Lagrange system couples the balls through the matched slopes and the
natural condition (L v)(A) + (L w)(B) = 0; expanding its solutions in the
confluent factors M_+/- of the single-ball problem and eliminating the two
amplitudes gives the scalar characteristic condition

    F(lambda) = A^n e^(A^2/2) h_A(lambda) M_+(z_B) M_-(z_B)
              + B^n e^(B^2/2) h_B(lambda) M_+(z_A) M_-(z_A) = 0,

with z_X = -X^2/2, h_X the single-ball boundary determinant, and
mu = lambda^2 at the smallest positive root.  A zero radius contributes
exactly zero to F, so mu(0, B) is the fundamental clamped eigenvalue of the
B-ball.  F is symmetric under swapping (A, B) and odd in lambda.

The equal split is a Dirichlet problem.  Drop the matched slope, and the
pair decouples into two Navier problems (v = L v = 0 at each wall); their
frequencies are the Dirichlet frequencies mu_{D,k}(A) and mu_{D,k}(B), the
zeros of lambda -> M(lambda/2, n/2, -X^2/2) (ball_spectrum's
lowest_dirichlet_root finds the first).  Merge them into nu_1 <= nu_2 <= ...
The matched slope is one linear constraint, so by min-max
nu_k <= lambda_k(A, B) <= nu_(k+1).  At A = B, nu_1 = nu_2 = mu_D1(A), so
lambda(A, A) = mu_D1(A): solve_jab returns that root directly.

The split minimum is certified from its two endpoints.  All the premises
below rest on one more: F's positive roots are the pair's eigenvalue
frequencies lambda_k(A, B), each a simple root, and F > 0 just above
lambda = 0 (there h_X ~ (lambda / b) M(1, b + 1, -X^2/2) > 0 and
M_+ M_- ~ 1).  Let lambda_end = min(lambda_1(R), mu_D1(A*)), the smaller
endpoint root.  For an interior split 0 < A < A* < B, nu_2 >=
min(mu_D1(A), mu_D2(B)) >= min(lb_1(A), lb_2(B)) with lb_k(X) =
j_{n/2-1,k}^2 / X^2 + n/2 (see ball_spectrum).  When lambda_end lies below
that bound, (0, lambda_end] holds at most lambda_1(A, B); F(lambda_end) > 0
leaves an even number of roots there, hence none, and mu(A, B) >
lambda_end^2, which is at least the lower endpoint's mu.  split_minimum
(what c_constant uses) therefore spends one F evaluation on each interior
sample that passes, and solves only the samples that fail.  The
certificate does not rely on the endpoint roots being right: a certified
sample lies above whatever the endpoints returned.  Where mu_D1(A*) is not
bracketed (R from about 5), split_minimum returns minimize_jab's minimum.

minimize_jab keeps the whole profile: A runs over a uniform grid from 0 to
the half-mass radius A*(R) and B is the complement radius, so the pair
always fills the weighted volume of the R-ball.  The solves are
warm-started: a narrow bracket around a hint, sign checks that no root lies
below the bracket, and a Brent refinement (see solve_jab).  The A = 0
sample starts from the R-ball's clamped root, which is that sample's exact
root, the second sample from the first root, and each later one from the
linear extrapolation of the last two roots; the last sample, the equal
split, is the Dirichlet root.  jab_condition spends no series on a zero
radius and one secular pass on the equal split.  In both routines J_min is
mu at the smallest-A sample within ENDPOINT_TIE_REL (relative) of the
lowest sampled mu, so ties go to A = 0.  Nothing refines between samples:
an interior minimum shows at grid resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .ball_spectrum import (
    MIN_RADIUS,
    ROOT_RTOL,
    ROOT_XTOL,
    _bessel_zeros,
    lowest_dirichlet_root,
    lowest_eigenvalue,
    scan_lowest_root,
    secular_h,
    secular_parts,
)
from .errors import check_dimension
from .measure import complement_radius, half_mass_radius

GRID_POINTS = 16
# relative half-width of the first warm-start bracket, and the widest one
# tried before the cold scan; each failed try widens by HINT_WIDEN
HINT_WINDOW = (2e-3, 0.25)
HINT_WIDEN = 4.0
ENDPOINT_TIE_REL = 1e-9


@dataclass(frozen=True)
class JabSolution:
    """Smallest positive characteristic root for one pair of radii.

    lam is the root itself and mu = lam**2 exactly (stored redundantly).
    """

    A: float
    B: float
    n: int
    lam: float
    mu: float

    def __post_init__(self) -> None:
        if self.A < 0.0 or self.B < 0.0:
            raise ValueError("radii must be nonnegative")
        if not self.lam > 0.0:
            raise ValueError("root must be positive")
        if self.mu != self.lam * self.lam:
            raise ValueError("mu must equal lam squared exactly")


@dataclass(frozen=True)
class MinJabRecord:
    """Result of minimizing mu(A, B) under the volume-split constraint.

    profile holds the (A, B, sqrt(mu)) grid samples in scan order.  The
    minimum is the smallest-A sample whose mu is within ENDPOINT_TIE_REL
    (relative) of the lowest profile mu, so an interior minimum is reported
    at grid resolution.
    """

    R: float
    n: int
    A_min: float
    B_min: float
    J_min: float
    profile: tuple[tuple[float, float, float], ...]


def _half_term(
    n: int,
    radius: float,
    here: tuple[float, float, float, float],
    other: tuple[float, float, float, float],
) -> float:
    # radius 0 contributes exactly 0; the factors stay finite regardless
    if radius == 0.0:
        return 0.0
    m_p, m_m, d_p, d_m = here
    h = d_p * m_m - d_m * m_p
    # one pair product, so negating h negates the term exactly
    pair = other[0] * other[1]
    return radius**n * math.exp(0.5 * radius * radius) * h * pair


def jab_condition(n: int, A: float, B: float, lam: float) -> float:
    """Characteristic function F(lambda) for the radii pair (A, B).

    Swapping A and B returns the identical value; F is odd in lambda.  A
    zero radius costs no series (its factors are exactly 1) and the equal
    split A == B costs one secular pass, not two; both give the same bits
    as evaluating each radius's secular_parts.
    """
    check_dimension(n)
    for radius in (A, B):
        if not (math.isfinite(radius) and radius >= 0.0):
            raise ValueError("radii must be finite and nonnegative")
    if A == 0.0 and B == 0.0:
        raise ValueError("at least one radius must be positive")
    # M(a, b, 0) = 1 exactly and _half_term reads no derivative of a zero
    # radius, so that radius needs no series; the equal split needs one pass
    unit = (1.0, 1.0, 0.0, 0.0)
    parts_a = unit if A == 0.0 else secular_parts(n, 0, A, lam)
    if B == A:
        parts_b = parts_a
    else:
        parts_b = unit if B == 0.0 else secular_parts(n, 0, B, lam)
    return _half_term(n, A, parts_a, parts_b) + _half_term(
        n, B, parts_b, parts_a
    )


def _hint_bracket(f, hint: float) -> tuple[float, float] | None:
    """Lowest sign change of f among samples widening out from hint, or None.

    f is sampled at hint * (1 -/+ w) for w = HINT_WINDOW[0], then w times
    HINT_WIDEN, ..., up to HINT_WINDOW[1].  The first width whose samples
    change sign gives the bracket, between the lowest pair of neighbouring
    samples that differ in sign.  A sample that is exactly zero gives None,
    which leaves that case to the cold scan.
    """
    width, cap = HINT_WINDOW
    samples: list[tuple[float, float]] = []
    while True:
        width = min(width, cap)
        for x in (hint * (1.0 - width), hint * (1.0 + width)):
            fx = f(x)
            if fx == 0.0:
                return None
            samples.append((x, fx))
        samples.sort()
        for (x, fx), (xn, fn) in zip(samples, samples[1:]):
            if (fx < 0.0) != (fn < 0.0):
                return x, xn
        if width >= cap:
            return None
        width *= HINT_WIDEN


def _no_root_below(f, n: int, lo: float, radius: float) -> bool:
    """Whether the pair condition f has no root in (0, lo].

    F and every single-ball h are positive just above lambda = 0: there
    h_X ~ (lambda / b) M(1, b + 1, -X^2/2) > 0 and M_+ M_- ~ 1.  So F(lo) > 0
    leaves an even number of roots below lo, and h(lo) > 0 for the larger
    ball leaves an even number of its clamped roots below lo.  The pair's
    second root lies at or above the larger ball's lowest clamped root
    (fixing the matched slope to 0 is one linear constraint, and it leaves
    the two balls clamped), so while lo is below that ball's second root
    both checks together leave no root of F below lo.
    """
    return f(lo) > 0.0 and secular_h(n, 0, radius, lo) > 0.0


def solve_jab(
    n: int, A: float, B: float, lambda_hint: float | None = None
) -> JabSolution:
    """Smallest positive root of the pair condition, as a JabSolution.

    At the equal split A == B > 0 the root is mu_D1(A) (module docstring),
    taken from ball_spectrum.lowest_dirichlet_root; where that bracket does
    not close, the general path below runs.  Without a hint the root comes
    from the cold upward scan.  With lambda_hint (a warm start along a
    continuation path), F is sampled at hint * (1 -/+ 2e-3), and the
    bracket widens by HINT_WIDEN until the samples change sign.  The lower
    end lo of the lowest bracket must then pass two sign checks: F(lo) > 0
    (an even number of roots below lo) and h(lo) > 0 for the larger ball
    (lo below its lowest clamped root, which bounds the pair's second root
    from below).  Brent refines a bracket that passes.  The cold scan takes
    over when no bracket appears within hint * (1 -/+ 0.25) and when a
    check fails.  Each F value is computed once per solve, so Brent's and
    the cold scan's repeated evaluations of a point cost nothing.
    """
    check_dimension(n)
    if A == B and A > 0.0:
        lam = lowest_dirichlet_root(n, A)
        if lam is not None:
            return JabSolution(A=A, B=B, n=n, lam=lam, mu=lam * lam)
    memo: dict[float, float] = {}

    def f(lam: float) -> float:
        value = memo.get(lam)
        if value is None:
            value = memo[lam] = jab_condition(n, A, B, lam)
        return value

    # mu(A, B) <= Lambda_1(max(A, B)), so the lowest root lies at or below
    # the single-ball root of the larger radius
    radius = max(A, B)
    lam = None
    if lambda_hint is not None and lambda_hint > 0.0:
        bracket = _hint_bracket(f, lambda_hint)
        if bracket is not None and _no_root_below(f, n, bracket[0], radius):
            lam = float(brentq(f, *bracket, xtol=ROOT_XTOL, rtol=ROOT_RTOL))
    if lam is None:
        lam = scan_lowest_root(f, radius=radius)
    return JabSolution(A=A, B=B, n=n, lam=lam, mu=lam * lam)


def _check_split(n: int, R: float, grid_points: int) -> None:
    check_dimension(n)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError("radius must be finite and positive")
    if grid_points < 16:
        raise ValueError("need at least 16 grid points")


def _lowest_sample(samples):
    """The smallest-A (A, B, mu) within ENDPOINT_TIE_REL of the lowest mu."""
    lowest = min(mu for _, _, mu in samples)
    return next(s for s in samples if s[2] - lowest <= ENDPOINT_TIE_REL * lowest)


def minimize_jab(n: int, R: float, grid_points: int = GRID_POINTS) -> MinJabRecord:
    """Minimize mu(A, B) over the volume split of the R-ball, full profile.

    A runs over a uniform inclusive grid of grid_points samples on
    [0, A*(R)] with B the complement radius (B = R exactly at A = 0 and
    B = A* exactly at the equal split).  Each solve is warm-started
    (solve_jab): the A = 0 sample from the R-ball's lowest clamped root
    (lowest_eigenvalue), which is that sample's exact root because F at
    A = 0 is a positive multiple of h_R; the second sample from the first
    root; and every later one from the linear extrapolation
    2 lambda_(i-1) - lambda_(i-2) along the uniform grid.  The equal split
    gets the Dirichlet root mu_D1(A*) through solve_jab.  J_min is mu at
    the smallest-A sample within ENDPOINT_TIE_REL (relative) of the profile
    minimum: a tie goes to the single ball A = 0, and roundoff dips never
    displace an endpoint.  With no refinement between samples, an interior
    minimum shows at grid resolution.
    """
    _check_split(n, R, grid_points)
    a_star = half_mass_radius(n, R)
    solutions: list[JabSolution] = []
    # lowest_eigenvalue stops at MIN_RADIUS; below it the first solve is cold
    hint = lowest_eigenvalue(n, 0, R).lam if R >= MIN_RADIUS else None
    for i, a in enumerate(np.linspace(0.0, a_star, grid_points)):
        b = a_star if i == grid_points - 1 else complement_radius(n, R, float(a))
        sol = solve_jab(n, float(a), b, lambda_hint=hint)
        solutions.append(sol)
        # the grid is uniform in A: extrapolate the last two roots linearly
        hint = sol.lam if i == 0 else 2.0 * sol.lam - solutions[-2].lam

    A_min, B_min, J_min = _lowest_sample([(s.A, s.B, s.mu) for s in solutions])
    return MinJabRecord(
        R=R, n=n, A_min=A_min, B_min=B_min, J_min=J_min,
        profile=tuple((s.A, s.B, s.lam) for s in solutions),
    )


def split_minimum(
    n: int, R: float, lambda_1: float, grid_points: int = GRID_POINTS
) -> tuple[float, float, float]:
    """The minimizing (A, B, mu) of minimize_jab's grid, from its endpoints.

    lambda_1 is the R-ball's lowest clamped root, the A = 0 sample's root.
    The equal split's root is mu_D1(A*) (solve_jab), and lambda_end is the
    smaller of the two.  Where the Dirichlet bracket does not close (from
    R of about 5), solve_jab scans the equal split cold and its root lies
    above lb_2(A*): a closed bracket keeps Brent's root inside [lb_1, lb_2],
    and an unclosed one leaves mu_D1(A*), the lowest root of F there, above
    lb_2.  Such a row returns minimize_jab's minimum, from its warm chain.
    Every interior sample of minimize_jab's grid is
    first tried against the certificate of the module docstring:
    lambda_end < min(lb_1(A), lb_2(B)) and F(lambda_end) > 0 put its root
    above lambda_end, so it cannot be the minimum.  A sample that fails is
    solved, warm-started from lambda_end, and joins the candidates.  The
    minimum among the endpoints and the solved samples is picked by
    minimize_jab's rule, so the two agree on the minimizer.
    """
    _check_split(n, R, grid_points)
    a_star = half_mass_radius(n, R)
    end = solve_jab(n, a_star, a_star)
    j1, j2 = _bessel_zeros(0.5 * n - 1.0)
    if end.lam > (j2 / a_star) ** 2 + 0.5 * n:
        # no Dirichlet root on [lb_1, lb_2], so solve_jab scanned cold, which
        # can land on a higher root: keep minimize_jab's warm chain instead
        record = minimize_jab(n, R, grid_points)
        return record.A_min, record.B_min, record.J_min
    lam_end = min(lambda_1, end.lam)
    samples = [(0.0, R, lambda_1 * lambda_1)]
    for a in np.linspace(0.0, a_star, grid_points)[1:-1]:
        a = float(a)
        b = complement_radius(n, R, a)
        bound = min((j1 / a) ** 2, (j2 / b) ** 2) + 0.5 * n
        if lam_end < bound and jab_condition(n, a, b, lam_end) > 0.0:
            continue
        samples.append((a, b, solve_jab(n, a, b, lambda_hint=lam_end).mu))
    samples.append((a_star, a_star, end.mu))
    return _lowest_sample(samples)

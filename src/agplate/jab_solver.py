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

Every pair root has one certified bracket.  Sort the radii so that
A <= B.  A zero radius contributes nothing, so F(0, B) is a positive
multiple of h_B and its lowest root is bracketed on B's floors
(ball_spectrum): [floor_1(B), floor_2(B)].  For 0 < A < B, Dirichlet
frequencies fall as the ball grows, so nu_1 = mu_D1(B) >= floor_1(B) and
nu_2 = min(mu_D1(A), mu_D2(B)) >= min(mu_D1(A), floor_2(B)).  With
nu_1 <= lambda_1(A, B) <= nu_2 <= lambda_2(A, B), the bracket
[floor_1(B), min(mu_D1(A), floor_2(B))] holds lambda_1(A, B) and no other
root, so a sign change of F there is lambda_1(A, B), which Brent's method
refines.  mu_D1(A) >= floor_1(A), so mu_D1(A) is solved for only when
floor_1(A) < floor_2(B).  A bracket without a sign change raises
NoRootFound; no search runs past it.

The split minimum is certified from its two endpoints.  All the premises
below rest on one more: F's positive roots are the pair's eigenvalue
frequencies lambda_k(A, B), each a simple root, and F > 0 just above
lambda = 0 (there h_X ~ (lambda / b) M(1, b + 1, -X^2/2) > 0 and
M_+ M_- ~ 1).  Let lambda_end = min(lambda_1(R), mu_D1(A*)), the smaller
endpoint root.  For an interior split 0 < A < A* < B, nu_2 >=
min(mu_D1(A), mu_D2(B)) >= min(floor_1(A), floor_2(B)).  When lambda_end
lies below that bound, (0, lambda_end] holds at most lambda_1(A, B);
F(lambda_end) > 0 leaves an even number of roots there, hence none, and
mu(A, B) > lambda_end^2, which is at least the lower endpoint's mu.
split_minimum (what c_constant uses) therefore needs only the sign of F
at lambda_end on each interior sample that passes the floor test, and
solves only the samples that fail.  It takes the R-ball's radial
SpectralMode, which names n and R and carries lambda_1(R), so the ball
and its root cannot disagree.  The certificate does not rely on the
endpoint roots being right: a certified sample lies above whatever the
endpoints returned.

Those signs come from one batched F per row: jab_condition over arrays A
and B evaluates M_+ and M_- at every radius with one kummer.eval_m_many
table each.  Its values differ from the scalar F in the last bits, so a
sign is taken from the table only where it is certain to be the scalar's.
For an ok entry, each of the eight series values x (M_+, M_-, M_+', M_-'
at A and at B) lies within eta S_x of the true value on both routes, where
S_x is its sum of term magnitudes and eta = kummer.MANY_REL_ERROR.  To
first order in eta and u = 2^-53, and with P_X = X^n e^(X^2/2) within 6u
on either route (pow and exp each within an ulp, and one product):

    h_X = M_+' M_- - M_-' M_+    is within (2 eta + 3u) H_X,
                                 H_X = S_(M_+') S_(M_-) + S_(M_-') S_(M_+),
    q_X = M_+ M_-                is within (2 eta + 2u) Q_X,
                                 Q_X = S_(M_+) S_(M_-),
    P_A h_A q_B + P_B h_B q_A    is within (4 eta + 14u) Phi,
                                 Phi = P_A H_A Q_B + P_B H_B Q_A,

of the exact F on each route, so the two routes differ by at most
(8 eta + 28u) Phi.  An entry keeps its batched value when both radii are
ok and |F| exceeds twice that (F_TOL * Phi, which also covers the
second-order terms and the rounding of Phi); every other entry is
evaluated by the scalar route.  The signs, and so the certified samples,
are exactly the scalar F's.  The batched values are odd in lambda and
symmetric under swapping A and B bit for bit, like the scalar ones.

minimize_jab keeps the whole profile: A runs over a uniform grid from 0 to
the half-mass radius A*(R) and B is the complement radius, so the pair
always fills the weighted volume of the R-ball.  Each sample is solved on
its own bracket (solve_jab); the A = 0 sample's root is the R-ball's
clamped root and the last sample's, the equal split, is the Dirichlet
root.  jab_condition spends no series on a zero radius and one secular
pass on the equal split.  In both routines J_min is mu at the smallest-A
sample within ENDPOINT_TIE_REL (relative) of the lowest sampled mu, so ties
go to A = 0.  Nothing refines between samples: an interior minimum shows
at grid resolution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ball_spectrum import (
    SpectralMode,
    _bracketed_root,
    _floors,
    lowest_dirichlet_root,
    secular_parts,
)
# not called here, but perfbench/tracer.py requires this binding
from .ball_spectrum import scan_lowest_root  # noqa: F401
from .errors import check_dimension
from .kummer import MANY_REL_ERROR, UNIT_ROUNDOFF, KummerParams, eval_m_many
from .measure import phi_inverse, phi_volume
# not called here, but perfbench/tracer.py requires these bindings
from .measure import complement_radius, half_mass_radius  # noqa: F401

GRID_POINTS = 16
ENDPOINT_TIE_REL = 1e-9
# a batched |F| above F_TOL * Phi has the scalar F's sign (module docstring)
F_TOL = 2.0 * (8.0 * MANY_REL_ERROR + 28.0 * UNIT_ROUNDOFF)


@dataclass(frozen=True)
class JabSolution:
    """Smallest positive characteristic root lam for one pair of radii."""

    A: float
    B: float
    n: int
    lam: float

    def __post_init__(self) -> None:
        if self.A < 0.0 or self.B < 0.0:
            raise ValueError("radii must be nonnegative")
        if not self.lam > 0.0:
            raise ValueError("root must be positive")

    @property
    def mu(self) -> float:
        """The coupled eigenvalue, lam**2."""
        return self.lam * self.lam


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


def _check_pair(n: int, A: float, B: float) -> None:
    check_dimension(n)
    for radius in (A, B):
        if not (math.isfinite(radius) and radius >= 0.0):
            raise ValueError("radii must be finite and nonnegative")
    if A == 0.0 and B == 0.0:
        raise ValueError("at least one radius must be positive")


def jab_condition(n: int, A, B, lam: float):
    """Characteristic function F(lambda) for the radii pair (A, B).

    Swapping A and B returns the identical value; F is odd in lambda.  A
    zero radius costs no series (its factors are exactly 1) and the equal
    split A == B costs one secular pass, not two; both give the same bits
    as evaluating each radius's secular_parts.

    Given equal-length 1-D arrays A and B, returns the ndarray of F at each
    pair, from one eval_m_many table per branch.  Each entry has the scalar
    F's sign, and its value is the scalar F's to within F_TOL times its
    magnitude bound; entries the table cannot decide are the scalar F
    (module docstring).
    """
    if np.ndim(A) or np.ndim(B):
        return _condition_many(n, A, B, lam)
    _check_pair(n, A, B)
    return _condition(n, A, B, lam)


def _condition(n: int, A: float, B: float, lam: float) -> float:
    """The scalar F for a checked pair."""
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


def _condition_many(n: int, A, B, lam: float) -> np.ndarray:
    """F at the pairs (A[i], B[i]), batched where its sign is certain."""
    check_dimension(n)
    radii = np.array((A, B), dtype=float)
    if radii.ndim != 2:
        raise ValueError("A and B must be 1-D arrays of equal length")
    if not (np.isfinite(radii).all() and (radii >= 0.0).all()):
        raise ValueError("radii must be finite and nonnegative")
    if (radii == 0.0).all(axis=0).any():
        raise ValueError("at least one radius must be positive")
    # row 0 holds the A radii and row 1 the B radii; each radius's term
    # takes the other row's pair product, so pair[::-1] lines them up
    z = (-0.5 * radii * radii).ravel()
    plus = eval_m_many(KummerParams(0.5 * lam, 0.5 * n), z)
    minus = eval_m_many(KummerParams(-0.5 * lam, 0.5 * n), z)
    m_p, d_p, s_p, sd_p, m_m, d_m, s_m, sd_m = (
        x.reshape(radii.shape) for x in (*plus[:4], *minus[:4])
    )
    with np.errstate(all="ignore"):
        weight = radii**n * np.exp(0.5 * radii * radii)
        pair = m_p * m_m
        term = weight * (d_p * m_m - d_m * m_p) * pair[::-1]
        pair_bound = s_p * s_m
        term_bound = weight * (sd_p * s_m + sd_m * s_p) * pair_bound[::-1]
        F = term[0] + term[1]
        ok = (plus.ok & minus.ok).reshape(radii.shape).all(axis=0)
        sure = ok & (np.abs(F) > F_TOL * (term_bound[0] + term_bound[1]))
    for i in np.flatnonzero(~sure).tolist():
        F[i] = _condition(n, float(radii[0, i]), float(radii[1, i]), lam)
    return F


def solve_jab(n: int, A: float, B: float) -> JabSolution:
    """Smallest positive root of the pair condition, as a JabSolution.

    With A <= B after sorting: the equal split A == B returns mu_D1(A)
    (ball_spectrum.lowest_dirichlet_root); A == 0 brackets F, a positive
    multiple of h_B, on B's floors [floor_1(B), floor_2(B)]; and 0 < A < B
    brackets F on [floor_1(B), min(floor_2(B), mu_D1(A))], solving for
    mu_D1(A) only when floor_1(A) < floor_2(B) (module docstring).  Each
    bracket holds the lowest root and no other, and Brent's method refines
    it.  A bracket without a sign change raises NoRootFound.

    At lambda = mu_D1(A) < floor_2(B), M_+ vanishes at A and F has the sign
    of M_+ at B, negative exactly when mu_D1(B) < mu_D1(A).  So F >= 0 there
    means the two Dirichlet roots agree to the precision they are computed
    to (a split equal to rounding), and the root between them is returned
    as mu_D1(A).
    """
    _check_pair(n, A, B)
    small, large = sorted((A, B))
    if small == large:
        lam = lowest_dirichlet_root(n, small)
    else:
        lam = _pair_root(n, small, large, f"n={n}, A={A!r}, B={B!r}")
    return JabSolution(A=A, B=B, n=n, lam=lam)


def _pair_root(n: int, small: float, large: float, where: str) -> float:
    """Lowest root of F for 0 <= small < large, on solve_jab's bracket."""

    @functools.cache
    def f(t: float) -> float:
        return jab_condition(n, small, large, t)

    lo, hi = _floors(n, 0, large)
    if small > 0.0 and _floors(n, 0, small)[0] < hi:
        mu_small = lowest_dirichlet_root(n, small)
        if mu_small < hi and f(mu_small) >= 0.0:
            return mu_small
        hi = min(hi, mu_small)
    return _bracketed_root(f, lo, hi, where)


def _check_split(n: int, R: float, grid_points: int) -> None:
    check_dimension(n)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError("radius must be finite and positive")
    if grid_points < 16:
        raise ValueError("need at least 16 grid points")


def _split_grid(
    n: int, R: float, grid_points: int
) -> list[tuple[float, float]]:
    """minimize_jab's (A, B) samples, with Phi(R) computed once.

    A runs over a uniform inclusive grid on [0, A*(R)] and B fills the rest
    of the R-ball's weighted volume: A* = phi_inverse(Phi(R) / 2) and each
    interior B = phi_inverse(Phi(R) - Phi(A)), the same bits as
    half_mass_radius and complement_radius.  B = R exactly at A = 0 and
    B = A* exactly at the equal split.
    """
    total = phi_volume(n, R)
    a_star = phi_inverse(n, 0.5 * total)
    inner = [float(a) for a in np.linspace(0.0, a_star, grid_points)[1:-1]]
    return (
        [(0.0, R)]
        + [(a, phi_inverse(n, total - phi_volume(n, a))) for a in inner]
        + [(a_star, a_star)]
    )


def _lowest_sample(samples):
    """The smallest-A (A, B, mu) within ENDPOINT_TIE_REL of the lowest mu."""
    lowest = min(mu for _, _, mu in samples)
    return next(s for s in samples if s[2] - lowest <= ENDPOINT_TIE_REL * lowest)


def minimize_jab(n: int, R: float, grid_points: int = GRID_POINTS) -> MinJabRecord:
    """Minimize mu(A, B) over the volume split of the R-ball, full profile.

    A runs over a uniform inclusive grid of grid_points samples on
    [0, A*(R)] with B the complement radius (B = R exactly at A = 0 and
    B = A* exactly at the equal split).  Each sample is solved on its own
    certified bracket (solve_jab): the A = 0 sample's root is the R-ball's
    lowest clamped root, because F at A = 0 is a positive multiple of h_R,
    and the equal split's is the Dirichlet root mu_D1(A*).  J_min is mu at
    the smallest-A sample within ENDPOINT_TIE_REL (relative) of the profile
    minimum: a tie goes to the single ball A = 0, and roundoff dips never
    displace an endpoint.  With no refinement between samples, an interior
    minimum shows at grid resolution.
    """
    _check_split(n, R, grid_points)
    solutions = [solve_jab(n, a, b) for a, b in _split_grid(n, R, grid_points)]

    A_min, B_min, J_min = _lowest_sample([(s.A, s.B, s.mu) for s in solutions])
    return MinJabRecord(
        R=R, n=n, A_min=A_min, B_min=B_min, J_min=J_min,
        profile=tuple((s.A, s.B, s.lam) for s in solutions),
    )


def split_minimum(
    mode: SpectralMode, grid_points: int = GRID_POINTS
) -> tuple[float, float, float]:
    """The minimizing (A, B, mu) of minimize_jab's grid, from its endpoints.

    mode is the radial (l = 0) mode of lowest_eigenvalue(n, 0, R), whose
    ball is split; its root lambda_1 is the A = 0 sample's root and its
    Lambda that sample's mu.  A mode of another degree raises ValueError.
    The equal split's root is mu_D1(A*) (solve_jab), and lambda_end is the
    smaller of the two.  Every interior sample of minimize_jab's grid is
    first tried against the certificate of the module docstring:
    lambda_end < min(floor_1(A), floor_2(B)) and F(lambda_end) > 0 put its
    root above lambda_end, so it cannot be the minimum.  The signs of F at
    the samples that pass the floor test come from one batched
    jab_condition call.  A sample that fails is solved on its bracket and
    joins the candidates, in grid order.  The minimum among
    the endpoints and the solved samples is picked by minimize_jab's rule,
    so the two agree on the minimizer.
    """
    if mode.l != 0:
        raise ValueError("the split minimum needs the radial (l = 0) mode")
    n, R = mode.n, mode.R
    _check_split(n, R, grid_points)
    grid = _split_grid(n, R, grid_points)
    a_star = grid[-1][0]
    end = solve_jab(n, a_star, a_star)
    lam_end = min(mode.lam, end.lam)
    inner = grid[1:-1]
    tried = [
        i for i, (a, b) in enumerate(inner)
        if lam_end < min(_floors(n, 0, a)[0], _floors(n, 0, b)[1])
    ]
    certified = set()
    if tried:
        A, B = np.array([inner[i] for i in tried]).T
        F = jab_condition(n, A, B, lam_end)
        certified = {i for i, value in zip(tried, F.tolist()) if value > 0.0}
    samples = [(0.0, R, mode.Lambda)]
    for i, (a, b) in enumerate(inner):
        if i not in certified:
            samples.append((a, b, solve_jab(n, a, b).mu))
    samples.append((a_star, a_star, end.mu))
    return _lowest_sample(samples)

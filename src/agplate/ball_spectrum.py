"""Lowest eigenvalues of the clamped fourth-order problem on centered balls.

For the weight w(r) = exp(r^2/2) on R^n, profiles of degree-l spherical
harmonics see the second-order radial operator

    (L_l y)(r) = y'' + ((n - 1)/r + r) y' - l (l + n - 2) / r^2 * y.

The clamped problem on the ball of radius R asks for Lambda > 0 and y != 0
bounded at the origin with

    (L_l L_l y)(r) = Lambda y(r)  on (0, R),      y(R) = y'(R) = 0.

Writing Lambda = lambda^2, the bounded solutions of (L_l +/- lambda) y = 0
are

    y_pm(r) = r^l M((l +/- lambda) / 2,  n/2 + l,  -r^2 / 2)

with M the confluent hypergeometric function, and their span contains a
nontrivial clamped combination exactly when the boundary determinant

    h_R(lambda) = M_+'(z) M_-(z) - M_-'(z) M_+(z),    z = -R^2 / 2

vanishes (primes are d/dz).  h_R is odd in lambda with a trivial zero at 0;
its smallest positive zero gives the fundamental eigenvalue Lambda_1 =
lambda_1^2.  The clamped eigenfunction is y = r^l (M_+ + G_R M_-) with
mixing coefficient G_R = -M_+(z)/M_-(z); M_- has no zeros at negative z,
so G_R is always finite.

Zeros are located by stepping lambda in fixed increments and refining each
sign change with Brent's method.  The scan works in the scaled variable
s = lambda R^2: for R < 1 the step, the starting ceiling (50) and the cap
(6400) are all multiplied by 1/R^2, so the cost of a scan does not grow as
the ball shrinks.  This follows the small-ball limit Lambda_1 ~ c_n / R^4
of the Euclidean clamped plate (Ashbaugh & Benguria, Duke Math. J. 78
(1995)): the fundamental root sits near s = sqrt(c_n), about 10.2 in the
plane, at every small radius.  For R >= 1 the sampled lambda grid is the
unscaled one.  A scan that finds no sign change below its cap raises
NoRootFound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import NoRootFound, check_degree, check_dimension
from .kummer import KummerParams, eval_m, eval_m_dz

SCAN_STEP = 0.25
SCAN_CEILING = 50.0
SCAN_CEILING_MAX = 6400.0
ROOT_XTOL = 1e-14
ROOT_RTOL = 1e-11
REJECT_BELOW = 1e-6
MIN_RADIUS = 1e-3


@dataclass(frozen=True)
class SpectralMode:
    """One clamped eigenvalue on the degree-l harmonic sector.

    lam is the positive zero of the boundary determinant, Lambda = lam**2
    exactly (stored redundantly), and G_R the mixing coefficient of the
    second confluent factor in the eigenfunction.
    """

    l: int
    lam: float
    Lambda: float
    G_R: float

    def __post_init__(self) -> None:
        check_degree(self.l)
        if not self.lam > 0.0:
            raise ValueError("frequency must be positive")
        if self.Lambda != self.lam * self.lam:
            raise ValueError("Lambda must equal lam squared exactly")


@dataclass(frozen=True)
class RadialProfile:
    """A sampled radial eigenfunction: values[i] = y(radii[i]) on [0, R]."""

    radii: np.ndarray
    values: np.ndarray


def secular_parts(
    n: int, l: int, r: float, lam: float
) -> tuple[float, float, float, float]:
    """Values and z-derivatives (M_+, M_-, M_+', M_-') at z = -r^2/2."""
    check_dimension(n)
    check_degree(l)
    z = -0.5 * r * r
    b = 0.5 * n + l
    plus = KummerParams(0.5 * (l + lam), b)
    minus = KummerParams(0.5 * (l - lam), b)
    return (
        eval_m(plus, z).value,
        eval_m(minus, z).value,
        eval_m_dz(plus, z).value,
        eval_m_dz(minus, z).value,
    )


def secular_h(n: int, l: int, R: float, lam: float) -> float:
    """Boundary determinant h_R(lambda); odd in lambda, zero iff clamped."""
    m_p, m_m, d_p, d_m = secular_parts(n, l, R, lam)
    return d_p * m_m - d_m * m_p


def scan_lowest_root(f: Callable[[float], float], radius: float) -> float:
    """Smallest root of f above REJECT_BELOW, by fixed-step sign scanning.

    The scan runs in the scaled variable lambda * radius^2: SCAN_STEP,
    SCAN_CEILING and SCAN_CEILING_MAX are multiplied by max(1, 1/radius^2),
    so a ball of radius below 1 is scanned with as many samples as the unit
    ball; for radius >= 1 they are used as they are.  f is sampled at step,
    2*step, ... and each sign change is refined with Brent's method.  When
    no change appears below the current ceiling the ceiling doubles, up to
    the scaled SCAN_CEILING_MAX; exhaustion raises NoRootFound.  Roots at
    or below REJECT_BELOW are treated as spurious and skipped.  A radius
    <= 0 raises ValueError.
    """
    if not radius > 0.0:
        raise ValueError("scan radius must be positive")
    scale = max(1.0, 1.0 / (radius * radius))
    step, max_ceiling = scale * SCAN_STEP, scale * SCAN_CEILING_MAX
    x = step
    fx = f(x)
    if fx == 0.0 and x > REJECT_BELOW:
        return x
    top = scale * SCAN_CEILING
    while True:
        while x < top:
            xn = x + step
            fn = f(xn)
            if fn == 0.0 and xn > REJECT_BELOW:
                return xn
            if fx != 0.0 and fn != 0.0 and (fx < 0.0) != (fn < 0.0):
                root = brentq(f, x, xn, xtol=ROOT_XTOL, rtol=ROOT_RTOL)
                if root > REJECT_BELOW:
                    return root
            x, fx = xn, fn
        if top >= max_ceiling:
            raise NoRootFound(
                f"no sign change found for lambda up to {max_ceiling:g}"
            )
        top = min(2.0 * top, max_ceiling)


def lowest_eigenvalue(n: int, l: int, R: float) -> SpectralMode:
    """Fundamental clamped eigenvalue on the ball of radius R, degree l."""
    check_dimension(n)
    check_degree(l)
    if not (math.isfinite(R) and R >= MIN_RADIUS):
        raise ValueError(f"radius must be finite and at least {MIN_RADIUS}")
    lam = scan_lowest_root(lambda t: secular_h(n, l, R, t), radius=R)
    m_p, m_m, _, _ = secular_parts(n, l, R, lam)
    return SpectralMode(l=l, lam=lam, Lambda=lam * lam, G_R=-m_p / m_m)


def eigenvalue_curve(
    n: int, l: int, radii: Sequence[float]
) -> list[tuple[float, float]]:
    """(R, lambda) pairs of the fundamental mode along an increasing grid."""
    radii = [float(R) for R in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radius grid must be strictly increasing")
    return [(R, lowest_eigenvalue(n, l, R).lam) for R in radii]


def eigenfunction_profile(
    mode: SpectralMode, n: int, R: float, samples: int = 512
) -> RadialProfile:
    """Sample the clamped eigenfunction y = r^l (M_+ + G_R M_-) on [0, R]."""
    check_dimension(n)
    if samples < 2:
        raise ValueError("need at least two samples")
    b = 0.5 * n + mode.l
    plus = KummerParams(0.5 * (mode.l + mode.lam), b)
    minus = KummerParams(0.5 * (mode.l - mode.lam), b)
    radii = np.linspace(0.0, R, samples)
    values = np.empty_like(radii)
    for i, ri in enumerate(radii):
        z = -0.5 * ri * ri
        values[i] = ri**mode.l * (
            eval_m(plus, z).value + mode.G_R * eval_m(minus, z).value
        )
    return RadialProfile(radii=radii, values=values)

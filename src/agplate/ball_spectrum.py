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

The lowest root is bracketed by Dirichlet eigenvalues.  The substitution
u = exp(-r^2/4) v maps L^2(w) unitarily onto L^2, keeps the Dirichlet
condition, and turns -L into -Delta + r^2/4 + n/2.  So the Dirichlet
eigenvalues mu_k of -L_l on the ball of radius R satisfy

    mu_k >= lb_k = j_{nu,k}^2 / R^2 + n/2,     nu = n/2 + l - 1,

with j_{nu,k} the k-th positive zero of the Bessel function J_nu; the mu_k
are the zeros of lambda -> M_+(z), where y_+ meets the Dirichlet condition.
Let m_pm = y_pm'(R) / y_pm(R).  Between its poles, which are the mu_k, m_+ is
strictly monotone in lambda; M_- has no zeros, so m_- is finite and monotone
in the other direction.  Hence h_R = -M_+ M_- (m_+ - m_-) / R has no
root in (0, mu_1] and exactly one in each interval (mu_k, mu_{k+1}):
mu_k < lambda_k < mu_{k+1}.  The interval
(0, lb_2] lies inside (0, mu_2), so it holds at most one root, lambda_1.
When h_R changes sign between lb_1 and lb_2, Brent's method on that
bracket returns the lowest root, certified.  The bracket closes for every
radius up to about R = 4.85-6.1 (n <= 40, l <= 2), and Bessel zeros are
constants of (n, l), computed once per order nu.  On all of R^n the same
operator is n/2 plus a harmonic oscillator whose lowest level in the
degree-l sector is l + n/2, and a ball's Dirichlet level lies strictly
above the whole space's; so mu_1 > n + l, and where lb_2 <= n + l the
bracket cannot hold lambda_1 and is not tried.

Where h_R has one sign at both ends, the root lies above lb_2 and the fixed
step scan takes over.  It steps lambda in fixed increments and refines
the first sign change with Brent's method.  The scan works in the scaled
variable s = lambda R^2: for R < 1 the step, the starting ceiling (50) and
the cap (6400) are all multiplied by 1/R^2, so the cost of a scan does not
grow as the ball shrinks.  This follows the small-ball limit
Lambda_1 ~ c_n / R^4 of the Euclidean clamped plate (Ashbaugh & Benguria,
Duke Math. J. 78 (1995)): the fundamental root sits near s = sqrt(c_n),
about 10.2 in the plane, at every small radius.  For R >= 1 the sampled
lambda grid is the unscaled one.  A scan that finds no sign change below
its cap raises NoRootFound; only the fallback scan can raise it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize, special
from scipy.optimize import brentq

from .errors import NoRootFound, check_degree, check_dimension
from .kummer import KummerParams, eval_m
# not called here, but perfbench/tracer.py requires this binding
from .kummer import eval_m_dz  # noqa: F401

SCAN_STEP = 0.25
SCAN_CEILING = 50.0
SCAN_CEILING_MAX = 6400.0
ROOT_XTOL = 1e-14
ROOT_RTOL = 1e-11
REJECT_BELOW = 1e-6
MIN_RADIUS = 1e-3
# relative shave that keeps a computed Bessel zero below the true one
BESSEL_ZERO_SHAVE = 1e-12
# brentq's smallest accepted relative tolerance
BRENT_RTOL_MIN = 4.0 * np.finfo(float).eps


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
    plus = eval_m(KummerParams(0.5 * (l + lam), b), z)
    minus = eval_m(KummerParams(0.5 * (l - lam), b), z)
    return plus.value, minus.value, plus.derivative, minus.derivative


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


@functools.lru_cache
def _bessel_zeros(nu: float) -> tuple[float, float]:
    """First two positive zeros of J_nu, shaved to sure lower bounds.

    The zeros exceed nu and are more than 3 apart, so a step of 0.5 from nu
    separates them.  They are refined with scipy's brentq under its module
    name, which keeps this one-time work out of the Brent counts of the
    module's own brentq binding.
    """
    zeros = []
    x, fx = nu, special.jv(nu, nu)
    while len(zeros) < 2:
        xn = x + 0.5
        fn = special.jv(nu, xn)
        if (fx < 0.0) != (fn < 0.0):
            root = optimize.brentq(
                lambda t: special.jv(nu, t), x, xn, xtol=1e-15, rtol=BRENT_RTOL_MIN
            )
            zeros.append(root * (1.0 - BESSEL_ZERO_SHAVE))
        x, fx = xn, fn
    return zeros[0], zeros[1]


def _bracketed_root(
    f: Callable[[float], float], n: int, l: int, R: float
) -> float | None:
    """The root of f on [lb_1, lb_2], or None when it has none there.

    f is h_R (lowest_eigenvalue) or, at l = 0, M_+ (lowest_dirichlet_root).
    Either has at most its lowest zero on [lb_1, lb_2], and that zero lies
    above n + l (lambda_1 > mu_1 > n + l), so a bracket with lb_2 <= n + l
    is skipped for both.
    """
    j1, j2 = _bessel_zeros(0.5 * n + l - 1.0)
    lo = (j1 / R) ** 2 + 0.5 * n
    hi = (j2 / R) ** 2 + 0.5 * n
    if hi <= n + l:  # lambda_1 > mu_1 > n + l
        return None
    ends = {lo: f(lo), hi: f(hi)}
    if not ((ends[lo] < 0.0 < ends[hi]) or (ends[hi] < 0.0 < ends[lo])):
        return None
    # brentq starts by evaluating both ends again; hand it these values
    return brentq(
        lambda t: ends.pop(t) if t in ends else f(t),
        lo,
        hi,
        xtol=ROOT_XTOL,
        rtol=BRENT_RTOL_MIN,
    )


def lowest_eigenvalue(n: int, l: int, R: float) -> SpectralMode:
    """Fundamental clamped eigenvalue on the ball of radius R, degree l.

    The root is bracketed by the Dirichlet lower bounds lb_1 and lb_2 (see
    the module docstring).  When h_R changes sign between them, Brent's
    method refines the one root there, which is certified to be the lowest;
    otherwise scan_lowest_root finds it, and only then can NoRootFound be
    raised.
    """
    check_dimension(n)
    check_degree(l)
    if not (math.isfinite(R) and R >= MIN_RADIUS):
        raise ValueError(f"radius must be finite and at least {MIN_RADIUS}")

    def f(t: float) -> float:
        return secular_h(n, l, R, t)

    lam = _bracketed_root(f, n, l, R)
    if lam is None:
        lam = scan_lowest_root(f, radius=R)
    m_p, m_m, _, _ = secular_parts(n, l, R, lam)
    return SpectralMode(l=l, lam=lam, Lambda=lam * lam, G_R=-m_p / m_m)


def lowest_dirichlet_root(n: int, X: float) -> float | None:
    """mu_D1(X), the lowest zero of lambda -> M(lambda/2, n/2, -X^2/2), or None.

    This is the first radial Dirichlet frequency of -L on the ball of radius
    X (the zeros in lambda of M_+ at l = 0 are the mu_k, and they are
    simple).  It is found on the same bracket as the clamped root: mu_k >=
    lb_k by the unitary map of the module docstring, and M_+ = 1 at
    lambda = 0, so M_+ > 0 on [0, mu_1).  (0, lb_2] lies inside (0, mu_2)
    and holds at most mu_1, so a sign change on [lb_1, lb_2] brackets
    mu_1, which Brent's method refines.  mu_1 > n, the whole space's
    lowest level, so the lb_2 <= n skip holds as well.  None means the
    bracket did not close (large X).
    """
    check_dimension(n)
    if not (math.isfinite(X) and X > 0.0):
        raise ValueError("radius must be finite and positive")

    def f(t: float) -> float:
        return eval_m(KummerParams(0.5 * t, 0.5 * n), -0.5 * X * X).value

    return _bracketed_root(f, n, 0, X)


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

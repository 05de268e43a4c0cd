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
condition, and turns -L into -Delta + r^2/4 + n/2.  Let mu_k be the
Dirichlet eigenvalues of -L_l on the ball of radius R; they are the zeros
of lambda -> M_+(z), where y_+ meets the Dirichlet condition.  Let m_pm =
y_pm'(R) / y_pm(R).  Between its poles, which are the mu_k, m_+ is strictly
monotone in lambda; M_- has no zeros, so m_- is finite and monotone in the
other direction.  Hence h_R = -M_+ M_- (m_+ - m_-) / R has no root in
(0, mu_1] and exactly one in each interval (mu_k, mu_{k+1}):
mu_k < lambda_k < mu_{k+1}.  So (0, mu_2) holds one root of h_R, lambda_1,
and one zero of M_+, mu_1; any [lo, hi] with lo <= mu_1 and hi < mu_2 on
which h_R (or M_+) changes sign brackets exactly that root.

The floors.  With nu = n/2 + l - 1, c = n/2 + l and a_k = j_{nu,k}^2 / R^2
(j_{nu,k} the k-th positive zero of the Bessel function J_nu), write, for
any e in [0, 1],

    -Delta_D + r^2/4 = e (-Delta_D) + [(1 - e)(-Delta_D) + r^2/4].

The first operator's degree-l levels are e a_k.  The second lies above
the whole-space oscillator (1 - e)(-Delta) + r^2/4 (a Dirichlet form is
the whole-space form restricted to a smaller domain), whose degree-l
levels are sqrt(1 - e)(c + 2m), m = 0, 1, ...  Weyl's inequality for a
sum, lambda_{i+j-1}(P + Q) >= lambda_i(P) + lambda_j(Q) (Weyl, Math. Ann.
71 (1912)), then gives

    mu_1 >= floor_1 = n/2 + W(a_1, c),
    mu_2 >= floor_2 = n/2 + max(W(a_2, c), W(a_1, c + 2)),

with W(a, c) = max over e of e a + sqrt(1 - e) c, which is a + c^2/(4a)
when 2a >= c and c otherwise.  At e = 1 the floors are the Dirichlet
Laplacian's bounds lb_k = a_k + n/2; at e = 0 they are the whole space's
levels n + l and n + l + 2.  W does not decrease in a, so Bessel zeros
shaved below their true values keep both floors lower bounds.  The
bracket [floor_1, floor_2] closes (floor_2 > lambda_1) for every n <= 40,
l <= 3 and R in [1e-3, 12] tested, and the Bessel zeros are constants of
(n, l), computed once per order nu.  A bracket that does not close raises
NoRootFound naming n, l, R and the bracket; no search runs past it.

scan_lowest_root, a fixed-step scan in the scaled variable lambda R^2, is
kept as an independent reference for tests; no library path calls it.
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

    No library path calls this; it is the tests' independent reference for
    the bracketed roots, and a binding the benchmark's tracer wraps.  The
    scan runs in the scaled variable lambda * radius^2: SCAN_STEP and
    SCAN_CEILING_MAX are multiplied by max(1, 1/radius^2), so a ball of
    radius below 1 is scanned with as many samples as the unit ball (the
    flat plate's Lambda_1 ~ c_n / R^4 keeps the root near a fixed
    lambda R^2 as the ball shrinks).  f is sampled at step, 2*step, ... and
    the first sign change is refined with Brent's method.  No change below
    the scaled SCAN_CEILING_MAX raises NoRootFound.  Roots at or below
    REJECT_BELOW are treated as spurious and skipped.  A radius <= 0 raises
    ValueError.
    """
    if not radius > 0.0:
        raise ValueError("scan radius must be positive")
    scale = max(1.0, 1.0 / (radius * radius))
    step, ceiling = scale * SCAN_STEP, scale * SCAN_CEILING_MAX
    x = step
    fx = f(x)
    if fx == 0.0 and x > REJECT_BELOW:
        return x
    while x < ceiling:
        xn = x + step
        fn = f(xn)
        if fn == 0.0 and xn > REJECT_BELOW:
            return xn
        if fx != 0.0 and fn != 0.0 and (fx < 0.0) != (fn < 0.0):
            root = brentq(f, x, xn, xtol=ROOT_XTOL, rtol=ROOT_RTOL)
            if root > REJECT_BELOW:
                return root
        x, fx = xn, fn
    raise NoRootFound(f"no sign change found for lambda up to {ceiling:g}")


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


def _weyl(a: float, c: float) -> float:
    """max over e in [0, 1] of e a + sqrt(1 - e) c, the floors' W(a, c)."""
    return a + c * c / (4.0 * a) if 2.0 * a >= c else c


def _floors(n: int, l: int, X: float) -> tuple[float, float]:
    """Certified lower bounds (floor_1, floor_2) on mu_1 and mu_2 at radius X.

    These are the Weyl floors of the module docstring, from the shaved
    Bessel zeros of order n/2 + l - 1.
    """
    j1, j2 = _bessel_zeros(0.5 * n + l - 1.0)
    # products, not powers: a ball too small for a double gets inf floors
    a1, a2 = (j1 / X) * (j1 / X), (j2 / X) * (j2 / X)
    c = 0.5 * n + l
    return (
        0.5 * n + _weyl(a1, c),
        0.5 * n + max(_weyl(a2, c), _weyl(a1, c + 2.0)),
    )


def _bracketed_root(
    f: Callable[[float], float], lo: float, hi: float, where: str
) -> float:
    """The root of f on [lo, hi], refined by Brent's method.

    The caller certifies that [lo, hi] holds at most the root it wants, so a
    sign change there is that root.  Without one, NoRootFound names the
    problem (where) and the bracket.
    """
    ends = {lo: f(lo), hi: f(hi)}
    if not ((ends[lo] < 0.0 < ends[hi]) or (ends[hi] < 0.0 < ends[lo])):
        raise NoRootFound(
            f"{where}: no sign change on the certified bracket [{lo!r}, {hi!r}]"
        )
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

    The root is bracketed by the floors of mu_1 and mu_2 (module
    docstring): [floor_1, floor_2] lies inside (0, mu_2), which holds the
    one root lambda_1 of h_R, so a sign change there is lambda_1, certified,
    and Brent's method refines it.  A bracket without one raises
    NoRootFound.
    """
    check_dimension(n)
    check_degree(l)
    if not (math.isfinite(R) and R >= MIN_RADIUS):
        raise ValueError(f"radius must be finite and at least {MIN_RADIUS}")

    def f(t: float) -> float:
        return secular_h(n, l, R, t)

    lam = _bracketed_root(f, *_floors(n, l, R), f"n={n}, l={l}, R={R!r}")
    m_p, m_m, _, _ = secular_parts(n, l, R, lam)
    return SpectralMode(l=l, lam=lam, Lambda=lam * lam, G_R=-m_p / m_m)


def lowest_dirichlet_root(n: int, X: float) -> float:
    """mu_D1(X), the lowest zero of lambda -> M(lambda/2, n/2, -X^2/2).

    This is the first radial Dirichlet frequency of -L on the ball of radius
    X (the zeros in lambda of M_+ at l = 0 are the mu_k, and they are
    simple).  M_+ = 1 at lambda = 0, so M_+ > 0 on [0, mu_1), and the
    l = 0 floors put [floor_1, floor_2] inside (0, mu_2) with floor_1 <=
    mu_1: a sign change there is mu_1, which Brent's method refines.  A
    bracket without one raises NoRootFound.
    """
    check_dimension(n)
    if not (math.isfinite(X) and X > 0.0):
        raise ValueError("radius must be finite and positive")

    def f(t: float) -> float:
        return eval_m(KummerParams(0.5 * t, 0.5 * n), -0.5 * X * X).value

    return _bracketed_root(f, *_floors(n, 0, X), f"n={n}, l=0, R={X!r}")


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

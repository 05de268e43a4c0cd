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
(n, l), computed once per order nu with mpmath.hyp0f1.  Every root is
refined by brentq, Brent's method transcribed from scipy's brentq.c, so
importing this module loads no scipy.  A bracket that does not close raises
NoRootFound naming n, l, R and the bracket; no search runs past it.

scan_lowest_root, a fixed-step scan in the scaled variable lambda R^2, is
kept as an independent reference for tests; no library path calls it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath
import numpy as np

from .errors import NonConvergent, NoRootFound, check_degree, check_dimension
from .kummer import KummerParams, eval_m, eval_m_many
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
BRENT_RTOL_MIN = 4.0 * sys.float_info.epsilon
# brentq's iteration limit, scipy's default
BRENT_MAXITER = 100
# Qu & Wong (1999): j_{nu,k} > nu + c_k nu^(1/3) for nu > 0, with
# c_k = -a_k / 2^(1/3) from the Airy zeros a_1, a_2; rounded down
QU_WONG_LOWER = (1.8557, 3.2446)


@dataclass(frozen=True)
class SpectralMode:
    """One clamped eigenvalue on the degree-l harmonic sector of the R-ball.

    n and R name the ball, lam is the positive zero of its boundary
    determinant and G_R the mixing coefficient of the second confluent
    factor in the eigenfunction.
    """

    n: int
    l: int
    R: float
    lam: float
    G_R: float

    def __post_init__(self) -> None:
        check_dimension(self.n)
        check_degree(self.l)
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("radius must be finite and positive")
        if not self.lam > 0.0:
            raise ValueError("frequency must be positive")

    @property
    def Lambda(self) -> float:
        """The eigenvalue, lam**2."""
        return self.lam * self.lam


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


def brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float,
    *,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Brent's method: the root of f on [xa, xb], where f changes sign.

    A line-for-line transcription of zeroin as scipy's brentq.c writes it
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4),
    so it takes the same iterates as scipy.optimize.brentq and returns the
    same bits.  fa and fb, when given, are f(xa) and f(xb); the search then
    makes no evaluation at the ends.  It stops when f vanishes or the
    bracket's half-width falls below (xtol + rtol |x|) / 2.  Ends of one
    sign, a NaN value of f, xtol <= 0 and rtol < BRENT_RTOL_MIN raise
    ValueError; BRENT_MAXITER iterations without convergence raise
    NonConvergent.
    """
    if not (xtol > 0.0 and rtol >= BRENT_RTOL_MIN):
        raise ValueError(f"need xtol > 0 and rtol >= {BRENT_RTOL_MIN:g}")
    xpre, xcur = float(xa), float(xb)
    fpre = float(f(xpre) if fa is None else fa)
    fcur = float(f(xcur) if fb is None else fb)
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("f is NaN at an end of the bracket")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # where this underflows to 0, C's step is inf or NaN, which
                # fails the test below
                num = -fcur * (fblk * dblk - fpre * dpre)
                stry = num / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"f is NaN at x={xcur!r}")
    raise NonConvergent(
        f"Brent's method did not converge in {BRENT_MAXITER} iterations"
    )


# a private name for the same Brent, which perfbench/tracer.py does not wrap
_brent = brentq


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

    The zeros are those of j(t) = J_nu(t) (nu/t)^nu, a positive multiple of
    J_nu for t > 0 that keeps J_nu's size where the zeros lie.  Its series
    is (nu/2)^nu / Gamma(nu + 1) 0F1(; nu + 1; -t^2/4), summed by
    mpmath.hyp0f1 at 17 digits; mpmath.besselj takes a general path
    several times slower for orders that are not integers.  The zeros are
    more than 3 apart, so steps of 0.5 separate them.  The first scan
    starts at the Qu-Wong bound for j_{nu,1}, the second at the larger of
    the bound for j_{nu,2} and the first zero plus 3, or where the first
    scan stopped if that is further on.  Each zero is refined with this
    module's Brent under a private name, which keeps this one-time work out
    of the counts of the brentq binding.
    """

    def j(t: float) -> float:
        return float(scale * mpmath.hyp0f1(b, -0.25 * mpmath.mpf(t) ** 2))

    zeros = []
    x = -math.inf
    with mpmath.workdps(17):
        b = mpmath.mpf(nu) + 1
        scale = (mpmath.mpf(nu) / 2) ** nu * mpmath.rgamma(b)
        for c in QU_WONG_LOWER:
            lower = nu + c * nu ** (1.0 / 3.0)
            if zeros:
                lower = max(lower, zeros[0] + 3.0)
            if x < lower:
                x = lower
                fx = j(x)
            xn, fn = x + 0.5, j(x + 0.5)
            while (fx < 0.0) == (fn < 0.0):
                x, fx = xn, fn
                xn, fn = x + 0.5, j(x + 0.5)
            root = _brent(j, x, xn, 1e-15, BRENT_RTOL_MIN, fa=fx, fb=fn)
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
    problem (where) and the bracket.  A bracket end that overflows a double
    (the floors of a radius below about 1e-154) raises ValueError, and a
    series that fails to converge raises NonConvergent; both name where.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            f"{where}: radius too small for double precision; the certified "
            f"bracket [{lo!r}, {hi!r}] overflows"
        )
    try:
        f_lo, f_hi = f(lo), f(hi)
        if not ((f_lo < 0.0 < f_hi) or (f_hi < 0.0 < f_lo)):
            raise NoRootFound(
                f"{where}: no sign change on the certified bracket "
                f"[{lo!r}, {hi!r}]"
            )
        return brentq(f, lo, hi, ROOT_XTOL, BRENT_RTOL_MIN, fa=f_lo, fb=f_hi)
    except NonConvergent as exc:
        raise NonConvergent(f"{where}: {exc}") from exc


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
    return SpectralMode(n=n, l=l, R=R, lam=lam, G_R=-m_p / m_m)


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


def eigenfunction_profile(mode: SpectralMode, samples: int = 512) -> RadialProfile:
    """Sample the clamped eigenfunction y = r^l (M_+ + G_R M_-) on [0, R].

    The ball is the mode's own.  Both factors come from one eval_m_many
    table each; an entry it leaves not ok is evaluated by eval_m.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    b = 0.5 * mode.n + mode.l
    radii = np.linspace(0.0, mode.R, samples)
    z = -0.5 * radii * radii
    factors = []
    for a in (0.5 * (mode.l + mode.lam), 0.5 * (mode.l - mode.lam)):
        p = KummerParams(a, b)
        many = eval_m_many(p, z)
        for i in np.flatnonzero(~many.ok):
            many.value[i] = eval_m(p, float(z[i])).value
        factors.append(many.value)
    values = radii**mode.l * (factors[0] + mode.G_R * factors[1])
    return RadialProfile(radii=radii, values=values)

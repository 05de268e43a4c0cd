"""Kummer's confluent hypergeometric function M(a, b, z) and dM/dz by series.

M(a, b, z) = sum_k t_k and M'(a, b, z) = dM/dz = sum_k u_k, with

    t_k = (a)_k / ((b)_k k!) z^k,      u_k = (a)_{k+1} / ((b)_{k+1} k!) z^k

and (a)_k the rising factorial.  One recurrence yields both series:

    u_k = t_k * (a + k) / (b + k),     t_{k+1} = u_k * z / (k + 1),

so ``eval_m`` sums M and M' in a single pass, each with its own compensated
(Kahan) sum, and stops once both meet the relative term test.  For z < 0
both series alternate and can cancel catastrophically; evaluation therefore
tracks each series' largest term magnitude against its final sum and flags
that value when the ratio exceeds ``CANCELLATION_RATIO`` (M' also when
|a| < ``TINY``, where its terms underflow).  The two flags are independent,
and so are the repairs: a flagged M is replaced by
``mpmath.hyp1f1(a, b, z)``, a flagged M' by (a/b) ``hyp1f1(a + 1, b + 1, z)``.
mpmath measures the cancellation of its own series and raises its working
precision until 17 significant digits are correct; if it cannot, the
evaluation raises NonConvergent rather than return a value it cannot back
up.  This is the one precision policy: a value is repaired exactly when its
flag is set.  The term count and largest terms still describe the double
pass.

The double sum loses about ``2e-16 * max_term_magnitude / |value|`` in
relative accuracy, so an unflagged value (ratio at most 1e8) is accurate to
about 1e-8 relative, and to 13+ digits below a ratio of ~1e3. A flagged
value is within about an ulp of M (or M'), whatever the ratio.

``eval_m_many`` evaluates one (a, b) at an array of z in one numpy pass.
It fills a table of MANY_TERMS columns with the step factors
t_k / t_(k-1) = (a + k - 1) z / ((b + k - 1) k), takes np.cumprod along k
for t_k and scales each column by (a + k) / (b + k) for u_k, then sums the
rows.  An entry is ok when its sums are finite, the last CONSECUTIVE_SMALL
terms of each series add up to at most SERIES_TOL times its value, the sum
of its term magnitudes is at most CANCELLATION_RATIO times that value, and
0 < |a| < TINY does not hold; an entry that is not ok is left to
``eval_m``, which repairs it.  Against the sums of term magnitudes
S = sum_k |t_k| and S' = sum_k |u_k|, and to first order in u = 2^-53:

- a table term is k step factors of five roundings each, multiplied
  together, so it is within 6 k u of t_k, and u_k within (6 k + 4) u;
- summing K terms in any order adds at most (K - 1) u S;
- ``eval_m``'s recurrence rounds each step six times and its compensated
  sum adds 2 u |M|; a repaired value is within an ulp of M;
- as ``eval_m``'s stop rule assumes, the terms past either sum's last one
  add less than 4 SERIES_TOL |M|.

So for an ok entry both the table's M and ``eval_m``'s M lie within
MANY_REL_ERROR * S of the true M, with MANY_REL_ERROR =
8 (MANY_TERMS + 1) u + 4 SERIES_TOL, and both M' within
MANY_REL_ERROR * S' of the true M'.  The two are not the same bits: the
table multiplies and sums in another order.

The second, singular solution of Kummer's equation never enters any formula
in this package; regularity at the origin is built into the ansatz rather
than checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np

from .errors import NonConvergent

# Series controls. The relative term threshold and the consecutive-small-term
# requirement guard against a single accidental tiny term; the cap bounds the
# work for arguments far outside the intended range.
SERIES_TOL = 1e-17
CONSECUTIVE_SMALL = 3
MAX_TERMS = 2000
CANCELLATION_RATIO = 1e8
TINY = 1e-300
# eval_m_many's table width, past the 41 terms the sweep's certificates need
MANY_TERMS = 48
UNIT_ROUNDOFF = 2.0**-53
# eval_m_many's error bound relative to the term magnitudes (module docstring)
MANY_REL_ERROR = 8.0 * (MANY_TERMS + 1) * UNIT_ROUNDOFF + 4.0 * SERIES_TOL
_COLUMNS = np.arange(float(MANY_TERMS))


@dataclass(frozen=True)
class KummerParams:
    """Parameters (a, b) of M(a, b, z). Requires finite a and b > 0."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("Kummer parameters must be finite")
        if self.b <= 0.0:
            raise ValueError("Kummer parameter b must be positive")


class EvalResult(NamedTuple):
    """Outcome of one series evaluation.

    value is M (or M' for ``eval_m_dz``) and derivative is M'; terms_used
    counts the terms of the pass that computed both.  Each value carries its
    own largest term and flag: cancellation_flag is true iff
    max_term_magnitude / max(|value|, TINY) exceeds CANCELLATION_RATIO, and
    derivative_flag likewise for derivative_max_term and derivative.  A
    flagged value was recomputed by mpmath independently of the other.
    ``eval_m_dz`` has no second derivative to report and leaves the
    derivative fields None.

    Immutable like a frozen dataclass, but a NamedTuple is about three times
    cheaper to build, and one is built per series evaluation.
    """

    value: float
    terms_used: int
    max_term_magnitude: float
    cancellation_flag: bool
    derivative: float | None = None
    derivative_max_term: float | None = None
    derivative_flag: bool | None = None


def _sum_pair(
    a: float, b: float, z: float
) -> tuple[float, float, int, float, float]:
    """M and M' from one forward recurrence in doubles.

    Returns (M, M', terms_used, max |t_k|, max |u_k|).  The loop stops once
    both series have met the relative term test on the same
    CONSECUTIVE_SMALL terms in a row.
    """
    tol = SERIES_TOL
    t = 1.0
    s = 1.0
    comp = 0.0
    max_t = 1.0
    u = a / b
    d = u
    dcomp = 0.0
    max_u = abs(u)
    small = 0
    k = 0.0
    while k < MAX_TERMS:
        k += 1.0
        t = u * z / k
        u = t * (a + k) / (b + k)
        y = t - comp
        tt = s + y
        comp = (tt - s) - y
        s = tt
        y = u - dcomp
        tt = d + y
        dcomp = (tt - d) - y
        d = tt
        at = abs(t)
        au = abs(u)
        if at > max_t:
            max_t = at
        if au > max_u:
            max_u = au
        if at <= tol * abs(s) and au <= tol * abs(d):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return s, d, int(k), max_t, max_u
        else:
            small = 0
    raise NonConvergent(
        f"Kummer series did not converge in {MAX_TERMS} terms "
        f"(a={a}, b={b}, z={z})"
    )


def _sum_extended(a: float, b: float, z: float) -> float:
    """M(a, b, z) from mpmath.hyp1f1, correct to double precision.

    mpmath measures the cancellation of its series and raises its own working
    precision until all 17 requested digits are correct. Past 2000 bits of
    cancellation it returns an exact zero (M(b + 1, b, -b) = 0 cancels without
    bound) instead of climbing on to its 4000-bit cap; any failure it reports
    is raised as NonConvergent.

    The series coefficients need a + k exactly, which 17 digits hold only
    for |a| below about 1e15; past that the working digits grow with
    log10 |a| (the Dirichlet roots of a ball of radius X have
    a ~ j^2 / (2 X^2)).
    """
    digits = 17
    if a:
        digits += max(0, math.ceil(math.log10(abs(a))) - 15)
    try:
        with mpmath.workdps(digits):
            return float(mpmath.hyp1f1(a, b, z, zeroprec=2000, maxprec=4000))
    except (ValueError, mpmath.mp.NoConvergence) as exc:
        raise NonConvergent(
            f"mpmath hyp1f1 failed (a={a}, b={b}, z={z}): {exc}"
        ) from exc


def _flagged(max_term: float, value: float) -> bool:
    return max_term / max(abs(value), TINY) > CANCELLATION_RATIO


def eval_m(p: KummerParams, z: float) -> EvalResult:
    """Evaluate M(p.a, p.b, z) and its z-derivative in one series pass.

    Each of the two values is checked and, when flagged, repaired on its
    own.  Raises NonConvergent if the series needs more than MAX_TERMS
    terms or an mpmath repair fails.
    """
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    a, b = p.a, p.b
    value, deriv, terms, max_t, max_d = _sum_pair(a, b, z)
    flag = _flagged(max_t, value)
    # with |a| < TINY every M' term starts near or below the smallest normal
    # double and keeps few significant bits, so that sum is repaired as well
    dflag = _flagged(max_d, deriv) or 0.0 < abs(a) < TINY
    if flag:
        value = _sum_extended(a, b, z)
        flag = _flagged(max_t, value)
    if dflag:
        deriv = a / b * _sum_extended(a + 1.0, b + 1.0, z)
        dflag = _flagged(max_d, deriv)
    return EvalResult(value, terms, max_t, flag, deriv, max_d, dflag)


class ManyResult(NamedTuple):
    """Outcome of ``eval_m_many``: arrays with one entry per z.

    value is M and derivative is M'; abs_sum and derivative_abs_sum are
    sum_k |t_k| and sum_k |u_k|, against which MANY_REL_ERROR bounds the
    error of an ok entry, and ok marks the entries that bound covers.
    """

    value: np.ndarray
    derivative: np.ndarray
    abs_sum: np.ndarray
    derivative_abs_sum: np.ndarray
    ok: np.ndarray


def eval_m_many(p: KummerParams, z) -> ManyResult:
    """Evaluate M(p.a, p.b, z) and dM/dz at each z of a 1-D array at once.

    One term table of MANY_TERMS columns, no repairs and no exceptions from
    the series: an entry that overflows, cancels past CANCELLATION_RATIO or
    has not converged is marked not ok, and its values are not to be used
    (module docstring).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("z must be a one-dimensional array")
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    a, b = p.a, p.b
    k = _COLUMNS
    with np.errstate(all="ignore"):
        # table[0] holds t_k and table[1] u_k, one row per z
        table = np.empty((2, z.size, MANY_TERMS))
        terms = table[0]
        terms[:, 0] = 1.0
        np.multiply.outer(z, (a + k[:-1]) / ((b + k[:-1]) * k[1:]),
                          out=terms[:, 1:])
        np.cumprod(terms, axis=1, out=terms)
        np.multiply(terms, (a + k) / (b + k), out=table[1])
        sums = table.sum(axis=2)
        mag = np.abs(table)
        abs_sums = mag.sum(axis=2)
        size = np.abs(sums)
        # sums of magnitudes, not largest terms: numpy reduces them faster,
        # and each bounds the test it stands for from above
        ok = (
            np.isfinite(abs_sums)
            & (abs_sums <= CANCELLATION_RATIO * np.maximum(size, TINY))
            & (mag[:, :, -CONSECUTIVE_SMALL:].sum(axis=2) <= SERIES_TOL * size)
        ).all(axis=0)
    if 0.0 < abs(a) < TINY:
        ok[:] = False
    return ManyResult(sums[0], sums[1], abs_sums[0], abs_sums[1], ok)


def eval_m_dz(p: KummerParams, z: float) -> EvalResult:
    """Evaluate dM/dz at (p.a, p.b, z): the derivative half of ``eval_m``.

    value, max_term_magnitude and cancellation_flag describe M' (the series
    of u_k = (a)_{k+1} z^k / ((b)_{k+1} k!)); the derivative fields are None.
    """
    r = eval_m(p, z)
    return EvalResult(
        r.derivative, r.terms_used, r.derivative_max_term, r.derivative_flag
    )


def count_positive_roots(p: KummerParams) -> int:
    """Number of zeros of z -> M(p.a, p.b, z) on (0, inf).

    ceil(|a|) when a < 0, else 0; nonpositive-integer a gives exactly |a|
    simple positive zeros (the series terminates into a polynomial).
    """
    if p.a >= 0.0:
        return 0
    return math.ceil(-p.a)


def count_negative_roots(p: KummerParams) -> int:
    """Number of zeros of z -> M(p.a, p.b, z) on (-inf, 0).

    Equals the positive-zero count of the reflected parameters (b - a, b),
    via M(a, b, z) = e^z M(b - a, b, -z): ceil(a - b) when a > b, else 0.
    """
    if p.b - p.a >= 0.0:
        return 0
    return math.ceil(p.a - p.b)

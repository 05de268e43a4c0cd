"""Kummer's confluent hypergeometric function M(a, b, z) by direct series.

M(a, b, z) = sum_k (a)_k / ((b)_k k!) z^k with (a)_k the rising factorial.
The series is evaluated by the term recurrence

    t_{k+1} = t_k * (a + k) * z / ((b + k) * (k + 1)),

accumulated with compensated (Kahan) summation. For z < 0 the series
alternates and can cancel catastrophically; evaluation therefore tracks the
largest term magnitude against the final sum and flags the value when the
ratio exceeds ``CANCELLATION_RATIO``. A flagged value is then replaced by
``mpmath.hyp1f1``, which measures the cancellation of its own series and
raises its working precision until 17 significant digits are correct; if it
cannot, the evaluation raises NonConvergent rather than return a value it
cannot back up. The term count and largest term still describe the double
pass.

The double sum loses about ``2e-16 * max_term_magnitude / |value|`` in
relative accuracy, so an unflagged value (ratio at most 1e8) is accurate to
about 1e-8 relative, and to 13+ digits below a ratio of ~1e3. A flagged
value is within about an ulp of M, whatever the ratio.

The environment variable ``CPLD_PRECISION`` forces the working precision
of ``eval_m`` and ``eval_m_dz``: ``double`` disables the mpmath repair (the
flag still reports the cancellation ratio), ``extended`` repairs every
evaluation. Unset or ``auto`` means automatic (repair exactly when flagged).

Only M itself is ever evaluated. The second, singular solution of Kummer's
equation never enters any formula in this package; regularity at the origin
is built into the ansatz rather than checked numerically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import mpmath

from .errors import NonConvergent

# Series controls. The relative term threshold and the consecutive-small-term
# requirement guard against a single accidental tiny term; the cap bounds the
# work for arguments far outside the intended range.
SERIES_TOL = 1e-17
CONSECUTIVE_SMALL = 3
MAX_TERMS = 2000
CANCELLATION_RATIO = 1e8
TINY = 1e-300


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


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one series evaluation.

    cancellation_flag is true iff max_term_magnitude / max(|value|, TINY)
    exceeds CANCELLATION_RATIO; when true (and the precision mode allows it)
    the value was recomputed by mpmath before being returned.
    """

    value: float
    terms_used: int
    max_term_magnitude: float
    cancellation_flag: bool


def _precision_mode() -> str:
    mode = os.environ.get("CPLD_PRECISION", "")
    if mode in ("", "auto"):
        return "auto"
    if mode in ("double", "extended"):
        return mode
    raise ValueError(
        "CPLD_PRECISION must be 'double', 'extended' or 'auto', "
        f"got {mode!r}"
    )


def _sum_double(a: float, b: float, z: float) -> tuple[float, int, float]:
    """Forward recurrence in doubles. Returns (sum, terms_used, max_term)."""
    t = 1.0
    s = 1.0
    comp = 0.0
    max_t = 1.0
    small = 0
    k = 0
    while k < MAX_TERMS:
        t *= (a + k) * z / ((b + k) * (k + 1.0))
        k += 1
        y = t - comp
        tt = s + y
        comp = (tt - s) - y
        s = tt
        at = abs(t)
        if at > max_t:
            max_t = at
        if at <= SERIES_TOL * abs(s):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return s, k, max_t
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
    """
    try:
        with mpmath.workdps(17):
            return float(mpmath.hyp1f1(a, b, z, zeroprec=2000, maxprec=4000))
    except (ValueError, mpmath.mp.NoConvergence) as exc:
        raise NonConvergent(
            f"mpmath hyp1f1 failed (a={a}, b={b}, z={z}): {exc}"
        ) from exc


def _eval_raw(a: float, b: float, z: float) -> tuple[float, int, float, bool]:
    """Shared evaluation core. Returns (value, terms, max_term, flag).

    The double pass supplies the term statistics; a repair replaces the value.
    """
    mode = _precision_mode()
    value, terms, max_t = _sum_double(a, b, z)
    flag = max_t / max(abs(value), TINY) > CANCELLATION_RATIO
    if mode == "extended" or (flag and mode == "auto"):
        value = _sum_extended(a, b, z)
        flag = max_t / max(abs(value), TINY) > CANCELLATION_RATIO
    return value, terms, max_t, flag


def eval_m(p: KummerParams, z: float) -> EvalResult:
    """Evaluate M(p.a, p.b, z).

    Raises NonConvergent if the series needs more than MAX_TERMS terms or
    the mpmath repair fails.
    """
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    value, terms, max_t, flag = _eval_raw(p.a, p.b, z)
    return EvalResult(value, terms, max_t, flag)


def eval_m_dz(p: KummerParams, z: float) -> EvalResult:
    """Evaluate dM/dz at (p.a, p.b, z) via M'(a,b,z) = (a/b) M(a+1, b+1, z).

    The reported term statistics are those of the derivative series, i.e.
    the contiguous series scaled by a/b.
    """
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    scale = p.a / p.b
    value, terms, max_t, _ = _eval_raw(p.a + 1.0, p.b + 1.0, z)
    dvalue = scale * value
    dmax = abs(scale) * max_t
    flag = dmax / max(abs(dvalue), TINY) > CANCELLATION_RATIO if scale != 0.0 else False
    return EvalResult(dvalue, terms, dmax, flag)


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

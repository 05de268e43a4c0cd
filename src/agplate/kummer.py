"""Kummer's confluent hypergeometric function M(a, b, z) by direct series.

M(a, b, z) = sum_k (a)_k / ((b)_k k!) z^k with (a)_k the rising factorial.
The series is evaluated by the term recurrence

    t_{k+1} = t_k * (a + k) * z / ((b + k) * (k + 1)),

accumulated with compensated (Kahan) summation. For z < 0 the series
alternates and can cancel catastrophically; evaluation therefore tracks the
largest term magnitude against the final sum and, when the ratio exceeds
``CANCELLATION_RATIO``, repeats the same recurrence in wider mpmath
arithmetic (working precision escalated until the cancellation has enough
headroom) instead of returning noise.

Accuracy of the double-precision path degrades with cancellation: the
absolute error is roughly machine epsilon times ``max_term_magnitude``, so
the relative error is about ``2e-16 * max_term_magnitude / |value|``. Below
a cancellation ratio of ~1e3 this means 13+ correct digits; results with
``cancellation_flag`` set were recomputed in extended precision and are
accurate to ~1e-15 relative regardless of the ratio.

The environment variable ``CPLD_PRECISION`` forces the working precision
of ``eval_m`` and ``eval_m_dz``: ``double`` disables the extended-precision
repair (the flag still reports the cancellation ratio), ``extended`` routes
every evaluation through mpmath. Unset or ``auto`` means automatic (repair
exactly when flagged).

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
CANCELLATION_RATIO = 1e12
TINY = 1e-300

_EXT_START_DPS = 40
_EXT_HEADROOM = 25
_EXT_MAX_DPS = 600


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
    the value was recomputed in extended working precision before being
    returned.
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


def _sum_extended(a: float, b: float, z: float) -> tuple[float, int, float]:
    """Same recurrence in mpmath arithmetic.

    Working precision starts at _EXT_START_DPS digits and is raised until it
    exceeds the observed cancellation by _EXT_HEADROOM digits, so the result
    is reliable even when the double pass underestimated the cancellation.
    """
    dps = _EXT_START_DPS
    while True:
        with mpmath.workdps(dps):
            ta, tb, tz = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(z)
            tol = mpmath.mpf(10) ** (3 - dps)
            t = mpmath.mpf(1)
            s = mpmath.mpf(1)
            max_t = mpmath.mpf(1)
            small = 0
            k = 0
            converged = False
            while k < MAX_TERMS:
                t *= (ta + k) * tz / ((tb + k) * (k + 1))
                k += 1
                s += t
                at = abs(t)
                if at > max_t:
                    max_t = at
                if at <= tol * abs(s):
                    small += 1
                    if small >= CONSECUTIVE_SMALL:
                        converged = True
                        break
                else:
                    small = 0
            if not converged:
                raise NonConvergent(
                    f"Kummer series did not converge in {MAX_TERMS} terms "
                    f"(a={a}, b={b}, z={z}, extended)"
                )
            if s == 0:
                return 0.0, k, float(max_t)
            need = int(mpmath.log10(max_t / abs(s))) + _EXT_HEADROOM
        if dps >= need or dps >= _EXT_MAX_DPS:
            return float(s), k, float(max_t)
        dps = min(max(need, dps + 10), _EXT_MAX_DPS)


def _eval_raw(a: float, b: float, z: float) -> tuple[float, int, float, bool]:
    """Shared evaluation core. Returns (value, terms, max_term, flag)."""
    mode = _precision_mode()
    if mode == "extended":
        value, terms, max_t = _sum_extended(a, b, z)
        flag = max_t / max(abs(value), TINY) > CANCELLATION_RATIO
        return value, terms, max_t, flag
    value, terms, max_t = _sum_double(a, b, z)
    flag = max_t / max(abs(value), TINY) > CANCELLATION_RATIO
    if flag and mode == "auto":
        value, terms, max_t = _sum_extended(a, b, z)
        flag = max_t / max(abs(value), TINY) > CANCELLATION_RATIO
    return value, terms, max_t, flag


def eval_m(p: KummerParams, z: float) -> EvalResult:
    """Evaluate M(p.a, p.b, z).

    Raises NonConvergent if the series needs more than MAX_TERMS terms.
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

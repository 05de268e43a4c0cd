"""Series evaluator tests: closed forms, identities, root counts, precision."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agplate import (
    KummerParams,
    NonConvergent,
    count_negative_roots,
    count_positive_roots,
    eval_m,
    eval_m_dz,
)

RNG_SEED = 20260816

# inputs whose alternating series loses far more than half the mantissa,
# forcing the extended-precision repair path
EXTREME_CASES = [(20.0, 1.5, -20.0), (30.0, 0.5, -30.0), (12.0, 2.0, -25.0)]


def m_ref(a, b, z, dps=50):
    """Independent oracle: mpmath's hypergeometric evaluation."""
    with mpmath.workdps(dps):
        return float(mpmath.hyp1f1(a, b, z))


def sample_params(count, rng):
    """Parameter triples that keep the double path well conditioned."""
    a = rng.uniform(-3.0, 3.0, count)
    b = rng.uniform(0.3, 6.0, count)
    z = rng.uniform(-4.5, 4.5, count)
    return np.column_stack([a, b, z])


def test_params_validation():
    with pytest.raises(ValueError):
        KummerParams(1.0, 0.0)
    with pytest.raises(ValueError):
        KummerParams(1.0, -2.0)
    with pytest.raises(ValueError):
        KummerParams(math.inf, 1.0)


def test_value_at_origin_is_one():
    r = eval_m(KummerParams(0.7, 1.3), 0.0)
    assert r.value == 1.0
    assert not r.cancellation_flag


def test_exponential_collapse():
    # equal parameters collapse the series to exp(z)
    for z in (-2.0, -0.5, 0.3, 1.7):
        r = eval_m(KummerParams(1.5, 1.5), z)
        assert r.value == pytest.approx(math.exp(z), rel=1e-14)


def test_expm1_closed_form():
    # M(1, 2, z) = (e^z - 1)/z
    for z in (-3.0, -1.0, 0.25, 1.0, 4.0):
        r = eval_m(KummerParams(1.0, 2.0), z)
        assert r.value == pytest.approx(math.expm1(z) / z, rel=1e-14)


def test_derivative_closed_forms():
    assert eval_m_dz(KummerParams(0.5, 2.0), 0.0).value == 0.25
    assert eval_m_dz(KummerParams(0.0, 3.0), 1.7).value == 0.0
    # d/dz (e^z - 1)/z at z = 1 equals 1
    assert eval_m_dz(KummerParams(1.0, 2.0), 1.0).value == pytest.approx(
        1.0, rel=1e-13
    )


def test_transformation_identity_randomized():
    rng = np.random.default_rng(RNG_SEED)
    for a, b, z in sample_params(1200, rng):
        direct = eval_m(KummerParams(a, b), z).value
        reflected = math.exp(z) * eval_m(KummerParams(b - a, b), -z).value
        assert abs(direct - reflected) <= 1e-10 * max(1.0, abs(direct))


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(RNG_SEED + 1)
    h = 1e-5
    checked = 0
    for a, b, z in sample_params(400, rng):
        p = KummerParams(a, b)
        deriv = eval_m_dz(p, z).value

        def central(step):
            return (eval_m(p, z + step).value - eval_m(p, z - step).value) / (
                2.0 * step
            )

        richardson = (4.0 * central(h / 2.0) - central(h)) / 3.0
        if abs(richardson) < 1e-4 * max(1.0, abs(eval_m(p, z).value)):
            continue
        assert deriv == pytest.approx(richardson, rel=1e-6)
        checked += 1
    assert checked > 200


def count_sign_changes(a, b, lo_exclusive, hi, step, prev):
    """Sign changes of M(a,b,.) on (lo, hi], continuing from sign prev."""
    p = KummerParams(a, b)
    count = 0
    x = lo_exclusive + step
    while x <= hi + 1e-12:
        value = eval_m(p, x).value
        if value != 0.0:
            if (prev < 0.0) != (value < 0.0):
                count += 1
            prev = value
        x += step
    return count, prev


def stabilized_root_count(a, b):
    """Sign changes on (0, Z] where Z doubles until the count settles.

    The sign state is seeded with M(a,b,0) = 1, so a zero below the first
    sample still flips the sign and gets counted.
    """
    z_top = 64.0
    count, prev = count_sign_changes(a, b, 0.0, z_top, 0.1, prev=1.0)
    stable = 0
    while stable < 2 and z_top < 512.0:
        extra, prev = count_sign_changes(a, b, z_top, 2.0 * z_top, 0.25, prev)
        z_top *= 2.0
        if extra == 0:
            stable += 1
        else:
            count += extra
            stable = 0
    return count


@pytest.mark.parametrize("b", [0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0])
def test_positive_root_count_matches_scan(b):
    for a in np.arange(-6.0, 6.01, 0.5):
        a = float(a)
        expected = count_positive_roots(KummerParams(a, b))
        assert stabilized_root_count(a, b) == expected, (a, b)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.5, 6.0])
def test_negative_root_count_matches_scan(b):
    # M(a,b,-x) = exp(-x) M(b-a,b,x), so negative-axis zeros of M(a,b,.)
    # are the positive-axis zeros of the reflected parameters
    for a in np.arange(-6.0, 6.01, 0.5):
        a = float(a)
        expected = count_negative_roots(KummerParams(a, b))
        assert stabilized_root_count(b - a, b) == expected, (a, b)


def test_root_count_examples():
    assert count_positive_roots(KummerParams(-2.5, 3.0)) == 3
    assert count_positive_roots(KummerParams(1.2, 0.5)) == 0
    assert count_positive_roots(KummerParams(0.0, 1.0)) == 0
    assert count_negative_roots(KummerParams(5.0, 2.0)) == 3
    assert count_negative_roots(KummerParams(1.0, 4.0)) == 0
    assert count_negative_roots(KummerParams(2.3, 2.3)) == 0


def test_cancellation_flag_iff_ratio():
    benign = eval_m(KummerParams(1.0, 2.0), 1.0)
    assert not benign.cancellation_flag
    assert benign.max_term_magnitude / max(abs(benign.value), 1e-300) <= 1e12
    for a, b, z in EXTREME_CASES:
        r = eval_m(KummerParams(a, b), z)
        assert r.cancellation_flag
        assert r.max_term_magnitude / max(abs(r.value), 1e-300) > 1e12


def test_extreme_cancellation_repaired():
    for a, b, z in EXTREME_CASES:
        r = eval_m(KummerParams(a, b), z)
        assert r.cancellation_flag
        assert r.value == pytest.approx(m_ref(a, b, z), rel=5e-13)


@st.composite
def _pipeline_arguments(draw):
    """(a, b, z) as the secular determinant meets them: b = n/2 + l, z < 0."""
    b = draw(st.integers(2, 5)) / 2.0 + draw(st.integers(0, 3))
    z = draw(st.floats(-20.0, -1e-4))
    a = draw(st.floats(-1.0, 1.0)) * min(2000.0, 400.0 / abs(z))
    return a, b, z


# a flagged value was repaired to double precision; an unflagged one had a
# cancellation ratio of at most CANCELLATION_RATIO = 1e8, so the double sum
# kept about eight digits. The examples have ratios of 4.5e11 and 1.6e9, and
# their double sums are off by 7.2e-5 and 2.2e-7.
@settings(deadline=None)
@given(_pipeline_arguments())
@example((199.149, 2.0, -0.8427))
@example((-2.5, 2.5, -50.0))
def test_flag_bounds_the_error(case):
    a, b, z = case
    r = eval_m(KummerParams(a, b), z)
    ref = m_ref(a, b, z, dps=60)
    tol = 1e-13 if r.cancellation_flag else 1e-7
    assert abs(r.value - ref) <= tol * abs(ref), (r, ref)


def test_repair_meets_closed_forms():
    # M(b + 1, b, z) = e^z (b + z) / b vanishes at z = -b, where the
    # series cancels completely; (b + z) is exact there, 1 + z/b is not
    exact_zero = eval_m(KummerParams(3.0, 2.0), -2.0)
    assert exact_zero.cancellation_flag
    assert exact_zero.value == 0.0
    for b in (1.0, 2.5, 20.0):
        for z in (-b * (1.0 - 1e-9), -b * (1.0 + 1e-9), -30.0):
            r = eval_m(KummerParams(b + 1.0, b), z)
            closed = math.exp(z) * (b + z) / b
            assert r.cancellation_flag, (b, z)
            assert r.value == pytest.approx(closed, rel=1e-12), (b, z)


def test_mpmath_failure_is_nonconvergent(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("hypsum failed to converge")

    monkeypatch.setattr(mpmath, "hyp1f1", fail)
    # unflagged values never reach mpmath
    assert eval_m(KummerParams(1.0, 2.0), 1.0).value == pytest.approx(
        math.e - 1.0, rel=1e-14
    )
    a, b, z = EXTREME_CASES[0]
    with pytest.raises(NonConvergent):
        eval_m(KummerParams(a, b), z)


def test_precision_mode_double(monkeypatch):
    monkeypatch.setenv("CPLD_PRECISION", "double")
    a, b, z = EXTREME_CASES[1]
    r = eval_m(KummerParams(a, b), z)
    assert r.cancellation_flag
    # the raw double sum has lost essentially all significant digits
    assert abs(r.value - m_ref(a, b, z)) > 1e-4 * abs(m_ref(a, b, z))


def test_precision_mode_extended(monkeypatch):
    monkeypatch.setenv("CPLD_PRECISION", "extended")
    r = eval_m(KummerParams(1.0, 2.0), 1.0)
    assert r.value == pytest.approx(math.e - 1.0, rel=1e-14)
    a, b, z = EXTREME_CASES[0]
    repaired = eval_m(KummerParams(a, b), z)
    assert repaired.value == pytest.approx(m_ref(a, b, z), rel=5e-13)


def test_precision_mode_invalid(monkeypatch):
    monkeypatch.setenv("CPLD_PRECISION", "quad")
    with pytest.raises(ValueError):
        eval_m(KummerParams(1.0, 2.0), 1.0)


def test_nonconvergent_beyond_term_cap():
    with pytest.raises(NonConvergent):
        eval_m(KummerParams(1.5, 2.5), 3000.0)


def test_determinism():
    p = KummerParams(-2.7, 1.9)
    first = eval_m(p, -3.3)
    second = eval_m(p, -3.3)
    assert first.value == second.value
    assert first.terms_used == second.terms_used
    assert first.max_term_magnitude == second.max_term_magnitude

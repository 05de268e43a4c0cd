"""Tests for ball_spectrum's Brent's method and the Bessel zeros it refines.

brentq transcribes scipy's brentq.c, so on every bracket the library
builds it must take scipy's iterates and return scipy's bits.  The Bessel
zeros behind the floors come from mpmath.hyp0f1; scipy's jv gives the
reference.
"""

import math

import mpmath
import pytest
from scipy import optimize, special

from agplate import ball_spectrum
from agplate.ball_spectrum import (
    BESSEL_ZERO_SHAVE,
    BRENT_MAXITER,
    BRENT_RTOL_MIN,
    ROOT_XTOL,
    _bessel_zeros,
    _floors,
    brentq,
    lowest_dirichlet_root,
    secular_h,
)
from agplate.errors import NonConvergent
from agplate.jab_solver import jab_condition
from agplate.kummer import KummerParams, eval_m
from agplate.measure import complement_radius, half_mass_radius


def _recorded(f):
    """f, and the list of arguments it is called with."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


def assert_same_as_scipy(f, a, b, xtol=ROOT_XTOL, rtol=BRENT_RTOL_MIN):
    ref_f, ref_xs = _recorded(f)
    ref = optimize.brentq(ref_f, a, b, xtol=xtol, rtol=rtol)
    ours_f, ours_xs = _recorded(f)
    ours = brentq(ours_f, a, b, xtol, rtol)
    assert type(ours) is float
    assert ours == ref and ours_xs == ref_xs, (a, b)
    # handed the end values, it evaluates only scipy's interior iterates
    handed_f, handed_xs = _recorded(f)
    handed = brentq(handed_f, a, b, xtol, rtol, fa=f(a), fb=f(b))
    assert handed == ref and handed_xs == ref_xs[2:], (a, b)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_brentq_matches_scipy_on_the_clamped_brackets(n):
    for l in (0, 1, 3):
        for R in (1e-3, 0.05, 0.4, 1.0, 2.5, 4.0, 6.0):

            def f(t, l=l, R=R):
                return secular_h(n, l, R, t)

            assert_same_as_scipy(f, *_floors(n, l, R))


def test_brentq_matches_scipy_on_the_dirichlet_brackets():
    for n in (2, 3, 4, 7, 12, 40):
        for X in (1e-3, 0.1, 0.8, 1.7, 3.0, 5.0):

            def f(t, n=n, X=X):
                return eval_m(KummerParams(0.5 * t, 0.5 * n), -0.5 * X * X).value

            assert_same_as_scipy(f, *_floors(n, 0, X))


def test_brentq_matches_scipy_on_the_pair_brackets():
    # solve_jab's bracket for 0 < A < B; a few pairs close no bracket (the
    # root is mu_D1(A) itself) and are skipped, so count the ones compared
    compared = 0
    for n in (2, 3, 5):
        for R in (0.3, 1.0, 2.0, 4.0):
            a_star = half_mass_radius(n, R)
            for frac in (0.05, 0.3, 0.6, 0.9):
                A = frac * a_star
                B = complement_radius(n, R, A)
                lo, hi = _floors(n, 0, B)
                if _floors(n, 0, A)[0] < hi:
                    hi = min(hi, lowest_dirichlet_root(n, A))

                def f(t, n=n, A=A, B=B):
                    return jab_condition(n, A, B, t)

                if (f(lo) < 0.0) != (f(hi) < 0.0):
                    assert_same_as_scipy(f, lo, hi)
                    compared += 1
    assert compared >= 40


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
        (lambda x: x * math.exp(x) - 1.0, 0.0, 1.0),
        (lambda x: math.atan(1e6 * (x - 0.3)), -1.0, 1.0),
        # values so small that the extrapolation's divisor underflows to 0
        (lambda x: 1e-150 * (x**3 - 2.0 * x - 5.0), 2.0, 3.0),
        (lambda x: 1e-120 * (math.cos(x) - x), 0.0, 1.0),
        # an end where f is exactly 0 is returned as it is
        (lambda x: x - 1.0, 1.0, 3.0),
        (lambda x: x - 1.0, -1.0, 1.0),
    ],
)
@pytest.mark.parametrize(
    "xtol, rtol", [(2e-12, 4 * 2.220446049250313e-16), (1e-300, 1e-15)]
)
def test_brentq_matches_scipy_on_textbook_functions(f, a, b, xtol, rtol):
    assert_same_as_scipy(f, a, b, xtol, rtol)


def test_brentq_rejects_ends_of_one_sign_and_bad_tolerances():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, ROOT_XTOL, BRENT_RTOL_MIN)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, 1e-12, 1e-15)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if abs(x) < 0.5 else x, -1.0, 2.0, 1e-12, 1e-15)
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, 0.0, BRENT_RTOL_MIN)
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, ROOT_XTOL, 0.5 * BRENT_RTOL_MIN)


def test_brentq_out_of_iterations_is_nonconvergent():
    # the flat triple root stalls scipy too
    def cubic(x):
        return (x - 1.0) ** 3

    with pytest.raises(RuntimeError, match=f"after {BRENT_MAXITER} iterations"):
        optimize.brentq(cubic, 0.0, 3.5, xtol=2e-12, rtol=BRENT_RTOL_MIN,
                        maxiter=BRENT_MAXITER)
    with pytest.raises(NonConvergent, match=f"in {BRENT_MAXITER} iterations"):
        brentq(cubic, 0.0, 3.5, 2e-12, BRENT_RTOL_MIN)


def scipy_bessel_zeros(nu):
    """j_{nu,1} and j_{nu,2} from scipy's jv: the same scan, scipy's brentq."""
    zeros = []
    x, fx = nu, special.jv(nu, nu)
    while len(zeros) < 2:
        xn = x + 0.5
        fn = special.jv(nu, xn)
        if (fx < 0.0) != (fn < 0.0):
            zeros.append(
                optimize.brentq(
                    lambda t: special.jv(nu, t), x, xn, xtol=1e-15,
                    rtol=BRENT_RTOL_MIN,
                )
            )
        x, fx = xn, fn
    return zeros


def test_bessel_zeros_match_scipy_and_stay_below():
    for n in range(2, 41):
        for l in range(4):
            nu = 0.5 * n + l - 1.0
            for ours, ref in zip(_bessel_zeros(nu), scipy_bessel_zeros(nu)):
                assert type(ours) is float
                assert ours < ref, (n, l)
                shaved = ref * (1.0 - BESSEL_ZERO_SHAVE)
                assert ours == pytest.approx(shaved, rel=1e-15, abs=0.0), (n, l)


def test_bessel_zeros_at_a_high_order_take_few_evaluations(monkeypatch):
    # check_dimension accepts any n >= 2; nu = 499 is n = 1000 at l = 0.
    # Scanning from nu instead of from the Qu-Wong bounds would take more
    # than 50 evaluations here.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return hyp0f1(*args, **kwargs)

    hyp0f1 = mpmath.hyp0f1
    monkeypatch.setattr(mpmath, "hyp0f1", counted)
    zeros = _bessel_zeros.__wrapped__(499.0)
    assert len(calls) <= 24
    for ours, ref in zip(zeros, scipy_bessel_zeros(499.0)):
        assert ref * (1.0 - 2e-12) < ours < ref


def test_bessel_zero_refinement_bypasses_the_brentq_binding(monkeypatch):
    # the benchmark counts calls through ball_spectrum.brentq; the one-time
    # Bessel work must not show up there
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(ball_spectrum, "brentq", counted)
    _bessel_zeros.__wrapped__(3.5)
    assert calls == []

"""Tests for the secular function and the clamped ball eigenvalues."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from agplate import ball_spectrum
from agplate.ball_spectrum import (
    MIN_RADIUS,
    SpectralMode,
    _floors,
    eigenfunction_profile,
    eigenvalue_curve,
    lowest_dirichlet_root,
    lowest_eigenvalue,
    scan_lowest_root,
    secular_h,
    secular_parts,
)
from agplate.errors import NoRootFound
from agplate.fd_oracle import FdProblem, fd_lowest_eigenvalue
from agplate.jab_solver import _half_term, jab_condition
from agplate.kummer import KummerParams, eval_m
from closedform import bessel_zero, dirichlet_reference, plate_zero
from refvalues import FROZEN_DISK_EIGENVALUE, FROZEN_LAMBDA1

RNG_SEED = 20260816


def _mp_h(n, l, R, lam):
    """h_R(lambda) from mpmath.hyp1f1 alone, at the working precision."""
    z = mpmath.mpf(-0.5) * mpmath.mpf(R) ** 2
    b = mpmath.mpf(n) / 2 + l
    a_p = (mpmath.mpf(l) + lam) / 2
    a_m = (mpmath.mpf(l) - lam) / 2
    m_p = mpmath.hyp1f1(a_p, b, z)
    m_m = mpmath.hyp1f1(a_m, b, z)
    d_p = (a_p / b) * mpmath.hyp1f1(a_p + 1, b + 1, z)
    d_m = (a_m / b) * mpmath.hyp1f1(a_m + 1, b + 1, z)
    return d_p * m_m - d_m * m_p


def reference_h(n, l, R, lam):
    """Recompute h_R(lambda) at 50 significant digits."""
    with mpmath.workdps(50):
        return float(_mp_h(n, l, R, lam))


def test_secular_h_vanishes_at_zero():
    assert secular_h(2, 0, 1.0, 0.0) == 0.0
    assert secular_h(3, 1, 0.7, 0.0) == 0.0


def test_secular_h_is_odd_bitwise():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        l = int(rng.integers(0, 3))
        R = float(rng.uniform(0.2, 2.0))
        lam = float(rng.uniform(0.1, 40.0))
        assert secular_h(n, l, R, -lam) == -secular_h(n, l, R, lam)


def test_one_series_pass_per_branch(monkeypatch):
    # M and dM/dz come from one pass, so h_R costs two series and the pair
    # condition F four (one per branch per radius)
    evaluate = ball_spectrum.eval_m
    calls = []

    def counted(p, z):
        calls.append((p, z))
        return evaluate(p, z)

    monkeypatch.setattr(ball_spectrum, "eval_m", counted)
    secular_parts(3, 1, 0.8, 3.2)
    assert len(calls) == 2
    calls.clear()
    jab_condition(3, 0.6, 0.9, 3.2)
    assert len(calls) == 4


def test_zero_radius_and_equal_split_skip_series(monkeypatch):
    # a zero radius needs no series (M = 1 at z = 0), and the equal split
    # shares one secular pass between its radii; F keeps the same bits
    def explicit(n, A, B, lam):
        parts_a = secular_parts(n, 0, A, lam)
        parts_b = secular_parts(n, 0, B, lam)
        return _half_term(n, A, parts_a, parts_b) + _half_term(
            n, B, parts_b, parts_a
        )

    expected = [explicit(3, 0.0, 0.9, 3.2), explicit(3, 0.7, 0.7, 3.2)]
    evaluate = ball_spectrum.eval_m
    calls = []

    def counted(p, z):
        calls.append((p, z))
        return evaluate(p, z)

    monkeypatch.setattr(ball_spectrum, "eval_m", counted)
    assert jab_condition(3, 0.0, 0.9, 3.2) == expected[0]
    assert len(calls) == 2
    assert all(z != 0.0 for _, z in calls)
    calls.clear()
    assert jab_condition(3, 0.7, 0.7, 3.2) == expected[1]
    assert len(calls) == 2


@pytest.mark.parametrize(
    "n,l,R,lam",
    [
        (2, 0, 1.0, 5.0),
        (3, 1, 0.8, 3.2),
        (4, 0, 1.5, 7.0),
        (5, 2, 0.6, 1.7),
    ],
)
def test_secular_h_matches_high_precision(n, l, R, lam):
    expected = reference_h(n, l, R, lam)
    assert secular_h(n, l, R, lam) == pytest.approx(expected, rel=1e-9)


def test_lowest_eigenvalue_is_a_certified_root():
    for n, l, R in [(2, 0, 1.0), (3, 0, 0.5), (4, 1, 1.2)]:
        mode = lowest_eigenvalue(n, l, R)
        delta = 1e-9 * mode.lam
        left = secular_h(n, l, R, mode.lam - delta)
        right = secular_h(n, l, R, mode.lam + delta)
        assert left * right < 0.0, (n, l, R)


def test_mode_invariants():
    mode = lowest_eigenvalue(3, 1, 0.9)
    assert (mode.n, mode.l, mode.R) == (3, 1, 0.9)
    assert mode.lam > 0.0
    assert mode.Lambda == mode.lam * mode.lam
    assert math.isfinite(mode.G_R)


@pytest.mark.parametrize(
    "n,l,R,lam",
    [(1, 0, 1.0, 2.0), (2, -1, 1.0, 2.0), (2, 0, -1.0, 2.0),
     (2, 0, math.nan, 2.0), (2, 0, 1.0, 0.0)],
)
def test_spectral_mode_rejects_invalid_fields(n, l, R, lam):
    with pytest.raises(ValueError):
        SpectralMode(n=n, l=l, R=R, lam=lam, G_R=0.1)


def test_frozen_unit_ball_eigenvalues():
    for (n, l, R), expected in FROZEN_LAMBDA1.items():
        mode = lowest_eigenvalue(n, l, R)
        assert mode.Lambda == pytest.approx(expected, rel=1e-12), (n, l)


def test_small_ball_limit_matches_plate_constant():
    # the drift is O(R^2): scaled eigenvalues approach the flat plate value
    R = 0.05
    mode = lowest_eigenvalue(2, 0, R)
    scaled = mode.Lambda * R**4
    assert scaled == pytest.approx(FROZEN_DISK_EIGENVALUE, rel=1e-2)


def test_eigenvalue_decreases_with_radius():
    for n in (2, 3):
        radii = np.linspace(0.3, 2.0, 8)
        values = [lowest_eigenvalue(n, 0, float(R)).Lambda for R in radii]
        assert all(a > b for a, b in zip(values, values[1:])), n


def test_ordering_of_harmonic_degrees():
    for n in (2, 3, 4):
        by_degree = [lowest_eigenvalue(n, l, 1.0).lam for l in (0, 1, 2)]
        assert by_degree[0] < by_degree[1] < by_degree[2], n


def test_curve_agrees_with_single_calls():
    radii = [0.5, 0.8, 1.3]
    curve = eigenvalue_curve(2, 0, radii)
    assert [r for r, _ in curve] == radii
    for R, lam in curve:
        assert lam == lowest_eigenvalue(2, 0, R).lam


def test_curve_requires_increasing_radii():
    with pytest.raises(ValueError):
        eigenvalue_curve(2, 0, [0.5, 0.5])
    with pytest.raises(ValueError):
        eigenvalue_curve(2, 0, [0.8, 0.5])


def test_profile_satisfies_clamped_boundary():
    n, R = 2, 1.0
    mode = lowest_eigenvalue(n, 0, R)
    profile = eigenfunction_profile(mode, samples=2001)
    y = np.asarray(profile.values)
    r = np.asarray(profile.radii)
    scale = float(np.max(np.abs(y)))
    assert r[0] == 0.0 and r[-1] == R
    assert abs(y[-1]) <= 1e-8 * scale
    # second order one-sided slope at the wall
    h = r[-1] - r[-2]
    slope = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    assert abs(slope) <= 1e-4 * scale / R
    # radial symmetry: flat at the origin for l = 0
    slope0 = (y[1] - y[0]) / (r[1] - r[0])
    assert abs(slope0) <= 5e-2 * scale / R


@pytest.mark.parametrize("n,l,R", [(2, 0, 1.0), (3, 1, 0.8), (5, 2, 3.0), (2, 0, 7.0)])
def test_profile_matches_the_pointwise_series(n, l, R):
    # the batched factors against eval_m at each sample: they differ by up
    # to 2e-13 of the largest value here, inside the tables' error bound
    mode = lowest_eigenvalue(n, l, R)
    profile = eigenfunction_profile(mode, samples=64)
    b = 0.5 * n + l
    plus = KummerParams(0.5 * (l + mode.lam), b)
    minus = KummerParams(0.5 * (l - mode.lam), b)
    expected = [
        r**l * (eval_m(plus, -0.5 * r * r).value
                + mode.G_R * eval_m(minus, -0.5 * r * r).value)
        for r in profile.radii
    ]
    scale = max(abs(v) for v in expected)
    assert np.allclose(profile.values, expected, rtol=0.0, atol=1e-11 * scale)


def test_profile_vanishes_at_origin_for_positive_degree():
    n, R = 3, 0.8
    mode = lowest_eigenvalue(n, 1, R)
    profile = eigenfunction_profile(mode, samples=401)
    assert profile.values[0] == 0.0
    scale = max(abs(v) for v in profile.values)
    assert abs(profile.values[-1]) <= 1e-8 * scale


def test_lowest_root_at_min_radius():
    # the root lambda ~ 10.2 / R^2 lies far above the unit ball's scan range
    mode = lowest_eigenvalue(2, 0, MIN_RADIUS)
    delta = 1e-9 * mode.lam
    left = secular_h(2, 0, MIN_RADIUS, mode.lam - delta)
    right = secular_h(2, 0, MIN_RADIUS, mode.lam + delta)
    assert left * right < 0.0
    # the drift is negligible here: Lambda_1 R^4 is the flat plate constant
    scaled = mode.Lambda * MIN_RADIUS**4
    assert scaled == pytest.approx(FROZEN_DISK_EIGENVALUE, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_small_radii_match_mesh_oracle(n):
    for l, R in itertools.product((0, 1, 2), (1e-3, 0.01, 0.05)):
        exact = lowest_eigenvalue(n, l, R).Lambda
        mesh = fd_lowest_eigenvalue(FdProblem(n, l, R, 4000))
        assert exact == pytest.approx(mesh, rel=2e-6), (n, l, R)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 20, 40])
def test_min_radius_matches_flat_plate_closed_form(n):
    # at R = 1e-3 the weight is flat to 1e-6: Lambda_1 R^4 -> k^4
    for l in (0, 1, 2):
        k = plate_zero(0.5 * n + l - 1.0)
        scaled = lowest_eigenvalue(n, l, MIN_RADIUS).Lambda * MIN_RADIUS**4
        assert scaled == pytest.approx(k**4, rel=1e-6), (n, l)


def test_roots_interlace_with_dirichlet_eigenvalues():
    # r^2/4 lies in [0, R^2/4], so the k-th Dirichlet eigenvalue mu_k (a zero
    # of lambda -> M_+) lies in [lb_k, lb_k + R^2/4]; mu_1 sits above the
    # whole-space level n + l, and mu_1 < lambda_1 < mu_2
    for n, l, R in itertools.product((2, 3, 5, 8), (0, 1, 2), (1e-3, 0.1, 1, 2, 3)):
        nu = 0.5 * n + l - 1.0

        def m_plus(t):
            return secular_parts(n, l, R, t)[0]

        mu = []
        for k in (1, 2):
            lb = (bessel_zero(nu, k) / R) ** 2 + 0.5 * n
            ub = lb + 0.25 * R * R
            assert m_plus(lb) * m_plus(ub) < 0.0, (n, l, R, k)
            mu.append(brentq(m_plus, lb, ub, xtol=1e-300, rtol=1e-15))
        lam = lowest_eigenvalue(n, l, R).lam
        assert n + l < mu[0] < lam < mu[1], (n, l, R)
        floor_1, floor_2 = _floors(n, l, R)
        assert floor_1 < mu[0] and floor_2 < mu[1], (n, l, R)


def count_scans(monkeypatch):
    calls = []
    scan = ball_spectrum.scan_lowest_root

    def counted(f, radius):
        calls.append(radius)
        return scan(f, radius)

    monkeypatch.setattr(ball_spectrum, "scan_lowest_root", counted)
    return calls


def test_open_bracket_raises_instead_of_scanning(monkeypatch):
    # at R = 6 the root lies above lb_2, the old bracket's top; the floors
    # bracket it, with no scan, at the 40-digit root of h_R
    calls = count_scans(monkeypatch)
    lam = lowest_eigenvalue(2, 0, 6.0).lam
    assert calls == []
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda t: _mp_h(2, 0, 6.0, t), mpmath.mpf(lam))
    assert lam == pytest.approx(float(root), rel=1e-12)
    # an h of one sign leaves the bracket open: a typed error, no scan
    monkeypatch.setattr(ball_spectrum, "secular_h", lambda n, l, R, t: 1.0)
    with pytest.raises(NoRootFound, match=r"n=2, l=0, R=6\.0: .*bracket \["):
        lowest_eigenvalue(2, 0, 6.0)
    assert calls == []


# the examples sit where the top end max(lb_2, n + l + 2), the better of
# the two bounds taken alone, falls below lambda_1 and leaves that bracket
# open
@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(2, 12),
    l=st.integers(0, 2),
    log_r=st.floats(math.log(MIN_RADIUS), math.log(12.0)),
)
@example(n=40, l=0, log_r=math.log(6.0))
@example(n=40, l=0, log_r=math.log(6.25))
@example(n=40, l=2, log_r=math.log(6.5))
def test_floors_bracket_the_lowest_roots(n, l, log_r):
    # from R of about 9 (n = 2) lambda_1 - n - l is below an ulp, and there
    # floor_1 = n + l: the root may round onto the bracket's lower end
    R = math.exp(log_r)
    lo, hi = _floors(n, l, R)
    lam = lowest_eigenvalue(n, l, R).lam
    assert lo <= lam < hi
    h_lo, h_hi = secular_h(n, l, R, lo), secular_h(n, l, R, hi)
    assert (h_lo < 0.0) != (h_hi < 0.0)
    if l == 0:
        mu = lowest_dirichlet_root(n, R)
        assert lo <= mu < hi
        m_lo, m_hi = (secular_parts(n, 0, R, t)[0] for t in (lo, hi))
        assert m_lo > 0.0 > m_hi


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(2, 8),
    l=st.integers(0, 3),
    log_r=st.floats(math.log(MIN_RADIUS), math.log(3.0)),
)
def test_bracketed_root_matches_the_scan(n, l, log_r):
    R = math.exp(log_r)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_scans(monkeypatch)
        lam = lowest_eigenvalue(n, l, R).lam
    assert calls == []
    scanned = scan_lowest_root(lambda t: secular_h(n, l, R, t), R)
    assert lam == pytest.approx(scanned, rel=1e-10)


def test_scan_work_does_not_grow_as_radius_shrinks(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return secular_h(*args)

    monkeypatch.setattr(ball_spectrum, "secular_h", counted)
    for n, l in itertools.product(range(2, 6), range(3)):
        for R in np.geomspace(MIN_RADIUS, 1.0, 7):
            calls = 0
            lowest_eigenvalue(n, l, float(R))
            assert 0 < calls <= 300, (n, l, R, calls)


def test_dirichlet_root_matches_mpmath():
    for n in (2, 3, 4, 5, 6, 8, 12, 20, 40):
        for X in (7e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
            lam = lowest_dirichlet_root(n, X)
            assert lam == pytest.approx(dirichlet_reference(n, X), rel=1e-13)


def test_dirichlet_root_lies_below_the_clamped_root():
    # mu_1 < lambda_1 < mu_2 (module docstring), and mu_1 > n
    for n, X in [(2, 0.3), (3, 1.0), (5, 2.5)]:
        mu = lowest_dirichlet_root(n, X)
        assert n < mu < lowest_eigenvalue(n, 0, X).lam


def test_validation_errors():
    with pytest.raises(ValueError):
        lowest_dirichlet_root(2, 0.0)
    with pytest.raises(ValueError):
        lowest_eigenvalue(1, 0, 1.0)
    with pytest.raises(ValueError):
        lowest_eigenvalue(2, -1, 1.0)
    with pytest.raises(ValueError):
        lowest_eigenvalue(2, 0, 0.5 * MIN_RADIUS)
    with pytest.raises(ValueError):
        eigenfunction_profile(lowest_eigenvalue(2, 0, 1.0), samples=1)

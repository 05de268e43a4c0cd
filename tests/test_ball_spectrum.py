"""Tests for the secular function and the clamped ball eigenvalues."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from agplate import ball_spectrum
from agplate.ball_spectrum import (
    MIN_RADIUS,
    SpectralMode,
    eigenfunction_profile,
    eigenvalue_curve,
    lowest_eigenvalue,
    secular_h,
)
from agplate.fd_oracle import FdProblem, fd_lowest_eigenvalue
from refvalues import FROZEN_DISK_EIGENVALUE, FROZEN_LAMBDA1

RNG_SEED = 20260816


def reference_h(n, l, R, lam):
    """Recompute h_R(lambda) at 50 significant digits."""
    with mpmath.workdps(50):
        z = mpmath.mpf(-0.5) * mpmath.mpf(R) ** 2
        b = mpmath.mpf(n) / 2 + l
        a_p = (mpmath.mpf(l) + lam) / 2
        a_m = (mpmath.mpf(l) - lam) / 2
        m_p = mpmath.hyp1f1(a_p, b, z)
        m_m = mpmath.hyp1f1(a_m, b, z)
        d_p = (a_p / b) * mpmath.hyp1f1(a_p + 1, b + 1, z)
        d_m = (a_m / b) * mpmath.hyp1f1(a_m + 1, b + 1, z)
        return float(d_p * m_m - d_m * m_p)


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
    assert mode.l == 1
    assert mode.lam > 0.0
    assert mode.Lambda == mode.lam * mode.lam
    assert math.isfinite(mode.G_R)


def test_spectral_mode_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        SpectralMode(l=0, lam=2.0, Lambda=5.0, G_R=0.1)
    with pytest.raises(ValueError):
        SpectralMode(l=-1, lam=2.0, Lambda=4.0, G_R=0.1)


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
    profile = eigenfunction_profile(mode, n, R, samples=2001)
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


def test_profile_vanishes_at_origin_for_positive_degree():
    n, R = 3, 0.8
    mode = lowest_eigenvalue(n, 1, R)
    profile = eigenfunction_profile(mode, n, R, samples=401)
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


def test_validation_errors():
    with pytest.raises(ValueError):
        lowest_eigenvalue(1, 0, 1.0)
    with pytest.raises(ValueError):
        lowest_eigenvalue(2, -1, 1.0)
    with pytest.raises(ValueError):
        lowest_eigenvalue(2, 0, 0.5 * MIN_RADIUS)
    with pytest.raises(ValueError):
        eigenfunction_profile(lowest_eigenvalue(2, 0, 1.0), 2, 1.0, samples=1)

"""Tests for the weighted volume Phi and the mass-split geometry."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from agplate import measure
from agplate.measure import (
    INVERT_TOL,
    complement_radius,
    half_mass_radius,
    phi_inverse,
    phi_volume,
    unit_sphere_area,
)

RNG_SEED = 20260816


def test_unit_sphere_areas():
    # 2 pi, 4 pi, 2 pi^2, 8 pi^2 / 3
    known = {
        2: 2.0 * math.pi,
        3: 4.0 * math.pi,
        4: 2.0 * math.pi**2,
        5: 8.0 * math.pi**2 / 3.0,
    }
    for n, expected in known.items():
        assert unit_sphere_area(n) == pytest.approx(expected, rel=1e-14)


def test_unit_sphere_area_rejects_bad_dimension():
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            unit_sphere_area(n)


def test_phi_closed_form_plane():
    # integrating exp(r^2/2) r dr gives 2 pi (exp(R^2/2) - 1)
    for R in np.linspace(0.05, 3.0, 40):
        expected = 2.0 * math.pi * math.expm1(0.5 * R * R)
        assert phi_volume(2, float(R)) == pytest.approx(expected, rel=1e-12)


def test_phi_series_three_dimensions():
    # expand exp(r^2/2) and integrate termwise on [0, 1]
    total = 0.0
    term_scale = 1.0
    for k in range(60):
        total += term_scale / (2 * k + 3)
        term_scale /= 2.0 * (k + 1)
    expected = 4.0 * math.pi * total
    assert phi_volume(3, 1.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 40])
def test_phi_matches_high_precision_quadrature(n):
    # beta_n int_0^R exp(r^2/2) r^(n-1) dr at 40 digits, without the series
    with mpmath.workdps(40):
        half = mpmath.mpf(n) / 2
        beta = 2 * mpmath.pi**half / mpmath.gamma(half)
        for R in np.geomspace(1e-3, 30.0, 16):
            R = float(R)
            integral = mpmath.quad(
                lambda r: mpmath.exp(r * r / 2) * r ** (n - 1), [0, R]
            )
            expected = float(beta * integral)
            assert phi_volume(n, R) == pytest.approx(expected, rel=1e-12), R


def test_import_leaves_scipy_integrate_out():
    # Phi needs no quadrature, so the package must not load scipy.integrate
    src = str(Path(measure.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, agplate; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


# (n, R, Phi(n, R), phi_inverse(n, Phi / 2)) as reprs: the all-positive
# series and the Newton iterates of the inversion are pinned to the bit
PINNED_PHI = [
    (2, 0.001, 3.141593438988087e-06, 0.0007071068253807186),
    (2, 0.37, 0.4451453400189306, 0.26385814753264003),
    (3, 1.7, 52.41175684675797, 1.4670251086191584),
    (5, 3.0, 45439.22774685288, 2.8344466253056058),
    (12, 0.05, 3.26341355030734e-16, 0.047194175295651605),
    (40, 2.2, 1807967.8390831852, 2.1660429421729734),
    (7, 6.5, 510311947176097.75, 6.404568739196567),
    (2, 30.0, 1.7009702772623893e+196, 29.976886189844336),
]


@pytest.mark.parametrize("n,R,volume,half_radius", PINNED_PHI)
def test_phi_and_its_inverse_keep_their_bits(n, R, volume, half_radius):
    assert repr(phi_volume(n, R)) == repr(volume)
    assert repr(phi_inverse(n, 0.5 * volume)) == repr(half_radius)
    assert repr(half_mass_radius(n, R)) == repr(half_radius)


def test_phi_zero_radius_is_zero():
    for n in (2, 3, 4, 5):
        assert phi_volume(n, 0.0) == 0.0


def test_phi_rejects_bad_input():
    with pytest.raises(ValueError):
        phi_volume(2, -0.5)
    with pytest.raises(ValueError):
        phi_volume(2, math.inf)
    with pytest.raises(ValueError):
        phi_volume(1, 1.0)


def test_phi_monotone_in_radius():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        r1, r2 = sorted(rng.uniform(0.0, 3.0, size=2))
        if r2 - r1 < 1e-6:
            continue
        assert phi_volume(n, float(r1)) < phi_volume(n, float(r2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_inverse_round_trip(n):
    for R in np.linspace(0.25, 3.0, 12):
        R = float(R)
        v = phi_volume(n, R)
        recovered = phi_inverse(n, v)
        # the inversion stops on a volume residual; convert it to a radius bound
        dphi = unit_sphere_area(n) * math.exp(0.5 * R * R) * R ** (n - 1)
        tol_r = 4.0 * INVERT_TOL * max(1.0, v) / dphi + 1e-13 * R
        assert abs(recovered - R) <= tol_r, (n, R, recovered)


def test_phi_inverse_round_trip_at_tiny_volume():
    # Phi(40, 1e-3) ~ 1e-120; a start at the bracket midpoint ran out of steps
    v = phi_volume(40, 1e-3)
    assert phi_inverse(40, v) == pytest.approx(1e-3, rel=1e-12)


def test_phi_inverse_is_cheap_at_small_radii(monkeypatch):
    volume = measure.phi_volume
    calls = []

    def counted(n, R):
        calls.append(R)
        return volume(n, R)

    monkeypatch.setattr(measure, "phi_volume", counted)
    cases = [(n, R) for n in (2, 3, 4, 5) for R in (1e-3, 0.01, 0.1)]
    # roots at powers of two, where an earlier doubling bracket ended
    cases += [(2, 1.0), (3, 2.0), (5, 1.0)]
    for n, R in cases:
        v = volume(n, R)
        calls.clear()
        assert phi_inverse(n, v) == pytest.approx(R, rel=1e-12)
        # the closed-form start leaves a few Newton steps on log Phi
        assert len(calls) <= 6, (n, R, len(calls))


def test_phi_inverse_newton_on_log_phi_is_fast(monkeypatch):
    # over 500 seeded draws the closed-form start takes a mean of 3.9 calls
    # and at worst 4
    volume = measure.phi_volume
    calls = []

    def counted(n, R):
        calls.append(R)
        return volume(n, R)

    monkeypatch.setattr(measure, "phi_volume", counted)
    rng = np.random.default_rng(RNG_SEED)
    counts = []
    for _ in range(500):
        n = int(rng.integers(2, 6))
        R = float(rng.uniform(0.05, 3.0))
        v = volume(n, R)
        calls.clear()
        assert phi_inverse(n, v) == pytest.approx(R, rel=1e-12)
        counts.append(len(calls))
    assert max(counts) <= 8
    assert sum(counts) / len(counts) <= 6.8
    calls.clear()
    phi_inverse(5, volume(5, 2.0123))
    assert len(calls) == 4


def test_phi_inverse_zero_and_rejects():
    assert phi_inverse(3, 0.0) == 0.0
    with pytest.raises(ValueError):
        phi_inverse(3, -1e-9)
    with pytest.raises(ValueError):
        phi_inverse(3, math.nan)


def test_half_mass_closed_form_plane():
    # 2 pi (exp(A^2/2) - 1) = pi (exp(1/2) - 1) at R = 1
    expected = math.sqrt(2.0 * math.log(0.5 * (math.sqrt(math.e) + 1.0)))
    assert half_mass_radius(2, 1.0) == pytest.approx(expected, rel=1e-10)


def test_half_mass_splits_mass():
    # R = 1e-3 (the smallest radius the solvers accept) has Phi ~ R^n << 1
    cases = [(2, 1.0), (3, 0.8), (4, 2.0), (5, 0.5)]
    cases += [(n, 1e-3) for n in (2, 3, 4, 5)]
    for n, R in cases:
        a_star = half_mass_radius(n, R)
        assert 0.0 < a_star < R
        assert 2.0 * phi_volume(n, a_star) == pytest.approx(
            phi_volume(n, R), rel=1e-9
        )


def test_complement_exact_endpoints():
    for n, R in [(2, 1.0), (3, 0.7), (5, 2.5)]:
        assert complement_radius(n, R, 0.0) == R
        assert complement_radius(n, R, R) == 0.0


def test_complement_fixed_point_at_half_mass():
    for n, R in [(2, 1.0), (3, 0.8)]:
        a_star = half_mass_radius(n, R)
        assert complement_radius(n, R, a_star) == pytest.approx(
            a_star, rel=1e-8, abs=1e-9
        )


def test_complement_is_an_involution():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        R = float(rng.uniform(0.5, 2.5))
        A = float(rng.uniform(0.1 * R, 0.9 * R))
        B = complement_radius(n, R, A)
        assert 0.0 < B < R
        assert complement_radius(n, R, B) == pytest.approx(A, rel=1e-7, abs=1e-9)


def test_complement_mass_balance():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        R = float(rng.uniform(0.5, 2.5))
        A = float(rng.uniform(0.05 * R, 0.95 * R))
        B = complement_radius(n, R, A)
        assert phi_volume(n, A) + phi_volume(n, B) == pytest.approx(
            phi_volume(n, R), rel=1e-9
        )


def test_complement_clamps_tiny_violations():
    R = 1.0
    assert complement_radius(2, R, R + 1e-13) == 0.0
    assert complement_radius(2, R, -1e-13) == R


def test_complement_rejects_large_violations():
    with pytest.raises(ValueError):
        complement_radius(2, 1.0, 2.0)
    with pytest.raises(ValueError):
        complement_radius(2, 1.0, -0.1)
    with pytest.raises(ValueError):
        complement_radius(2, 1.0, math.nan)


"""Tests for the coupled pair condition and its constrained minimum."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from agplate import jab_solver
from agplate.ball_spectrum import (
    _floors,
    lowest_dirichlet_root,
    lowest_eigenvalue,
    secular_h,
)
from agplate.constants import sweep_radii
from agplate.jab_solver import (
    JabSolution,
    jab_condition,
    minimize_jab,
    solve_jab,
)
from agplate.measure import complement_radius, half_mass_radius, phi_volume
from closedform import bessel_zero, dirichlet_reference, plate_zero

RNG_SEED = 20260816


def test_zero_radius_reduces_to_single_ball():
    # the A = 0 factor collapses to 1, leaving a scaled single-ball h
    for lam in (0.5, 3.0, 11.25):
        expected = math.exp(0.5) * secular_h(2, 0, 1.0, lam)
        assert jab_condition(2, 0.0, 1.0, lam) == expected


def test_solve_at_zero_radius_matches_single_ball():
    for n, R in [(2, 1.0), (3, 0.7)]:
        mode = lowest_eigenvalue(n, 0, R)
        sol = solve_jab(n, 0.0, R)
        assert sol.lam == pytest.approx(mode.lam, rel=1e-10)


def test_condition_is_swap_symmetric_bitwise():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        A = float(rng.uniform(0.1, 1.5))
        B = float(rng.uniform(0.1, 1.5))
        lam = float(rng.uniform(0.1, 30.0))
        assert jab_condition(n, A, B, lam) == jab_condition(n, B, A, lam)


def test_condition_is_odd_bitwise():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        A = float(rng.uniform(0.1, 1.5))
        B = float(rng.uniform(0.1, 1.5))
        lam = float(rng.uniform(0.1, 30.0))
        assert jab_condition(n, A, B, -lam) == -jab_condition(n, A, B, lam)


def test_solve_is_swap_invariant():
    first = solve_jab(2, 0.4, 0.9)
    second = solve_jab(2, 0.9, 0.4)
    assert first.lam == second.lam
    assert first.mu == second.mu


def test_smallest_root_against_dense_scan():
    # brute force oracle: march in tiny steps, then bisect the first bracket
    n, A, B = 2, 0.5, 0.5

    def f(lam):
        return jab_condition(n, A, B, lam)

    step = 1e-3
    lam = step
    prev = f(lam)
    root = None
    while lam < 50.0:
        nxt = lam + step
        cur = f(nxt)
        if prev != 0.0 and (prev < 0.0) != (cur < 0.0):
            lo, hi = lam, nxt
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                vm = f(mid)
                if vm == 0.0:
                    lo = hi = mid
                    break
                if (prev < 0.0) != (vm < 0.0):
                    hi = mid
                else:
                    lo = mid
            root = 0.5 * (lo + hi)
            break
        lam, prev = nxt, cur
    assert root is not None
    assert solve_jab(n, A, B).lam == pytest.approx(root, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("A", [3.0, 4.0, 5.0])
def test_equal_split_root_is_the_dirichlet_root(n, A):
    # lambda(A, A) = mu_D1(A); a cold scan here found a higher root of F
    assert solve_jab(n, A, A).lam == pytest.approx(
        dirichlet_reference(n, A), rel=1e-13
    )


def test_warm_start_agrees_with_cold_start():
    # no solve is warm-started any more: each brackets its own root on the
    # floors and mu_D1 of its radii, so none reaches the scan, and the root
    # is the one the cold scan found
    with mock.patch.object(
        jab_solver, "scan_lowest_root", wraps=jab_solver.scan_lowest_root
    ) as scan:
        sol = solve_jab(3, 0.4, 0.7)
    assert scan.call_count == 0
    assert sol.lam == pytest.approx(29.7999191258, rel=1e-10)


def test_hint_at_second_root_returns_lowest_root():
    # the second root (near 67.219) lies above the bracket, which ends at
    # or below nu_2 = min(mu_D1(0.4), mu_D2(0.7)); the lowest root is returned
    second = brentq(
        lambda lam: jab_condition(3, 0.4, 0.7, lam), 60.0, 70.0, xtol=1e-14
    )
    assert second == pytest.approx(67.219, rel=1e-4)
    lam = solve_jab(3, 0.4, 0.7).lam
    assert lam == pytest.approx(29.7999191258, rel=1e-10)
    assert lowest_dirichlet_root(3, 0.7) <= lam <= lowest_dirichlet_root(3, 0.4)


@st.composite
def _pairs(draw):
    n = draw(st.integers(2, 8))
    R = math.exp(draw(st.floats(math.log(0.05), math.log(8.0))))
    share = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return n, R, share * half_mass_radius(n, R)


# the first example is a close pair: its two lowest roots, 3.000145 and
# 3.001555, lie 1.4e-3 apart on either side of mu_D1(A), and a fixed-step
# scan steps over both; the second is a split equal to rounding, where F at
# mu_D1(A) keeps its sign; the third is the single ball
@settings(deadline=None, max_examples=40)
@given(_pairs())
@example((3, 5.539442633140753, 4.6227024339439))
@example((3, 3.0, 2.794853262264966))
@example((2, 0.05, 0.0))
def test_pair_root_lies_between_the_dirichlet_roots(case):
    # mu_D1(B) = nu_1 <= lambda_1(A, B) <= nu_2 <= mu_D1(A) for A < B, and
    # F changes sign across the root.  The step is 1e-9 relative, or 1% of
    # lambda - n where the roots crowd closer than that above the whole
    # space's level n (R from about 6)
    n, R, A = case
    B = complement_radius(n, R, A)
    lam = solve_jab(n, A, B).lam
    assert lowest_dirichlet_root(n, B) * (1.0 - 1e-12) <= lam
    # below floor_1(A) the root is below mu_D1(A) without solving for it,
    # which a tiny A would make a root near j^2 / A^2; A may round to 0
    assert (
        A == 0.0
        or lam < _floors(n, 0, A)[0]
        or lam <= lowest_dirichlet_root(n, A) * (1.0 + 1e-12)
    )
    step = min(1e-9 * lam, 1e-2 * (lam - n))
    assert jab_condition(n, A, B, lam - step) > 0.0
    assert jab_condition(n, A, B, lam + step) < 0.0


def test_condition_validation():
    with pytest.raises(ValueError):
        jab_condition(2, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        jab_condition(2, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        jab_condition(1, 0.5, 0.5, 1.0)


def test_solution_invariants():
    sol = solve_jab(2, 0.3, 0.8)
    assert sol.mu == sol.lam * sol.lam
    with pytest.raises(ValueError):
        JabSolution(A=0.1, B=0.2, n=2, lam=2.0, mu=5.0)
    with pytest.raises(ValueError):
        JabSolution(A=-0.1, B=0.2, n=2, lam=2.0, mu=4.0)


def test_minimum_profile_structure():
    n, R = 2, 0.7
    record = minimize_jab(n, R, grid_points=48)
    a_star = half_mass_radius(n, R)
    assert len(record.profile) == 48
    first, last = record.profile[0], record.profile[-1]
    assert first[0] == 0.0 and first[1] == R
    assert last[0] == a_star and last[1] == a_star
    # grid must respect the volume constraint
    for a, b, lam in record.profile:
        assert lam > 0.0
        assert phi_volume(n, a) + phi_volume(n, b) == pytest.approx(
            phi_volume(n, R), rel=1e-9
        )
    # reported minimum is at least as good as every grid sample
    for _, _, lam in record.profile:
        assert record.J_min <= lam * lam
    assert 0.0 <= record.A_min <= a_star + 1e-9
    assert record.J_min > 0.0


def test_minimum_profile_is_continuous():
    record = minimize_jab(2, 0.7, grid_points=48)
    roots = [lam for _, _, lam in record.profile]
    spread = max(roots) - min(roots)
    jumps = [abs(b - a) for a, b in zip(roots, roots[1:])]
    assert max(jumps) <= max(spread / 10.0, 1e-9)


# the example is the first acceptance-sweep radius at n = 3: on the fine
# grid the second sample dips 1e-12 below A = 0, a roundoff tie that must
# still go to A = 0
@settings(deadline=None, max_examples=15)
@given(st.integers(2, 5), st.floats(0.05, 3.0))
@example(3, sweep_radii(0.05, 3.0, 120)[0])
def test_default_grid_matches_fine_grid_at_an_exact_endpoint(n, R):
    coarse = minimize_jab(n, R)
    fine = minimize_jab(n, R, grid_points=200)
    assert coarse.J_min == pytest.approx(fine.J_min, rel=1e-9)
    ends = (0.0, half_mass_radius(n, R))
    assert coarse.A_min in ends
    assert fine.A_min in ends


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("R", [0.05, 1.0, 3.0])
def test_minimize_hint_returns_the_unhinted_minimum(n, R):
    # no sample of the profile scans cold, the A = 0 sample's root is the
    # R-ball's clamped root, every profile root is the one a separate solve
    # certifies, and so is the minimum picked from them
    with mock.patch.object(
        jab_solver, "scan_lowest_root", wraps=jab_solver.scan_lowest_root
    ) as scan:
        record = minimize_jab(n, R)
    assert scan.call_count == 0
    lam1 = lowest_eigenvalue(n, 0, R).lam
    assert record.profile[0][2] == pytest.approx(lam1, rel=1e-10)
    unhinted = [solve_jab(n, A, B) for A, B, _ in record.profile]
    for (A, B, lam), cold in zip(record.profile, unhinted):
        assert lam == pytest.approx(cold.lam, rel=1e-10), (A, B)
    lowest = min(s.mu for s in unhinted)
    best = next(
        s for s in unhinted
        if s.mu - lowest <= jab_solver.ENDPOINT_TIE_REL * lowest
    )
    assert record.A_min == best.A
    assert record.B_min == best.B
    assert record.J_min == pytest.approx(best.mu, rel=1e-10)


def test_minimize_below_min_radius_runs_cold_to_the_flat_limits():
    # lowest_eigenvalue stops at MIN_RADIUS, so the A = 0 sample there starts
    # cold; both endpoints sit at their flat-plate roots, k^2/R^2 and j^2/A*^2
    R = 5e-4
    record = minimize_jab(2, R)
    (_, _, lam0), (a_star, _, lam_end) = record.profile[0], record.profile[-1]
    assert lam0 == pytest.approx(plate_zero(0.0) ** 2 / R**2, rel=1e-6)
    assert lam_end == pytest.approx(bessel_zero(0.0, 1) ** 2 / a_star**2, rel=1e-6)
    assert record.A_min == 0.0
    assert record.J_min == lam0 * lam0


def test_minimize_validation():
    with pytest.raises(ValueError):
        minimize_jab(2, 0.0)
    with pytest.raises(ValueError):
        minimize_jab(2, 1.0, grid_points=8)
    with pytest.raises(ValueError):
        minimize_jab(1, 1.0)

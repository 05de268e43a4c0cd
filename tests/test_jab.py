"""Tests for the coupled pair condition and its constrained minimum."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from agplate import jab_solver
from agplate.ball_spectrum import lowest_eigenvalue, secular_h
from agplate.constants import sweep_radii
from agplate.jab_solver import (
    JabSolution,
    jab_condition,
    minimize_jab,
    solve_jab,
)
from agplate.measure import complement_radius, half_mass_radius, phi_volume

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


def test_warm_start_agrees_with_cold_start():
    cold = solve_jab(3, 0.4, 0.7)
    warm = solve_jab(3, 0.4, 0.7, lambda_hint=cold.lam)
    assert warm.lam == pytest.approx(cold.lam, rel=1e-10)
    # a hint far from any root must not break the fallback scan
    off = solve_jab(3, 0.4, 0.7, lambda_hint=1e-4)
    assert off.lam == pytest.approx(cold.lam, rel=1e-10)


def test_hint_at_second_root_returns_lowest_root():
    cold = solve_jab(3, 0.4, 0.7)
    assert cold.lam == pytest.approx(29.7999191258, rel=1e-10)
    # a hint at the second root (near 67.219) brackets it; the sign checks
    # at the bracket's lower end see the lowest root below it
    second = brentq(
        lambda lam: jab_condition(3, 0.4, 0.7, lam), 60.0, 70.0, xtol=1e-14
    )
    assert second == pytest.approx(67.219, rel=1e-4)
    warm = solve_jab(3, 0.4, 0.7, lambda_hint=second)
    assert warm.lam == pytest.approx(cold.lam, rel=1e-10)


@pytest.mark.parametrize(
    "factor, cold_scans", [(1.0, 0), (1.05, 0), (0.85, 0), (0.5, 1), (2.0, 1)]
)
def test_warm_start_widens_before_falling_back(factor, cold_scans):
    # 5% and 15% off need the widened brackets; 0.5 and 2 need the cold scan
    cold = solve_jab(3, 0.4, 0.7)
    with mock.patch.object(
        jab_solver, "scan_lowest_root", wraps=jab_solver.scan_lowest_root
    ) as scan:
        warm = solve_jab(3, 0.4, 0.7, lambda_hint=factor * cold.lam)
    assert scan.call_count == cold_scans
    assert warm.lam == pytest.approx(cold.lam, rel=1e-10)


@st.composite
def _hinted_pairs(draw):
    n = draw(st.integers(2, 5))
    R = draw(st.floats(0.05, 3.0))
    A = draw(st.floats(0.0, 1.0)) * half_mass_radius(n, R)
    factor = draw(st.floats(0.5, 2.0))
    return n, R, A, factor


# the examples pin three paths: at the equal split two roots lie below the
# bracket around the third, so F alone passes and the ball check sends the
# solve to the cold scan; the widest bracket holds no root; the bracket
# needs widening
@settings(deadline=None)
@given(_hinted_pairs())
@example((3, 3.0, 2.794853262264966, 2.0))
@example((2, 0.05, 0.0, 0.5))
@example((5, 3.0, 0.0, 1.01))
def test_hinted_root_matches_cold_root(case):
    n, R, A, factor = case
    B = complement_radius(n, R, A)
    cold = solve_jab(n, A, B)
    warm = solve_jab(n, A, B, lambda_hint=factor * cold.lam)
    assert warm.lam == pytest.approx(cold.lam, rel=1e-9)


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


def test_minimize_validation():
    with pytest.raises(ValueError):
        minimize_jab(2, 0.0)
    with pytest.raises(ValueError):
        minimize_jab(2, 1.0, grid_points=8)
    with pytest.raises(ValueError):
        minimize_jab(1, 1.0)

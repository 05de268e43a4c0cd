"""Tests for the finite difference oracle on the radial clamped problem."""

import math

import pytest

from agplate.errors import NonConvergent
from agplate.fd_oracle import WEIGHTS, FdProblem, fd_lowest_eigenvalue
from refvalues import FROZEN_DISK_EIGENVALUE, FROZEN_LAMBDA1


def test_observed_convergence_order():
    values = {
        m: fd_lowest_eigenvalue(FdProblem(2, 0, 1.0, m)) for m in (250, 500, 1000)
    }
    order = math.log2((values[250] - values[500]) / (values[500] - values[1000]))
    assert 1.7 <= order <= 2.3, order


def test_unweighted_disk_matches_frozen_plate_constant():
    coarse = fd_lowest_eigenvalue(FdProblem(2, 0, 1.0, 1000, weight="none"))
    fine = fd_lowest_eigenvalue(FdProblem(2, 0, 1.0, 2000, weight="none"))
    richardson = (4.0 * fine - coarse) / 3.0
    assert richardson == pytest.approx(FROZEN_DISK_EIGENVALUE, rel=1e-5)


def test_unweighted_scaling_in_radius():
    # with no drift the discrete operator at fixed mesh scales exactly as R^-4
    mesh = 400
    one = fd_lowest_eigenvalue(FdProblem(3, 0, 1.0, mesh, weight="none"))
    two = fd_lowest_eigenvalue(FdProblem(3, 0, 2.0, mesh, weight="none"))
    assert one / two == pytest.approx(16.0, rel=1e-8)


def test_weighted_spot_values():
    for (n, l, R), expected in FROZEN_LAMBDA1.items():
        got = fd_lowest_eigenvalue(FdProblem(n, l, R, 1000))
        assert got == pytest.approx(expected, rel=1e-4), (n, l)


def test_weight_is_one_of_the_named_weights():
    assert FdProblem(2, 0, 1.0, 200).weight == "antigauss"
    for weight in WEIGHTS:
        FdProblem(2, 0, 1.0, 200, weight=weight)
    with pytest.raises(ValueError, match="antigauss, none"):
        FdProblem(2, 0, 1.0, 200, weight="gauss")


def test_problem_validation():
    with pytest.raises(ValueError):
        FdProblem(1, 0, 1.0, 200)
    with pytest.raises(ValueError):
        FdProblem(2, -1, 1.0, 200)
    with pytest.raises(ValueError):
        FdProblem(2, 0, 0.0, 200)
    with pytest.raises(ValueError):
        FdProblem(2, 0, 1.0, 32)


def test_iteration_budget_is_enforced():
    with pytest.raises(NonConvergent):
        fd_lowest_eigenvalue(FdProblem(2, 0, 1.0, 200), max_iterations=1)

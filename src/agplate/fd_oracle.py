"""Independent finite-difference cross-check for the clamped eigenvalues.

This module never touches the hypergeometric machinery.  It discretizes the
weighted clamped problem directly: on the uniform mesh r_j = j*delta,
delta = R/(m+1), the drifted radial operator

    (A y)_j = (y_{j-1} - 2 y_j + y_{j+1}) / delta^2
              + c_j (y_{j+1} - y_{j-1}) / (2 delta)
              - l (l + n - 2) / r_j^2 * y_j,
    c_j = (n - 1)/r_j + phi'(r_j),

is assembled as a rectangular matrix L acting on the interior values
(y_1 .. y_m).  Closures:

  * origin: for l = 0 the ghost value y_0 = (4 y_1 - y_2)/3 encodes the
    one-sided second-order condition y'(0) = 0; for l >= 1, y_0 = 0;
  * wall: y_{m+1} = 0 (clamped), and one extra row evaluates A at r = R
    with the reflected ghost y_{m+2} = y_m, which encodes y'(R) = 0 and
    restores second-order convergence of the eigenvalues.

With trapezoid weights w_j = r_j^(n-1) e^(phi(r_j)) delta (half weight at
the wall row) the Rayleigh quotient of int (A y)^2 w dr over int y^2 w dr
becomes z^T K z / z^T M z with K = L^T W L and M = diag(w); its minimum
approximates the fundamental clamped eigenvalue.  The minimum is found by
inverse power iteration using a sparse LU factorization of K; the Rayleigh
quotient is always evaluated in the factored form (Lz)^T W (Lz), which is a
sum of nonnegative terms, because the assembled z^T K z cancels
catastrophically at the scale ||K|| ~ delta^-4.  Iteration stops when the
relative change of the Rayleigh quotient drops below the tolerance
(at least three iterations; the cap raises NonConvergent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import NonConvergent, check_degree, check_dimension

if TYPE_CHECKING:
    import scipy.sparse as sp

MIN_MESH = 64
ITERATION_TOL = 1e-10
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class RadialDensity:
    """Radial weight exp(phi(r)) given by vectorized phi and its derivative.

    Both callables must accept and return numpy arrays (scalars included).
    phi' must vanish at the origin; a drift that survives at r = 0 is not
    radially smooth and breaks the origin closure.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if abs(float(self.dphi(np.float64(0.0)))) > 1e-12:
            raise ValueError("phi'(0) must vanish")


ANTI_GAUSS = RadialDensity(
    phi=lambda r: 0.5 * np.square(r),
    dphi=lambda r: np.asarray(r, dtype=float),
)

UNWEIGHTED = RadialDensity(
    phi=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    dphi=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
)


@dataclass(frozen=True)
class FdProblem:
    """A clamped eigenvalue problem instance for the mesh oracle."""

    n: int
    l: int
    R: float
    mesh: int
    density: RadialDensity = field(default=ANTI_GAUSS)

    def __post_init__(self) -> None:
        check_dimension(self.n)
        check_degree(self.l)
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("radius must be finite and positive")
        if int(self.mesh) != self.mesh or self.mesh < MIN_MESH:
            raise ValueError(f"mesh must be an integer >= {MIN_MESH}")


def _assemble(problem: FdProblem) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Operator rows L, row weights wfull, and mass diagonal w."""
    # scipy is imported on first use, so importing agplate does not load it
    import scipy.sparse as sp

    n, l, R, m = problem.n, problem.l, problem.R, problem.mesh
    density = problem.density
    d = R / (m + 1)
    r = d * np.arange(1, m + 1, dtype=float)
    c = (n - 1) / r + density.dphi(r)
    alpha = 1.0 / d**2 - c / (2.0 * d)
    beta = -2.0 / d**2 - l * (l + n - 2) / r**2
    gamma = 1.0 / d**2 + c / (2.0 * d)

    main = beta.copy()
    upper = gamma[:-1].copy()
    if l == 0:
        main[0] += alpha[0] * 4.0 / 3.0
        upper[0] -= alpha[0] / 3.0

    rows = np.concatenate(
        [np.arange(m), np.arange(1, m), np.arange(m - 1), [m]]
    )
    cols = np.concatenate(
        [np.arange(m), np.arange(m - 1), np.arange(1, m), [m - 1]]
    )
    vals = np.concatenate([main, alpha[1:], upper, [2.0 / d**2]])
    L = sp.csr_matrix((vals, (rows, cols)), shape=(m + 1, m))

    w = r ** (n - 1) * np.exp(density.phi(r)) * d
    w_wall = R ** (n - 1) * math.exp(float(density.phi(np.float64(R)))) * d / 2.0
    return L, np.concatenate([w, [w_wall]]), w


def fd_lowest_eigenvalue(
    problem: FdProblem,
    tol: float = ITERATION_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> float:
    """Fundamental clamped eigenvalue by inverse power iteration."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    L, wfull, w = _assemble(problem)
    K = (L.T @ sp.diags(wfull) @ L).tocsc()
    lu = splu(K)

    x = np.ones(problem.mesh)
    x /= math.sqrt(float(x @ (w * x)))
    theta_prev = math.inf
    for it in range(max_iterations):
        u = lu.solve(w * x)
        x = u / math.sqrt(float(u @ (w * u)))
        q = L @ x
        theta = float(q @ (wfull * q))
        if it >= 2 and abs(theta - theta_prev) <= tol * abs(theta):
            return theta
        theta_prev = theta
    raise NonConvergent(
        f"inverse iteration still moving after {max_iterations} steps"
    )

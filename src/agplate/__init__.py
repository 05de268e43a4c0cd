"""Clamped eigenvalues of balls under the anti-Gaussian weight exp(|x|^2/2).

The pipeline, bottom to top:

  kummer         series evaluation of the confluent hypergeometric M(a,b,z)
  measure        weighted ball volumes, their inverse, mass-split geometry
  ball_spectrum  secular function and clamped eigenvalues of one ball
  jab_solver     coupled two-ball eigenvalue and its volume-split minimum
  constants      the ratio C(R,n) and the radius sweep, with CSV I/O
  fd_oracle      independent finite-difference cross-check
  cli            command-line front end (console script: agplate)
"""

from .ball_spectrum import (
    SpectralMode,
    eigenfunction_profile,
    eigenvalue_curve,
    lowest_eigenvalue,
    secular_h,
)
from .constants import (
    ConstantRecord,
    c_constant,
    read_csv,
    sweep,
    sweep_radii,
    write_csv,
)
from .errors import NonConvergent, NoRootFound
from .fd_oracle import FdProblem, fd_lowest_eigenvalue
from .jab_solver import (
    JabSolution,
    jab_condition,
    minimize_jab,
    solve_jab,
)
from .kummer import (
    KummerParams,
    count_negative_roots,
    count_positive_roots,
    eval_m,
    eval_m_dz,
)
from .measure import (
    complement_radius,
    half_mass_radius,
    phi_inverse,
    phi_volume,
    unit_sphere_area,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantRecord",
    "FdProblem",
    "JabSolution",
    "KummerParams",
    "NoRootFound",
    "NonConvergent",
    "SpectralMode",
    "c_constant",
    "complement_radius",
    "count_negative_roots",
    "count_positive_roots",
    "eigenfunction_profile",
    "eigenvalue_curve",
    "eval_m",
    "eval_m_dz",
    "fd_lowest_eigenvalue",
    "half_mass_radius",
    "jab_condition",
    "lowest_eigenvalue",
    "minimize_jab",
    "phi_inverse",
    "phi_volume",
    "read_csv",
    "secular_h",
    "solve_jab",
    "sweep",
    "sweep_radii",
    "unit_sphere_area",
    "write_csv",
]

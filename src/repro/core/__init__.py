"""The paper's contribution: randomized Gauss-Seidel, its asynchronous
variants, step-size control, least squares, and the convergence theory."""

from .asyrgs import AsyRGS, AsyRGSResult
from .directions import (
    CyclicDirections,
    PermutedCyclicDirections,
    UniformDirections,
)
from .jacobi import (
    JacobiResult,
    chaotic_relaxation,
    jacobi,
    jacobi_spectral_radius,
)
from .least_squares import (
    AsyncLeastSquares,
    LSResult,
    column_squared_norms,
    normal_equations,
    rcd_least_squares,
)
from .residuals import (
    ConvergenceHistory,
    a_norm,
    a_norm_error,
    column_relative_residuals,
    column_residual_norms,
    relative_a_norm_error,
    relative_residual,
    residual_norm,
)
from .rgs import RGSResult, randomized_gauss_seidel
from .stepsize import (
    auto_step_size,
    max_beta_consistent,
    max_beta_inconsistent,
    optimal_beta_consistent,
    optimal_beta_inconsistent,
)
from .theory import (
    BoundReport,
    bound_report,
    epoch_length,
    iterations_for_accuracy,
    nu_tau,
    omega_tau,
    rho_infinity,
    rho_two,
    synchronous_bound,
    theorem2_epoch_bound,
    theorem4_epoch_bound,
)

__all__ = [
    "AsyRGS",
    "AsyRGSResult",
    "AsyncLeastSquares",
    "BoundReport",
    "ConvergenceHistory",
    "CyclicDirections",
    "JacobiResult",
    "LSResult",
    "PermutedCyclicDirections",
    "RGSResult",
    "UniformDirections",
    "a_norm",
    "a_norm_error",
    "auto_step_size",
    "bound_report",
    "column_squared_norms",
    "epoch_length",
    "iterations_for_accuracy",
    "max_beta_consistent",
    "max_beta_inconsistent",
    "normal_equations",
    "nu_tau",
    "omega_tau",
    "optimal_beta_consistent",
    "optimal_beta_inconsistent",
    "randomized_gauss_seidel",
    "rcd_least_squares",
    "relative_a_norm_error",
    "column_relative_residuals",
    "column_residual_norms",
    "relative_residual",
    "residual_norm",
    "rho_infinity",
    "rho_two",
    "synchronous_bound",
    "theorem2_epoch_bound",
    "theorem4_epoch_bound",
]

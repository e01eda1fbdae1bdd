"""Power iteration for the largest eigenvalue of an SPD matrix.

``λ_max`` feeds the theory module: the epoch length T₀ and, with
``λ_min``, the condition number κ that governs every rate in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConvergenceError, ShapeError
from ..rng import CounterRNG
from ..sparse import CSRMatrix

__all__ = ["PowerResult", "power_iteration"]


@dataclass
class PowerResult:
    """An eigenvalue estimate with its convergence diagnostics."""

    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _start_vector(n: int, seed: int) -> np.ndarray:
    v = CounterRNG(seed, stream=0xE16E).normal(0, n)
    nrm = float(np.linalg.norm(v))
    if nrm == 0:  # probability zero, but keep the guard total
        v = np.ones(n)
        nrm = float(np.sqrt(n))
    return v / nrm


def power_iteration(
    A: CSRMatrix,
    *,
    tol: float = 1e-6,
    max_iterations: int = 5000,
    seed: int = 0,
    raise_on_stall: bool = False,
) -> PowerResult:
    """Dominant eigenvalue of symmetric ``A`` by power iteration.

    Convergence is declared on the eigen-residual
    ``‖Av − λv‖ ≤ tol · |λ|``. For SPD matrices the dominant eigenvalue is
    ``λ_max``.
    """
    if not A.is_square():
        raise ShapeError(f"power iteration needs a square matrix, got {A.shape}")
    n = A.shape[0]
    if n == 0:
        return PowerResult(0.0, np.zeros(0), 0, 0.0, True)
    v = _start_vector(n, seed)
    lam = 0.0
    residual = np.inf
    it = 0
    for it in range(1, int(max_iterations) + 1):
        w = A.matvec(v)
        lam = float(v @ w)  # Rayleigh quotient (v normalized)
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol * max(abs(lam), 1e-300):
            return PowerResult(lam, v, it, residual, True)
        nrm = float(np.linalg.norm(w))
        if nrm == 0:
            # A v = 0: v is an exact null vector; eigenvalue 0.
            return PowerResult(0.0, v, it, 0.0, True)
        v = w / nrm
    if raise_on_stall:
        raise ConvergenceError(
            f"power iteration did not converge in {max_iterations} iterations",
            iterations=it,
            residual=residual,
        )
    return PowerResult(lam, v, it, residual, False)

"""Synchronous Randomized Gauss-Seidel (Leventhal–Lewis / Griebel–Oswald).

This is the paper's baseline iteration (Section 3):

    ``γ_j = (b − A x_j)_{r_j} / A_{r_j r_j}``,
    ``x_{j+1} = x_j + β γ_j e^{(r_j)}``,  ``r_j ~ U{0,…,n−1}``, ``β ∈ (0,2)``,

which for unit-diagonal SPD matrices satisfies the expected-error bound (2):
``E_m ≤ (1 − β(2−β)λ_min/n)^m ‖x_0 − x*‖²_A``. One *sweep* is ``n``
iterations, costing ``Θ(nnz(A))`` — comparable to one classical
Gauss-Seidel pass.

Multi-RHS systems are updated row-major, as in the paper's experiments:
one row traversal updates every right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError, ShapeError
from ..execution.simulator import serial_updates
from ..rng import DirectionStream
from ..sparse import CSRMatrix
from .residuals import ConvergenceHistory, relative_residual

__all__ = ["RGSResult", "randomized_gauss_seidel", "rgs_sweep"]


@dataclass
class RGSResult:
    """Outcome of a randomized Gauss-Seidel run.

    Attributes
    ----------
    x:
        Final iterate.
    iterations:
        Coordinate updates applied.
    converged:
        Whether the requested tolerance was reached (``False`` when no
        tolerance was requested).
    history:
        Per-sweep convergence record (``None`` when recording is off).
    total_row_nnz:
        Σ over updates of ``nnz(row)`` — input to the cost model.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    history: ConvergenceHistory | None
    total_row_nnz: int


def randomized_gauss_seidel(
    A: CSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    sweeps: int | None = None,
    iterations: int | None = None,
    beta: float = 1.0,
    directions: DirectionStream | None = None,
    tol: float | None = None,
    metric=None,
    record_history: bool = True,
    start_iteration: int = 0,
) -> RGSResult:
    """Run randomized Gauss-Seidel on ``A x = b``.

    Parameters
    ----------
    A:
        Square matrix with positive diagonal (SPD for the convergence
        theory; the iteration itself only needs the diagonal).
    b:
        Right-hand side, shape ``(n,)`` or ``(n, k)``.
    x0:
        Initial iterate (zeros when omitted, as in the paper's runs).
    sweeps / iterations:
        Budget: give exactly one. A sweep is ``n`` updates.
    beta:
        Step size in ``(0, 2)``.
    directions:
        Coordinate stream (defaults to :class:`DirectionStream` seed 0).
        Any object with ``directions(start, count)`` works (see
        :mod:`repro.core.directions`).
    tol:
        Optional early-exit tolerance on ``metric``, checked once per
        sweep.
    metric:
        Callable ``metric(x) -> float``; defaults to the relative residual.
    record_history:
        Record ``metric(x)`` once per sweep into the result history.
    start_iteration:
        Offset into the direction stream (for continuing runs
        deterministically).

    Returns
    -------
    RGSResult
    """
    if (sweeps is None) == (iterations is None):
        raise ModelError("specify exactly one of sweeps= or iterations=")
    if not A.is_square():
        raise ShapeError(f"randomized Gauss-Seidel needs a square matrix, got {A.shape}")
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != n or b.ndim > 2:
        raise ShapeError(f"b has shape {b.shape}, expected ({n},) or ({n}, k)")
    if not 0.0 < float(beta) < 2.0:
        raise ModelError(f"step size beta must lie in (0, 2), got {beta}")
    diag = A.diagonal()
    if np.any(diag <= 0):
        bad = int(np.argmin(diag))
        raise ModelError(f"A[{bad},{bad}] = {diag[bad]:g} is not positive")
    x = (
        np.zeros_like(b)
        if x0 is None
        else np.array(x0, dtype=np.float64)
    )
    if x.shape != b.shape:
        raise ShapeError(f"x0 has shape {x.shape}, expected {b.shape}")
    if directions is None:
        directions = DirectionStream(n, seed=0)
    if getattr(directions, "n", n) != n:
        raise ModelError("direction stream dimension mismatch")
    if metric is None:
        metric = lambda xv: relative_residual(A, xv, b)  # noqa: E731

    total_updates = int(iterations) if iterations is not None else int(sweeps) * n
    if total_updates < 0:
        raise ModelError("iteration budget must be non-negative")
    history = (
        ConvergenceHistory(label="RGS", unit="sweep", metric="metric")
        if record_history
        else None
    )
    if history is not None:
        history.record(0, metric(x))

    converged = False
    total_nnz = 0
    done = 0
    sweep_no = 0
    while done < total_updates:
        take = min(n, total_updates - done)
        total_nnz += serial_updates(
            A, b, x, diag, float(beta), directions, start_iteration + done, take
        )
        done += take
        sweep_no += 1
        value = None
        if history is not None:
            value = metric(x)
            history.record(sweep_no, value)
        if tol is not None:
            if value is None:
                value = metric(x)
            if value < tol:
                converged = True
                break
    return RGSResult(
        x=x,
        iterations=done,
        converged=converged,
        history=history,
        total_row_nnz=total_nnz,
    )


def rgs_sweep(
    A: CSRMatrix,
    b: np.ndarray,
    x: np.ndarray,
    *,
    beta: float = 1.0,
    directions: DirectionStream | None = None,
    start_iteration: int = 0,
) -> int:
    """Apply one in-place sweep (``n`` updates) and return Σ nnz(row).

    The building block used by preconditioners, which manage their own
    iterate and stream offsets.
    """
    n = A.shape[0]
    if directions is None:
        directions = DirectionStream(n, seed=0)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise ModelError("matrix diagonal must be positive")
    return serial_updates(A, b, x, diag, float(beta), directions, start_iteration, n)

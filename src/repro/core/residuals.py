"""Error and residual measurement for the solvers and experiments.

The paper reports three convergence measures, all implemented here:

* the **relative residual** ``‖b − Ax‖₂ / ‖b‖₂`` (Figures 1, 2-center);
  for multi-RHS blocks the Frobenius version ``‖B − AX‖_F / ‖B‖_F``;
* the **A-norm of the error** ``‖x − x*‖_A`` (the quantity the theory
  bounds; Figure 2-right reports ``‖x − x*‖_A / ‖x*‖_A``);
* the **expected squared A-norm error** ``E_m`` — estimated in the benches
  by averaging over seeds.

:class:`ConvergenceHistory` is the shared recorder: solvers append
``(iteration, value)`` pairs and experiments read uniform series from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import _native
from ..exceptions import ShapeError
from ..execution.epochs import ColumnFold
from ..sparse import CSRMatrix

__all__ = [
    "residual_norm",
    "relative_residual",
    "column_residual_norms",
    "column_relative_residuals",
    "block_residual_state",
    "ColumnTracker",
    "a_norm",
    "a_norm_error",
    "relative_a_norm_error",
    "ConvergenceHistory",
]


def residual_norm(A: CSRMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """``‖b − Ax‖`` — Euclidean for vectors, Frobenius for RHS blocks."""
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.shape != b.shape:
        raise ShapeError(f"x {x.shape} and b {b.shape} must have matching shapes")
    r = b - (A.matvec(x) if x.ndim == 1 else A.matmat(x))
    return float(np.linalg.norm(r))


def relative_residual(A: CSRMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """``‖b − Ax‖ / ‖b‖`` (paper's Figures 1 and 2-center measure).

    A zero right-hand side returns the absolute residual norm.
    """
    denom = float(np.linalg.norm(b))
    num = residual_norm(A, x, b)
    return num / denom if denom > 0 else num


def column_residual_norms(
    A: CSRMatrix, x: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ``(‖b_j − A x_j‖₂, ‖b_j‖₂)`` pairs from one matmat.

    Vectors are treated as one-column blocks, so the return shapes are
    always ``(k,)``. The solvers use this to derive the per-column
    relative residuals *and* the aggregate Frobenius residual from a
    single pass over ``A``.
    """
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.shape != b.shape:
        raise ShapeError(f"x {x.shape} and b {b.shape} must have matching shapes")
    if x.ndim == 1:
        x = x[:, None]
        b = b[:, None]
    R = b - A.matmat(x)
    return (
        np.linalg.norm(R, axis=0),
        np.linalg.norm(b, axis=0),
    )


def block_residual_state(
    A: CSRMatrix, x: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column ``(relative residuals, numerators, denominators)`` from
    one pass over ``A``.

    The single place that encodes the zero-RHS-column convention (a zero
    column of ``b`` falls back to the absolute residual norm): every
    engine's convergence check goes through here, so the criterion
    cannot silently diverge between backends.
    """
    num, denom = column_residual_norms(A, x, b)
    col = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), num)
    return col, num, denom


def column_relative_residuals(A: CSRMatrix, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``‖b_j − A x_j‖₂ / ‖b_j‖₂`` for every column ``j`` of an RHS block.

    The per-column counterpart of :func:`relative_residual`: the
    Frobenius aggregate can sit below a tolerance while an individual
    label column is still far from converged, so block solvers judge
    (and retire) columns on this measure instead. A zero column of ``b``
    falls back to the absolute residual norm, matching
    :func:`relative_residual`. Vectors are treated as one-column blocks
    (the result always has shape ``(k,)``).
    """
    return block_residual_state(A, x, b)[0]


class ColumnTracker(ColumnFold):
    """Per-column relative residuals ``‖b_j − A x_j‖ / ‖b_j‖`` of a
    square system, tracked across the epochs of one solve.

    The measure the AsyRGS engines judge convergence by (the
    least-squares counterpart is
    :class:`~repro.execution.kaczmarz.LeastSquaresTracker`). The
    bookkeeping it shares with that tracker lives in
    :class:`~repro.execution.epochs.ColumnFold`: ``col``,
    ``column_sweeps``, ``done_mask`` and the aggregate Frobenius
    ``value`` derived from the same matrix pass. The epoch driver decides
    *when* to measure; the tracker never touches the iterate.

    The residuals run in one native pass (``repro._native``'s
    ``column_residuals``, bound to ``(A, b)`` once per tracker) that
    reads the live iterate block in place; ``‖b_j‖`` is computed once,
    here. Where the module is off or cannot load,
    :func:`block_residual_state` measures instead: it is the fallback
    and the oracle of the native pass, which agrees with it to
    ``rtol=1e-12``.
    """

    def __init__(self, A: CSRMatrix, x0: np.ndarray, b: np.ndarray, tol: float):
        self.A = A
        self.b = b
        self._residuals = _native.column_residuals(A, b)
        if self._residuals is None:
            col, num, denom = block_residual_state(A, x0, b)
        else:
            denom = np.linalg.norm(b.reshape(b.shape[0], -1), axis=0)
            # A zero column of b is judged on its absolute residual.
            self._denom = np.where(denom > 0, denom, 1.0)
            num = np.sqrt(self._residuals(x0, np.arange(denom.size)))
            col = num / self._denom
        super().__init__(col, num, np.linalg.norm(denom), tol)

    def update(self, x: np.ndarray, sweeps_done: int, retire: bool) -> np.ndarray:
        """Fold one synchronization point into the masks.

        Re-measures the active columns when ``retire`` (retired columns
        are frozen, their residuals cannot have moved) or every column
        otherwise, and returns the indices retired *by this update*
        (empty when ``retire`` is off).
        """
        recheck = self.active() if retire else np.arange(self.k)
        if recheck.size and self._residuals is not None:
            num = np.sqrt(self._residuals(x, recheck))
            self.num[recheck] = num
            self.col[recheck] = num / self._denom[recheck]
        elif recheck.size:
            sub_x = x[:, recheck] if self.b.ndim == 2 else x
            sub_b = self.b[:, recheck] if self.b.ndim == 2 else self.b
            sub_col, sub_num, _ = block_residual_state(self.A, sub_x, sub_b)
            self.col[recheck] = sub_col
            self.num[recheck] = sub_num
        return self.fold(sweeps_done, retire)


def a_norm(A: CSRMatrix, v: np.ndarray) -> float:
    """``‖v‖_A = sqrt(vᵀ A v)`` for SPD ``A``.

    Clamps tiny negative rounding noise to zero; a genuinely negative
    quadratic form (beyond rounding) raises, since it witnesses that A is
    not positive definite.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        quad = float(v @ A.matvec(v))
        scale = float(v @ v)
    else:
        Av = A.matmat(v)
        quad = float(np.sum(v * Av))
        scale = float(np.sum(v * v))
    if quad < 0:
        if scale > 0 and quad > -1e-10 * max(scale, 1.0):
            quad = 0.0
        else:
            from ..exceptions import NotPositiveDefiniteError

            raise NotPositiveDefiniteError(
                f"quadratic form vᵀAv = {quad:g} is negative; A is not SPD"
            )
    return float(np.sqrt(quad))


def a_norm_error(A: CSRMatrix, x: np.ndarray, x_star: np.ndarray) -> float:
    """``‖x − x*‖_A`` — the error functional of the paper's analysis."""
    x = np.asarray(x, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    if x.shape != x_star.shape:
        raise ShapeError(f"x {x.shape} and x* {x_star.shape} must have matching shapes")
    return a_norm(A, x - x_star)


def relative_a_norm_error(A: CSRMatrix, x: np.ndarray, x_star: np.ndarray) -> float:
    """``‖x − x*‖_A / ‖x*‖_A`` (paper's Figure 2-right measure)."""
    denom = a_norm(A, x_star)
    num = a_norm_error(A, x, x_star)
    return num / denom if denom > 0 else num


@dataclass
class ConvergenceHistory:
    """Uniform recorder of a convergence trajectory.

    Attributes
    ----------
    label:
        Name of the method/configuration (used by the bench reports).
    iterations:
        Iteration counter at each record (solver-specific unit: coordinate
        updates, sweeps, or Krylov iterations — noted in ``unit``).
    values:
        Recorded metric at each point.
    unit:
        The iteration unit ("update", "sweep", "iteration").
    metric:
        The metric name ("relative_residual", "a_norm_error", …).
    column_values:
        Optional per-column series for block (multi-RHS) runs: one
        length-``k`` array per record, aligned with ``iterations``.
        Populated only by recorders that pass ``columns=`` — scalar
        histories leave it empty.
    """

    label: str = ""
    unit: str = "iteration"
    metric: str = "relative_residual"
    iterations: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    column_values: list[np.ndarray] = field(default_factory=list)

    def record(
        self, iteration: int, value: float, columns: np.ndarray | None = None
    ) -> None:
        # Validate everything before mutating anything: a rejected record
        # must leave the history exactly as it was, or the scalar and
        # per-column series desynchronize permanently.
        if self.iterations and iteration < self.iterations[-1]:
            raise ValueError(
                f"history iterations must be non-decreasing "
                f"({iteration} after {self.iterations[-1]})"
            )
        if columns is None:
            if self.column_values:
                raise ValueError(
                    "this history records per-column values; pass columns= on "
                    "every record to keep the series aligned"
                )
        else:
            if len(self.column_values) != len(self.iterations):
                raise ValueError(
                    "per-column values must be recorded from the first record on"
                )
            columns = np.asarray(columns, dtype=np.float64).copy()
            if self.column_values and columns.shape != self.column_values[0].shape:
                raise ValueError(
                    f"per-column record has shape {columns.shape}, expected "
                    f"{self.column_values[0].shape}"
                )
        self.iterations.append(int(iteration))
        self.values.append(float(value))
        if columns is not None:
            self.column_values.append(columns)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def final(self) -> float:
        if not self.values:
            raise ValueError("empty history has no final value")
        return self.values[-1]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.iterations, dtype=np.int64),
            np.asarray(self.values, dtype=np.float64),
        )

    def column_series(self) -> np.ndarray:
        """The per-column record as a ``(len(self), k)`` array."""
        if not self.column_values:
            raise ValueError("this history has no per-column records")
        return np.stack(self.column_values, axis=0)

    def first_below(self, threshold: float) -> int | None:
        """Earliest recorded iteration with value below ``threshold``
        (``None`` if never reached)."""
        for it, v in zip(self.iterations, self.values):
            if v < threshold:
                return it
        return None

    def reduction_factor(self) -> float:
        """``values[-1] / values[0]`` — overall reduction achieved.

        A run that *started* at zero has no meaningful reduction (it was
        already converged); that case returns ``nan`` rather than the
        ``0.0`` of a perfect reduction, so consumers cannot mistake a
        trivial run for an infinitely effective one.
        """
        if len(self.values) < 2:
            raise ValueError("need at least two records to compute a reduction")
        if self.values[0] == 0:
            return float("nan")
        return self.values[-1] / self.values[0]

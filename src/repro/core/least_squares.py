"""Unsymmetric systems and overdetermined least squares (paper Section 8).

For full-rank ``A ∈ R^{r×n}`` (r ≥ n) the paper solves
``min_x ‖Ax − b‖₂`` by randomized coordinate descent on the normal
equations — without forming them:

* **Synchronous** (iteration (20)): maintain the residual ``r = b − Ax``;
  each step picks a column ``c``, sets ``γ = A_{:,c}ᵀ r / ‖A_{:,c}‖²``,
  updates ``x_c += βγ`` and ``r −= βγ A_{:,c}``. Cost: O(nnz(column)).
* **Asynchronous** (iteration (21)): residual updates cannot be atomic, so
  the needed residual entries are *recomputed* each step from the shared
  ``x``:  ``γ_j = A_{:,c}ᵀ (b − A x_{K(j)}) / ‖A_{:,c}‖²``. Cost:
  O(Σ_{i ∈ column c} nnz(row i)) — the paper's quoted overhead. Stale-view
  corrections reuse the ring-buffer trick; the correction coefficient for
  a missed write to coordinate ``c_t`` is the Gram entry
  ``(AᵀA)[c, c_t] = A_{:,c}ᵀ A_{:,c_t}``, computed on the fly as a sparse
  column–column dot (never materializing ``AᵀA``).

Theorem 5 states the asynchronous iteration is *identical in law* to
AsyRGS applied to ``AᵀA x = Aᵀb`` — the test suite checks this equivalence
exactly, update by update, against :class:`~repro.execution.AsyncSimulator`
run on the explicitly formed normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError
from ..rng import DirectionStream
from ..sparse import CSRMatrix, gram
from ..execution.delays import DelayModel, ZeroDelay
from ..validation import check_vector_rhs, check_x0
from .residuals import ConvergenceHistory

__all__ = [
    "normal_equations",
    "column_squared_norms",
    "LSResult",
    "rcd_least_squares",
    "AsyncLeastSquares",
]


def normal_equations(A: CSRMatrix, b: np.ndarray, *, shift: float = 0.0):
    """Form ``(AᵀA + shift·I, Aᵀb)`` explicitly (test oracle / small n)."""
    b = check_vector_rhs(b, A.shape[0])
    return gram(A, shift=shift), A.rmatvec(b)


def column_squared_norms(A: CSRMatrix) -> np.ndarray:
    """``‖A_{:,c}‖²`` for every column (the iteration's normalizers)."""
    return np.bincount(A.indices, weights=A.data * A.data, minlength=A.shape[1]).astype(
        np.float64
    )


@dataclass
class LSResult:
    """Outcome of a least-squares coordinate-descent run."""

    x: np.ndarray
    iterations: int
    converged: bool
    history: ConvergenceHistory | None
    residual_norm: float


def rcd_least_squares(
    A: CSRMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    sweeps: int | None = None,
    iterations: int | None = None,
    beta: float = 1.0,
    directions: DirectionStream | None = None,
    tol: float | None = None,
    record_history: bool = True,
) -> LSResult:
    """Synchronous randomized coordinate descent for ``min ‖Ax − b‖₂``
    (iteration (20)), maintaining the residual vector in memory.

    ``tol`` is on the *relative residual* ``‖b − Ax‖/‖b‖``, checked per
    sweep (a sweep is ``n = ncols`` updates).
    """
    if (sweeps is None) == (iterations is None):
        raise ModelError("specify exactly one of sweeps= or iterations=")
    m, n = A.shape
    b = check_vector_rhs(b, m)
    if not 0.0 < float(beta) < 2.0:
        raise ModelError(f"beta must lie in (0, 2), got {beta}")
    w = column_squared_norms(A)
    if np.any(w <= 0):
        bad = int(np.argmin(w))
        raise ModelError(f"column {bad} of A is identically zero (not full rank)")
    x = np.zeros(n) if x0 is None else check_x0(x0, (n,)).copy()
    if directions is None:
        directions = DirectionStream(n, seed=0)
    At = A.transpose()
    res = b - A.matvec(x)
    b_norm = float(np.linalg.norm(b))
    total = int(iterations) if iterations is not None else int(sweeps) * n
    history = (
        ConvergenceHistory(label="RCD-LS", unit="sweep", metric="relative_residual")
        if record_history
        else None
    )

    def rel() -> float:
        nrm = float(np.linalg.norm(res))
        return nrm / b_norm if b_norm > 0 else nrm

    if history is not None:
        history.record(0, rel())
    converged = False
    done = 0
    sweep_no = 0
    while done < total:
        take = min(n, total - done)
        cols_seq = directions.directions(done, take)
        for c in cols_seq:
            c = int(c)
            rows_i, vals_a = At.row(c)
            gamma = float(vals_a @ res[rows_i]) / w[c]
            step = beta * gamma
            x[c] += step
            res[rows_i] -= step * vals_a
        done += take
        sweep_no += 1
        value = rel()
        if history is not None:
            history.record(sweep_no, value)
        if tol is not None and value < tol:
            converged = True
            break
    return LSResult(
        x=x,
        iterations=done,
        converged=converged,
        history=history,
        residual_norm=float(np.linalg.norm(res)),
    )


class AsyncLeastSquares:
    """Asynchronous randomized coordinate descent for least squares
    (iteration (21)) under a bounded-delay model.

    Parameters mirror :class:`~repro.execution.AsyncSimulator`; the delay
    model applies to the shared iterate ``x`` exactly as in AsyRGS —
    Theorem 5's reduction. Residual entries are recomputed per update
    (``r`` is never stored), and the paper's requirement that "each entry
    of x that is read is read only once" per iteration is honored: every
    needed ``x`` entry is gathered once into the stale view before use.
    """

    def __init__(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        delay_model: DelayModel | None = None,
        directions: DirectionStream | None = None,
        beta: float = 0.5,
    ):
        m, n = A.shape
        b = check_vector_rhs(b, m)
        self.A = A
        self.At = A.transpose()
        self.b = b
        self.n = n
        self.w = column_squared_norms(A)
        if np.any(self.w <= 0):
            bad = int(np.argmin(self.w))
            raise ModelError(f"column {bad} of A is identically zero (not full rank)")
        self.delay_model = delay_model if delay_model is not None else ZeroDelay()
        self.directions = (
            directions if directions is not None else DirectionStream(n, seed=0)
        )
        if self.directions.n != n:
            raise ModelError("direction stream dimension mismatch")
        self.beta = float(beta)
        if not 0.0 < self.beta < 2.0:
            raise ModelError(f"beta must lie in (0, 2), got {self.beta}")

    def _gram_entry(self, c1: int, c2: int) -> float:
        """``(AᵀA)[c1, c2]`` as a sparse column–column dot (on the fly)."""
        i1, v1 = self.At.row(c1)
        i2, v2 = self.At.row(c2)
        if i1.size > i2.size:
            i1, v1, i2, v2 = i2, v2, i1, v1
        if i1.size == 0:
            return 0.0
        pos = np.searchsorted(i2, i1)
        pos_c = np.minimum(pos, i2.size - 1)
        match = i2[pos_c] == i1
        if not np.any(match):
            return 0.0
        return float(v1[match] @ v2[pos_c[match]])

    def run(
        self,
        x0: np.ndarray,
        num_iterations: int,
        *,
        start_iteration: int = 0,
        checkpoint_every: int | None = None,
        checkpoint_metric=None,
    ) -> LSResult:
        """Apply ``num_iterations`` asynchronous updates to ``x0``."""
        num_iterations = int(num_iterations)
        if num_iterations < 0:
            raise ModelError("num_iterations must be non-negative")
        x = check_x0(x0, (self.n,)).copy()
        A, At, b, beta, w = self.A, self.At, self.b, self.beta, self.w
        model = self.delay_model
        tau = model.tau
        ring = max(tau, 1)
        ring_coord = np.full(ring, -1, dtype=np.int64)
        ring_delta = np.zeros(ring, dtype=np.float64)
        history = ConvergenceHistory(
            label="AsyLS", unit="update", metric="checkpoint_metric"
        )
        end = start_iteration + num_iterations
        block = 4096
        dirs = np.empty(0, dtype=np.int64)
        dirs_base = start_iteration
        for j in range(start_iteration, end):
            local = j - dirs_base
            if local >= dirs.size:
                dirs = self.directions.directions(j, min(block, end - j))
                dirs_base = j
                local = 0
            c = int(dirs[local])
            rows_i, vals_a = At.row(c)
            # Fresh part: A_{:,c}ᵀ (b − A x) over the column's rows only.
            fresh = float(vals_a @ (b[rows_i] - A.rows_dot(rows_i, x)))
            gamma = fresh
            for t in model.missed(j):
                t = int(t)
                slot = t % ring
                if ring_coord[slot] < 0:
                    continue
                coeff = self._gram_entry(c, int(ring_coord[slot]))
                if coeff != 0.0:
                    gamma += coeff * ring_delta[slot]
            gamma /= w[c]
            delta = beta * gamma
            x[c] += delta
            slot = j % ring
            ring_coord[slot] = c
            ring_delta[slot] = delta
            if (
                checkpoint_every
                and checkpoint_metric is not None
                and (j - start_iteration + 1) % checkpoint_every == 0
            ):
                history.record(j + 1, float(checkpoint_metric(x)))
        res = b - A.matvec(x)
        return LSResult(
            x=x,
            iterations=num_iterations,
            converged=False,
            history=history if len(history) else None,
            residual_norm=float(np.linalg.norm(res)),
        )

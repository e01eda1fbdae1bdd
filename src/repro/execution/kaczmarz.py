"""AsyRK — asynchronous randomized Kaczmarz on the shared-memory pool.

Where AsyRGS relaxes *coordinates* of a square positive-diagonal system,
randomized Kaczmarz projects onto *equations* of a rectangular system
``A ∈ R^{m×n}``: draw row ``r``, compute the equation's residual against
the live shared iterate, and move ``x`` along ``a_r``:

    γ = (b[r] − a_r · x) / ‖a_r‖²,       x += β · γ · a_rᵀ

This is the AsyRK iteration of Liu, Wright & Sridhar (arXiv 1401.4780,
"An Asynchronous Parallel Randomized Kaczmarz Algorithm"): workers read
the shared iterate inconsistently — the same regime the source paper
proves convergent for AsyRGS — and the expected update direction is a
uniformly random row, so the whole pool apparatus (per-worker strided
Philox streams, epoch gates, write-log staleness measurement,
per-column retirement) transfers unchanged. Even the arithmetic is
shared: AsyRK runs the pool's one native segment kernel with its
projection scatter (``project = True``). The layout geometry differs from AsyRGS: directions
and the RHS live in row space (``m``), the iterate in column space
(``n``).

Consistency and the convergence horizon
---------------------------------------
On a *consistent* system (``b ∈ range(A)``) the iteration converges to
the solution in expectation at a linear rate. On an inconsistent system
— the interesting least-squares case — plain Kaczmarz converges only to
within a horizon of radius O(β·‖r*‖) around the least-squares solution
``x* = argmin ‖Ax − b‖`` (``r* = b − Ax*`` is the optimal residual):
each projection re-injects the inconsistent part of its equation.
Convergence is therefore judged on the *normal-equations* residual
``‖Aᵀ(b − Ax)‖ / ‖Aᵀb‖`` (zero exactly at ``x*``, well-defined for any
rectangle), per column of the RHS block, by
:class:`LeastSquaresTracker` — the rectangular counterpart of
:class:`~repro.core.residuals.ColumnTracker`, with the same retirement
surface. Tolerances should respect the horizon: loose ``tol`` or small
``noise_scale`` workloads (see
:func:`repro.workloads.least_squares.random_least_squares`).

No atomic mode
--------------
AsyRGS's atomic mode makes the one write of an update, coordinate
``r``, one compare-exchange per column. A Kaczmarz projection scatters
into every entry of row ``r``'s support, and Liu & Wright analyze it
with plain writes; the kernel has no atomic projection, and
``atomic=True`` is rejected rather than silently downgraded. AsyRK
always runs in the free (inconsistent-read, non-atomic-write) regime,
which is exactly the regime Liu & Wright analyze.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from ..sparse import CSRMatrix
from ..validation import check_rhs
from .epochs import ColumnFold
from .pool import PoolSolver

__all__ = ["AsyRK", "LeastSquaresTracker"]


class LeastSquaresTracker(ColumnFold):
    """Per-column normal-equations convergence for rectangular systems.

    The rectangular counterpart of
    :class:`~repro.core.residuals.ColumnTracker`, sharing its
    bookkeeping (:class:`~repro.execution.epochs.ColumnFold`) and
    differing only in the measure: column ``j`` is converged when
    ``‖Aᵀ(b_j − A x_j)‖ / ‖Aᵀ b_j‖ < tol`` (absolute when the
    denominator is zero). The plain residual ``‖b_j − A x_j‖`` cannot
    reach zero on an inconsistent system; the normal-equations residual
    vanishes exactly at the least-squares solution.
    """

    def __init__(self, A: CSRMatrix, At: CSRMatrix, x0, b, tol: float):
        self.A = A
        self.At = At
        b2 = b if b.ndim == 2 else b[:, None]
        self._b2 = b2
        denom_block = At.matmat(b2)
        self._denom = np.sqrt((denom_block * denom_block).sum(axis=0))
        x2 = x0 if x0.ndim == 2 else x0[:, None]
        num = self._measure(x2, np.arange(b2.shape[1]))
        super().__init__(
            self._relative(num, self._denom), num,
            np.linalg.norm(denom_block), tol,
        )

    def _measure(self, x2: np.ndarray, which: np.ndarray) -> np.ndarray:
        """``‖Aᵀ(b_j − A x_j)‖`` for the requested columns (``x2`` holds
        exactly those columns)."""
        R = self._b2[:, which] - self.A.matmat(x2)
        G = self.At.matmat(R)
        return np.sqrt((G * G).sum(axis=0))

    @staticmethod
    def _relative(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
        return np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), num)

    def update(self, x, sweeps_done: int, retire: bool) -> np.ndarray:
        """Re-measure, stamp newly converged columns, return the ones to
        retire (empty with ``retire=False``). Retired columns keep their
        last measured residual — they are frozen in the pool too."""
        recheck = self.active() if retire else np.arange(self.k)
        if recheck.size:
            x2 = x if x.ndim == 2 else x[:, None]
            num = self._measure(x2[:, recheck], recheck)
            self.num[recheck] = num
            self.col[recheck] = self._relative(num, self._denom[recheck])
        return self.fold(sweeps_done, retire)


class AsyRK(PoolSolver):
    """Asynchronous randomized Kaczmarz on real OS processes.

    Parameters mirror :class:`~repro.execution.ProcessAsyRGS` — the two
    solvers share the pool core, the persistent-pool lifecycle, the
    capacity-k layout, and the ``directions``/``adaptive`` sampling
    options — with the rectangular geometry: ``A`` is ``m × n``
    (``m ≥ n`` for a genuine least-squares system, though any rectangle
    with nonzero rows is accepted), ``b`` has ``m`` rows, the iterate
    and the solution have ``n`` rows. Directions are drawn over the
    ``m`` equations.

    ``atomic=True`` raises: the projection scatter has no atomic mode
    (see the module docstring).
    """

    method_name = "asyrk"
    project = True

    def __init__(self, A: CSRMatrix, b: np.ndarray, **pool):
        m, n = A.shape
        b = check_rhs(b, m)
        if pool.get("atomic"):
            raise ModelError(
                "AsyRK does not support atomic=True: a Kaczmarz row "
                "projection scatters into the row's whole column support, "
                "and the kernel has no atomic projection"
            )
        norms = A.row_squared_sums()
        if np.any(norms <= 0):
            bad = int(np.argmin(norms))
            raise ModelError(
                f"row {bad} of A is identically zero; Kaczmarz projects "
                "onto equations and needs every row to have a nonzero norm"
            )
        super().__init__(A, b, norms, n_rows=m, x_rows=n, b_rows=m, **pool)
        self.m = m
        self.n = n  # unknown count — the solution/iterate row count
        self._at: CSRMatrix | None = None

    def _transpose(self) -> CSRMatrix:
        if self._at is None:
            self._at = self.A.transpose()
        return self._at

    def _tracker(self, x0: np.ndarray, b: np.ndarray, tol: float):
        return LeastSquaresTracker(self.A, self._transpose(), x0, b, tol)

"""AsyRK — asynchronous randomized Kaczmarz on the worker pool.

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
surface. ``Aᵀ(b − Ax)`` is formed in one native pass over ``A``'s rows
(each row's residual scattered into its support), so AsyRK keeps no
transpose of ``A`` and copies no iterate columns. Tolerances should
respect the horizon: loose ``tol`` or small ``noise_scale`` workloads (see
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

from .. import _native
from ..exceptions import ModelError
from ..sparse import CSRMatrix
from ..validation import check_rhs
from .epochs import ColumnFold, checked_norms, column_norms, vector_norm
from .pool import PoolSolver, require_kernel

__all__ = ["AsyRK", "LeastSquaresTracker"]


def _norms(g: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """:func:`~repro.execution.epochs.column_norms` of the block ``g``
    from the native pass's squared sums ``sq``, summed in row order as
    NumPy sums two or more columns along axis 0. NumPy sums a lone
    column pairwise, so that one is summed there."""
    if g.shape[1] == 1:
        return column_norms(g)
    return checked_norms(sq, lambda i: g[:, i])


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

    ``Aᵀ(b − A x)`` runs in one native pass over ``A``'s rows
    (``repro._native``'s ``normal_residuals``, bound to ``(A, b)`` once
    per tracker) that reads the live iterate block in place. There is
    no NumPy path: like the pools it serves, the tracker refuses to be
    built without the module (:func:`~repro.execution.pool.require_kernel`).
    """

    def __init__(self, A: CSRMatrix, x0, b, tol: float):
        require_kernel()
        self._normal = _native.normal_residuals(A, b)
        if self._normal is None:
            raise ModelError(
                f"the normal-equations check needs real matrix data, got {A.data.dtype}"
            )
        cols = np.arange(self._normal.k)
        g, sq = self._normal(x0, cols)
        # At x0 = 0, every served request, Aᵀ(b − A x0) is Aᵀb bit for bit.
        denom_g, denom_sq = (
            (g, sq) if not x0.any() else self._normal(np.zeros_like(x0), cols)
        )
        denom = _norms(denom_g, denom_sq)
        num = denom.copy() if denom_g is g else _norms(g, sq)
        # A column with Aᵀb = 0 is judged on its absolute residual.
        self._denom = np.where(denom > 0, denom, 1.0)
        super().__init__(
            num / self._denom, num, vector_norm(denom_g.ravel()), tol
        )

    def update(self, x, sweeps_done: int, retire: bool) -> np.ndarray:
        """Re-measure, stamp newly converged columns, return the ones to
        retire (empty with ``retire=False``). Retired columns keep their
        last measured residual — they are frozen in the pool too."""
        recheck = self.active() if retire else np.arange(self.k)
        if recheck.size:
            num = _norms(*self._normal(x, recheck))
            self.num[recheck] = num
            self.col[recheck] = num / self._denom[recheck]
        return self.fold(sweeps_done, retire)


class AsyRK(PoolSolver):
    """Asynchronous randomized Kaczmarz on a pool of worker threads.

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

    def _tracker(self, x0: np.ndarray, b: np.ndarray, tol: float):
        return LeastSquaresTracker(self.A, x0, b, tol)

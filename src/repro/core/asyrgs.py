"""AsyRGS — the paper's asynchronous randomized Gauss-Seidel solver.

This module is the user-facing façade over the simulated execution
substrate. It packages the two simulation engines behind one solver
object and implements the **epoch scheme** from the discussion of
Theorem 2: run asynchronously for ≈ n updates, synchronize (a segment boundary — every processor's updates become
visible), check the residual, repeat. The number of synchronization
points is what the theory trades against the convergence rate, and what
the cost model charges barriers for.

Typical use::

    solver = AsyRGS(A, b, nproc=16)
    result = solver.solve(tol=1e-4, max_sweeps=200)

or, for explicit delay-model studies::

    solver = AsyRGS(A, b, delay_model=UniformDelay(tau=32, seed=7),
                    engine="general", beta="auto")

The same algorithm on a real shared-memory worker pool (measured delays
instead of modeled ones) is built by :func:`~repro.execution.make_solver`::

    result = make_solver("asyrgs", A, b, nproc=4).solve(tol=1e-4, max_sweeps=200)
    result.tau_observed.max   # empirical delay bound from the write-log

Block right-hand sides are solved **column-aware**: convergence is
judged per column, and columns that reach the tolerance are retired at
epoch boundaries so the remaining updates only refresh the shrinking
active set (the paper's 51-label regime with skewed label difficulty)::

    result = make_solver("asyrgs", A, B51, nproc=4).solve(tol=1e-3, max_sweeps=600)
    result.converged_columns   # per-label convergence mask (all True here)
    result.column_sweeps       # the epoch each label retired at
    result.column_updates      # work actually spent (< iterations * 51)
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..exceptions import ModelError, ShapeError
from ..rng import DirectionStream
from ..sparse import CSRMatrix
from ..validation import check_rhs, check_x0
from ..execution import (
    AsyncSimulator,
    DelayModel,
    PhasedSimulator,
    ProcessorPhaseDelay,
)
from ..execution.epochs import SimulatorEngine, solve_epochs
from .residuals import ColumnTracker, ConvergenceHistory, relative_residual
from .stepsize import auto_step_size

__all__ = ["AsyRGSResult", "AsyRGS"]


@dataclass
class AsyRGSResult:
    """Outcome of an asynchronous solve.

    Attributes
    ----------
    x:
        Final iterate.
    iterations:
        Total coordinate updates applied.
    sweeps:
        Epochs of ``n`` updates actually executed — the same accounting
        as the pool solvers' ``sweeps_done``.
    converged:
        Whether the tolerance was reached (``False`` without a tolerance).
    history:
        Per-epoch metric record.
    total_row_nnz:
        Σ over updates of ``nnz(row)`` — input to the cost model.
    sync_points:
        Number of synchronization (epoch) boundaries executed.
    lost_writes:
        Updates destroyed by write races (the non-atomic simulated
        modes).
    beta:
        The step size actually used (useful with ``beta="auto"``).
    column_updates:
        Σ over row updates of the number of RHS columns actually
        refreshed — ``iterations · k`` without retirement, strictly
        less once columns retire (the work retirement saves).
    converged_columns:
        Per-column convergence mask at the last synchronization point
        (``None`` when a custom metric made per-column tracking
        impossible, or for ``run_sweeps``).
    column_sweeps:
        Sweep count at which each column first reached the tolerance —
        its retirement epoch when retirement is on; ``-1`` for columns
        that never got there. ``None`` like ``converged_columns``.
    column_residuals:
        Final per-column relative residuals (``None`` like the above).
    """

    x: np.ndarray
    iterations: int
    sweeps: int
    converged: bool
    history: ConvergenceHistory | None
    total_row_nnz: int
    sync_points: int
    lost_writes: int
    beta: float
    column_updates: int | None = None
    converged_columns: np.ndarray | None = None
    column_sweeps: np.ndarray | None = None
    column_residuals: np.ndarray | None = None


class AsyRGS:
    """Asynchronous randomized Gauss-Seidel solver.

    Parameters
    ----------
    A:
        System matrix (positive diagonal required; SPD for the theory).
    b:
        Right-hand side, shape ``(n,)`` or ``(n, k)``.
    nproc:
        Number of simulated processors. With ``engine="phased"`` this is
        the round size; with ``engine="general"`` it parameterizes the
        default delay model :class:`ProcessorPhaseDelay`.
    delay_model:
        Explicit delay schedule (``engine="general"`` only); overrides
        ``nproc``'s default model.
    engine:
        ``"phased"`` — the vectorized round-based engine (used by the
        scaling benches, and the one that models write races);
        ``"general"`` — the per-update engine supporting arbitrary delay
        models, with atomic writes. Both accept a right-hand-side block
        ``(n, k)``.
    beta:
        Step size in ``(0, 2)``, or ``"auto"`` to use the theory-optimal
        step for the configured τ and read-consistency model
        (Section 6 / :mod:`repro.core.stepsize`).
    directions:
        Coordinate stream shared across configurations. Defaults to seed
        0, pinning directions across configurations.
    atomic:
        Whether the single-coordinate update is indivisible (Assumption
        A-1); ``False`` models overwrite races and needs the phased
        engine.
    jitter:
        The phased engine's round-size jitter (see
        :class:`~repro.execution.PhasedSimulator`).
    seed:
        Seeds the phased engine's jitter, or the general engine's
        default delay model.
    """

    def __init__(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        nproc: int = 1,
        delay_model: DelayModel | None = None,
        engine: str = "phased",
        beta: float | str = 1.0,
        directions: DirectionStream | None = None,
        atomic: bool = True,
        jitter: int = 0,
        seed: int = 0,
    ):
        if engine not in ("phased", "general"):
            raise ModelError(
                f"unknown engine {engine!r}; use 'phased' or 'general' "
                "(a real worker pool: repro.execution.make_solver)"
            )
        if engine != "general" and delay_model is not None:
            raise ModelError("delay_model is only supported by the 'general' engine")
        if engine == "general" and not atomic:
            raise ModelError(
                "the general engine writes atomically; atomic=False is "
                "only supported by the 'phased' engine"
            )
        if not A.is_square():
            raise ShapeError(f"AsyRGS needs a square matrix, got {A.shape}")
        self.A = A
        self.n = A.shape[0]
        # Validate b once, up front — every engine gets the same contract
        # and the same error wording (the shared table in
        # :mod:`repro.validation`), instead of failing at different
        # depths with engine-specific phrasing.
        self.b = check_rhs(b, self.n)
        self.engine = engine
        self.nproc = int(nproc)
        if self.nproc < 1:
            raise ModelError(f"nproc must be at least 1, got {nproc}")
        self.directions = (
            directions if directions is not None else DirectionStream(self.n, seed=0)
        )
        if engine == "general":
            self.delay_model = (
                delay_model
                if delay_model is not None
                else ProcessorPhaseDelay(self.nproc, seed=seed)
            )
            tau = self.delay_model.tau
            consistent = self.delay_model.is_consistent
        else:
            self.delay_model = None
            tau = self.nproc + int(jitter) - 1
            consistent = True
        self.tau = int(tau)
        self._atomic = bool(atomic)
        self._jitter = int(jitter)
        self._seed = int(seed)
        if beta == "auto":
            # Pass neither coefficient: auto_step_size computes exactly
            # the one the read model needs (ρ for consistent reads, ρ₂
            # for inconsistent) — one O(nnz) pass, never a discarded one.
            self.beta = auto_step_size(A, tau=self.tau, consistent=consistent)
        else:
            self.beta = float(beta)
            if not 0.0 < self.beta < 2.0:
                raise ModelError(f"step size beta must lie in (0, 2), got {self.beta}")
        self._sim = self._make_engine(self.b)

    # ------------------------------------------------------------------

    def _zero_like_b(self) -> np.ndarray:
        return np.zeros_like(self.b)

    def _check_x0(self, x0: np.ndarray) -> np.ndarray:
        """Validate the initial iterate up front — the same contract and
        wording for every engine (the shared table in
        :mod:`repro.validation`), instead of a silent broadcast or a
        deep engine-specific failure."""
        return np.array(check_x0(x0, self.b.shape))

    def _make_engine(self, b_sub: np.ndarray):
        """The simulated engine for ``b_sub`` (the whole block, or a
        column sub-block of it), sharing this solver's
        directions/step/delay configuration — on a sub-block the
        realized row sequence is identical, only the columns written
        shrink."""
        if self.engine == "phased":
            return PhasedSimulator(
                self.A,
                b_sub,
                nproc=self.nproc,
                directions=self.directions,
                beta=self.beta,
                atomic=self._atomic,
                jitter=self._jitter,
                seed=self._seed,
            )
        return AsyncSimulator(
            self.A,
            b_sub,
            delay_model=self.delay_model,
            directions=self.directions,
            beta=self.beta,
        )

    def run_sweeps(
        self,
        sweeps: int,
        x0: np.ndarray | None = None,
        *,
        record_history: bool = True,
        metric=None,
        start_iteration: int = 0,
    ) -> AsyRGSResult:
        """Run a fixed number of sweeps without synchronization points.

        The entire run is a single asynchronous segment — the regime of
        Theorem 2(b)/3(b)/4(b) (no occasional synchronization). The metric
        history is still recorded once per sweep: that read models a
        monitoring thread and does not synchronize the execution.
        """
        sweeps = int(sweeps)
        if sweeps < 0:
            raise ModelError("sweeps must be non-negative")
        x = self._zero_like_b() if x0 is None else self._check_x0(x0)
        k = 1 if self.b.ndim == 1 else int(self.b.shape[1])
        if metric is None:
            metric = lambda xv: relative_residual(self.A, xv, self.b)  # noqa: E731
        history = (
            ConvergenceHistory(label="AsyRGS", unit="sweep", metric="metric")
            if record_history
            else None
        )
        if history is not None:
            history.record(0, metric(x))
        result = self._sim.run(
            x,
            sweeps * self.n,
            start_iteration=start_iteration,
            checkpoint_every=self.n if record_history else None,
            checkpoint_metric=metric if record_history else None,
        )
        if history is not None:
            for it, value in result.checkpoints:
                history.record((it - start_iteration) // self.n, value)
        return AsyRGSResult(
            x=result.x,
            iterations=result.iterations,
            sweeps=sweeps,
            converged=False,
            history=history,
            total_row_nnz=result.total_row_nnz,
            sync_points=0,
            lost_writes=result.lost_writes,
            beta=self.beta,
            column_updates=result.iterations * k,
        )

    def solve(
        self,
        tol: float,
        max_sweeps: int,
        x0: np.ndarray | None = None,
        *,
        sync_every_sweeps: int = 1,
        metric=None,
        record_history: bool = True,
        retire: bool | None = None,
    ) -> AsyRGSResult:
        """Solve to tolerance with the epoch scheme of Theorem 2's discussion.

        Runs ``sync_every_sweeps`` sweeps asynchronously, synchronizes
        (segment boundary — all pending updates become visible to every
        simulated processor), measures the residual, and repeats until
        converged or the sweep budget is exhausted.

        Convergence is judged **per column**: the solve finishes when
        every column's relative residual sits below ``tol`` (a Frobenius
        aggregate can pass while one hard label column is still far
        off). With ``retire`` (the default), a column that reaches
        ``tol`` is retired at that synchronization point — subsequent
        updates refresh only the shrinking active set (the simulated
        engines narrow the block they update). Retirement never happens
        mid-segment, so the Theorem 2 epoch structure is untouched. The result reports ``converged_columns``,
        ``column_sweeps`` (each column's retirement epoch), and
        ``column_updates`` (the work actually spent).

        A custom ``metric`` restores the aggregate-only criterion
        ``metric(x) < tol``; it cannot be decomposed per column, so
        per-column tracking is off and combining it with an explicit
        ``retire=True`` raises.
        """
        x = self._zero_like_b() if x0 is None else self._check_x0(x0)
        engine = SimulatorEngine(self._sim, narrow=self._make_engine)
        result = solve_epochs(
            nullcontext(engine),
            partial(ColumnTracker, self.A),
            x,
            self.b,
            tol=tol,
            max_sweeps=max_sweeps,
            n_rows=self.n,
            sync_every_sweeps=sync_every_sweeps,
            metric=metric,
            retire=retire,
        )
        history = None
        if record_history:
            history = ConvergenceHistory(
                label="AsyRGS-epochs", unit="sweep", metric="metric"
            )
            columns = dict(result.column_checkpoints) if self.b.ndim == 2 else {}
            for it, value in result.checkpoints:
                history.record(it // self.n, value, columns=columns.get(it))
        return AsyRGSResult(
            x=result.x,
            iterations=result.iterations,
            sweeps=result.sweeps_done,
            converged=result.converged,
            history=history,
            total_row_nnz=result.total_row_nnz,
            sync_points=result.sync_points,
            lost_writes=engine.lost_writes,
            beta=self.beta,
            # With a custom metric the simulators keep no column accounting.
            column_updates=result.column_updates if metric is None else None,
            converged_columns=result.converged_columns,
            column_sweeps=result.column_sweeps,
            column_residuals=result.column_residuals,
        )

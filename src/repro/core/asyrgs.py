"""AsyRGS — the paper's asynchronous randomized Gauss-Seidel solver.

This module is the user-facing façade over the execution substrate. It
packages the two simulation engines and the true-parallel multiprocess
backend behind one solver object and implements the **epoch scheme**
from the discussion of Theorem 2: run asynchronously for ≈ n updates,
synchronize (a segment boundary — every processor's updates become
visible), check the residual, repeat. The number of synchronization
points is what the theory trades against the convergence rate, and what
the cost model charges barriers for.

Typical use::

    solver = AsyRGS(A, b, nproc=16)
    result = solver.solve(tol=1e-4, max_sweeps=200)

or, for explicit delay-model studies::

    solver = AsyRGS(A, b, delay_model=UniformDelay(tau=32, seed=7),
                    engine="general", beta="auto")

or, on real OS processes sharing one iterate (measured delays instead of
modeled ones)::

    solver = AsyRGS(A, b, nproc=4, engine="processes")
    result = solver.solve(tol=1e-4, max_sweeps=200)
    result.tau_observed.max   # empirical delay bound from the write-log

Block right-hand sides are solved **column-aware**: convergence is
judged per column, and columns that reach the tolerance are retired at
epoch boundaries so the remaining updates only refresh the shrinking
active set (the paper's 51-label regime with skewed label difficulty)::

    solver = AsyRGS(A, B51, nproc=4, engine="processes")
    result = solver.solve(tol=1e-3, max_sweeps=600)
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
    DelayStats,
    PhasedSimulator,
    ProcessAsyRGS,
    ProcessorPhaseDelay,
    WriteModel,
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
        Epochs of ``n`` updates actually executed — reported identically
        by every engine (simulated and real-process paths share this
        accounting).
    converged:
        Whether the tolerance was reached (``False`` without a tolerance).
    history:
        Per-epoch metric record.
    total_row_nnz:
        Σ over updates of ``nnz(row)`` — input to the cost model.
    sync_points:
        Number of synchronization (epoch) boundaries executed.
    lost_writes:
        Updates destroyed by write races (non-atomic simulated modes;
        the multiprocess backend cannot observe individual lost writes
        and reports 0).
    beta:
        The step size actually used (useful with ``beta="auto"``).
    tau_observed:
        Empirical delay statistics from the multiprocess backend's
        shared write-log (``None`` for the simulated engines, whose
        delays are modeled rather than measured).
    wall_time:
        Wall-clock seconds spent in the worker pool
        (``engine="processes"`` only).
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
    tau_observed: DelayStats | None = None
    wall_time: float | None = None
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
        scaling benches); ``"general"`` — the per-update engine supporting
        arbitrary delay and write models; ``"processes"`` — genuine OS
        processes sharing the iterate through
        :mod:`multiprocessing.shared_memory` (real delays, measured
        ``tau_observed``, wall-clock speedup). Every engine accepts a
        right-hand-side block ``(n, k)``; the processes engine solves
        the block simultaneously — one row gather per update serves all
        ``k`` columns, the paper's 51-label amortization — and can keep
        a persistent worker pool across solves (see
        :class:`~repro.execution.ProcessAsyRGS`).
    beta:
        Step size in ``(0, 2)``, or ``"auto"`` to use the theory-optimal
        step for the configured τ and read-consistency model
        (Section 6 / :mod:`repro.core.stepsize`).
    directions:
        Coordinate stream shared across configurations. Defaults to seed
        0 for the simulated engines (pinning directions across
        configurations); for ``engine="processes"`` the default stream is
        keyed by ``seed`` — it is the only randomness that engine
        consumes.
    atomic:
        Whether the single-coordinate update is indivisible (Assumption
        A-1). ``None`` (default) picks the engine's native regime:
        ``True`` for the simulated engines (atomicity is free there) and
        ``False`` for ``engine="processes"``, where honoring A-1 costs
        striped locks and the unlocked run is the paper's Section 9
        non-atomic experiment (matching the ``speedup`` benchmark).
    adaptive:
        Residual-weighted direction sampling (``engine="processes"``
        only): the parent reweights the row-draw distribution by
        per-row residual mass at every epoch boundary. Equivalent to
        ``directions="adaptive"``; the default uniform mode is the
        paper's sampling, bit for bit.
    capacity_k:
        Column capacity of the shared pool layout (``engine="processes"``
        only): the underlying :class:`ProcessAsyRGS` allocates its
        shared block at this width, so its per-call ``b=`` overrides of
        any ``k ≤ capacity_k`` reuse the live pool without a respawn —
        the serving regime (see :mod:`repro.serve`).
    write_model / jitter / seed:
        Forwarded to the chosen engine (see
        :mod:`repro.execution.simulator`).
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
        directions: DirectionStream | str | None = None,
        atomic: bool | None = None,
        adaptive: bool = False,
        write_model: WriteModel | None = None,
        jitter: int = 0,
        seed: int = 0,
        capacity_k: int | None = None,
    ):
        if engine not in ("phased", "general", "processes"):
            raise ModelError(
                f"unknown engine {engine!r}; use 'phased', 'general', or 'processes'"
            )
        if isinstance(directions, str):
            # The string forms ("uniform"/"adaptive") are resolved here so
            # self.directions is always a real stream; the simulated
            # engines have no adaptive mode, so the string is a
            # processes-engine option like capacity_k.
            if directions == "adaptive":
                adaptive = True
            elif directions != "uniform":
                raise ModelError(
                    "directions must be a DirectionStream, 'uniform', or "
                    f"'adaptive', got {directions!r}"
                )
            directions = None
        if adaptive and engine != "processes":
            raise ModelError(
                "adaptive direction sampling reweights draws on the shared-"
                "memory pool; only the 'processes' engine supports it"
            )
        if engine != "general" and delay_model is not None:
            raise ModelError("delay_model is only supported by the 'general' engine")
        if engine != "processes" and capacity_k is not None:
            raise ModelError(
                "capacity_k sizes the shared-memory pool layout; only the "
                "'processes' engine has one"
            )
        if engine != "general" and write_model is not None:
            raise ModelError(
                "the phased engine models write races via atomic=False and the "
                "processes engine races for real; write_model is only supported "
                "by the 'general' engine"
            )
        if engine == "processes" and jitter:
            raise ModelError("jitter is a phased-engine knob; the processes "
                             "engine gets its jitter from the OS scheduler")
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
        if atomic is None:
            atomic = engine != "processes"
        if directions is None:
            direction_seed = seed if engine == "processes" else 0
            directions = DirectionStream(self.n, seed=direction_seed)
        self.directions = directions
        if engine == "general":
            self.delay_model = (
                delay_model
                if delay_model is not None
                else ProcessorPhaseDelay(self.nproc, seed=seed)
            )
            tau = self.delay_model.tau
            consistent = self.delay_model.is_consistent
        elif engine == "processes":
            # Nominal a-priori bound: the τ = O(P) reference scenario.
            # The run itself reports the measured value (tau_observed).
            self.delay_model = None
            tau = self.nproc - 1
            consistent = False  # live shared-memory reads, no snapshots
        else:
            self.delay_model = None
            tau = self.nproc + int(jitter) - 1
            consistent = True
        self.tau = int(tau)
        self._atomic = bool(atomic)
        self._jitter = int(jitter)
        self._seed = int(seed)
        self._write_model = write_model
        if beta == "auto":
            # Pass neither coefficient: auto_step_size computes exactly
            # the one the read model needs (ρ for consistent reads, ρ₂
            # for inconsistent) — one O(nnz) pass, never a discarded one.
            self.beta = auto_step_size(A, tau=self.tau, consistent=consistent)
        else:
            self.beta = float(beta)
            if not 0.0 < self.beta < 2.0:
                raise ModelError(f"step size beta must lie in (0, 2), got {self.beta}")
        if engine == "processes":
            self._sim = ProcessAsyRGS(
                A,
                self.b,
                nproc=self.nproc,
                beta=self.beta,
                atomic=atomic,
                directions=self.directions,
                adaptive=adaptive,
                capacity_k=capacity_k,
            )
        else:
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
            write_model=self._write_model,
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
        measured = self.engine == "processes"
        if measured:
            if start_iteration:
                raise ModelError(
                    "the processes engine always consumes the direction stream "
                    "from position 0; start_iteration is not supported"
                )
            result = self._sim.run(x, sweeps * self.n)
            # Workers cannot be observed mid-segment without synchronizing
            # them (that is the point of this backend), so the history has
            # endpoints only: the run is one asynchronous segment.
            checkpoints = []
            if record_history:
                checkpoints.append((sweeps * self.n, metric(result.x)))
        else:
            result = self._sim.run(
                x,
                sweeps * self.n,
                start_iteration=start_iteration,
                checkpoint_every=self.n if record_history else None,
                checkpoint_metric=metric if record_history else None,
            )
            checkpoints = result.checkpoints
        if history is not None:
            for it, value in checkpoints:
                history.record((it - start_iteration) // self.n, value)
        return AsyRGSResult(
            x=result.x,
            iterations=result.iterations,
            sweeps=sweeps,
            converged=False,
            history=history,
            total_row_nnz=result.total_row_nnz,
            sync_points=0,
            lost_writes=0 if measured else result.lost_writes,
            beta=self.beta,
            tau_observed=result.tau_observed if measured else None,
            wall_time=result.wall_time if measured else None,
            column_updates=result.column_updates if measured else result.iterations * k,
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
        updates refresh only the shrinking active set, on every engine
        (the processes backend shrinks its shared active-column mask;
        the simulated engines narrow the block they update). Retirement
        never happens mid-segment, so the Theorem 2 epoch structure is
        untouched. The result reports ``converged_columns``,
        ``column_sweeps`` (each column's retirement epoch), and
        ``column_updates`` (the work actually spent).

        A custom ``metric`` restores the aggregate-only criterion
        ``metric(x) < tol``; it cannot be decomposed per column, so
        per-column tracking is off and combining it with an explicit
        ``retire=True`` raises.
        """
        x = self._zero_like_b() if x0 is None else self._check_x0(x0)
        epochs = dict(
            sync_every_sweeps=sync_every_sweeps, metric=metric, retire=retire
        )
        measured = self.engine == "processes"
        if measured:
            result = self._sim.solve(tol, max_sweeps, x, **epochs)
            lost = 0
        else:
            engine = SimulatorEngine(self._sim, narrow=self._make_engine)
            result = solve_epochs(
                nullcontext(engine),
                partial(ColumnTracker, self.A),
                x,
                self.b,
                tol=tol,
                max_sweeps=max_sweeps,
                n_rows=self.n,
                **epochs,
            )
            lost = engine.lost_writes
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
            lost_writes=lost,
            beta=self.beta,
            # The simulators model their delays and time nothing real;
            # with a custom metric they keep no column accounting.
            tau_observed=result.tau_observed if measured else None,
            wall_time=result.wall_time if measured else None,
            column_updates=(
                result.column_updates if measured or metric is None else None
            ),
            converged_columns=result.converged_columns,
            column_sweeps=result.column_sweeps,
            column_residuals=result.column_residuals,
        )

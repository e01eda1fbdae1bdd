"""The epoch scheme of Theorem 2's discussion, written once.

Every engine that solves to a tolerance runs about ``sync_every_sweeps
· n`` asynchronous updates, synchronizes (every write visible), checks
the residual, and repeats; Liu–Wright's AsyRK (arXiv 1401.4780) has the
same structure. :func:`solve_epochs` is that loop and
:class:`EpochRecord` the checkpoints and result around it.

An engine is anything with ``begin(x0, b)`` (arm one solve),
``advance(updates)`` (one asynchronous segment ending at a
synchronization point), ``x()`` (the live ``(x_rows, ≥ k)`` iterate
block; a request occupies its leading columns), ``retire_columns(cols)``
(called only between segments) and the counters of
:func:`engine_counts`. The pools' ``_WorkerPool`` is one;
:class:`SimulatorEngine` wraps the simulators.

A tracker judges convergence at each boundary: ``value``,
``converged``, ``done_mask`` and ``update(x, sweeps_done, retire)``
returning the columns to retire. The per-column trackers share their
bookkeeping through :class:`ColumnFold`; a caller's ``metric`` becomes a
:class:`MetricTracker`.
"""

from __future__ import annotations

import math
from contextlib import AbstractContextManager
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError

__all__ = [
    "ColumnFold",
    "DelayStats",
    "EpochRecord",
    "MetricTracker",
    "ProcessRunResult",
    "SimulatorEngine",
    "check_epoch_args",
    "engine_counts",
    "request_view",
    "solve_epochs",
]


@dataclass
class DelayStats:
    """Empirical staleness recovered from the shared write-log.

    Each sample counts the foreign commits that landed between one
    update's read of the shared iterate and its own commit — the measured
    counterpart of the paper's bounded delay ``τ`` (Assumptions A-3/A-4).
    """

    count: int
    mean: float
    max: int
    samples: np.ndarray = field(repr=False)

    @property
    def tau_observed(self) -> int:
        """The empirical delay bound: the largest staleness witnessed."""
        return self.max


def _no_delays() -> DelayStats:
    return DelayStats(0, 0.0, 0, np.empty(0, dtype=np.int64))


@dataclass
class ProcessRunResult:
    """Outcome of an epoch-scheme solve, or of a pool's free run. The
    counters default to those of a solve that ran no epoch.

    Attributes
    ----------
    x:
        Final iterate (a private copy; ``(x_rows,)`` or ``(x_rows, k)``
        following the request's ``b``).
    iterations:
        Total row updates committed across all workers (a block update
        of all ``k`` columns counts once, as in the simulators).
    per_worker_iterations:
        Commit counts per worker process.
    sync_points:
        Synchronization points crossed (epoch boundaries).
    converged:
        Whether the tolerance was reached (``False`` without one).
    wall_time:
        Wall-clock seconds spent inside the worker session (excludes
        process startup, includes the waits at the epoch gates — the
        honest number a strong-scaling plot should use).
    tau_observed:
        :class:`DelayStats` from the shared write-log.
    checkpoints:
        ``(cumulative_updates, metric)`` pairs recorded at epoch
        boundaries by the parent.
    atomic:
        Whether updates were written with compare-exchange (A-1).
    sweeps_done:
        Completed sweeps of ``n_rows`` row updates — the quantity the
        epoch loop actually executed, reported identically by every
        engine.
    column_updates:
        Σ over commits of the number of columns actually refreshed —
        ``iterations · k`` without retirement, strictly less once
        columns start retiring (the work the retirement saves).
    converged_columns:
        Per-column convergence mask at the final synchronization point
        (``None`` for runs without a tolerance or with a custom metric).
    column_sweeps:
        Sweep count at which each column first reached the tolerance
        (its retirement epoch when retirement is on); ``-1`` for columns
        that never got there. ``None`` like ``converged_columns``.
    column_residuals:
        Final per-column residual measures (``None`` like the above).
    column_checkpoints:
        ``(cumulative_updates, per-column residuals)`` pairs recorded at
        epoch boundaries alongside ``checkpoints``.
    """

    x: np.ndarray
    iterations: int = 0
    per_worker_iterations: list[int] = field(default_factory=list)
    sync_points: int = 0
    converged: bool = False
    wall_time: float = 0.0
    tau_observed: DelayStats = field(default_factory=_no_delays)
    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    atomic: bool = False
    total_row_nnz: int = 0
    sweeps_done: int = 0
    column_updates: int = 0
    converged_columns: np.ndarray | None = None
    column_sweeps: np.ndarray | None = None
    column_residuals: np.ndarray | None = None
    column_checkpoints: list[tuple[int, np.ndarray]] = field(default_factory=list)


def check_epoch_args(
    tol, max_sweeps, sync_every_sweeps, *, metric=None, retire=None
) -> tuple[float, int, int, bool]:
    """The validated ``(tol, max_sweeps, sync_every, retire)``; ``retire``
    defaults to on unless a custom ``metric`` judges convergence."""
    tol = float(tol)
    max_sweeps = int(max_sweeps)
    if max_sweeps < 0:
        raise ModelError(f"max_sweeps must be non-negative, got {max_sweeps}")
    sync_every = int(sync_every_sweeps)
    if sync_every < 1:
        raise ModelError(
            f"sync_every_sweeps must be at least 1, got {sync_every}"
        )
    if retire is None:
        retire = metric is None
    elif retire and metric is not None:
        raise ModelError(
            "column retirement tracks the built-in per-column residual; "
            "a custom metric cannot be decomposed per column"
        )
    return tol, max_sweeps, sync_every, bool(retire)


class ColumnFold:
    """The measure-independent half of a per-column tracker.

    Holds the per-column residuals ``col`` and their numerators ``num``,
    the epoch each column first went below ``tol`` (``column_sweeps``,
    ``-1`` until then), the converged/retired ``done_mask``, and the
    aggregate ``value`` derived from ``num``. A subclass's ``update``
    re-measures ``col``/``num`` and ends with :meth:`fold`.
    """

    per_column = True

    def __init__(self, col, num, denom_total: float, tol: float):
        self.tol = float(tol)
        self.col = col
        self.num = num
        self.k = int(col.shape[0])
        self._denom_total = float(denom_total)
        self.done_mask = col < self.tol
        self.column_sweeps = np.where(self.done_mask, 0, -1).astype(np.int64)

    @property
    def value(self) -> float:
        """``‖num‖₂`` relative to the aggregate denominator (absolute
        when that is zero)."""
        total = math.sqrt(self.num.dot(self.num))  # np.linalg.norm's sum
        return total / self._denom_total if self._denom_total > 0 else total

    @property
    def converged(self) -> bool:
        return bool(self.done_mask.all())

    def active(self) -> np.ndarray:
        """Indices of the columns still in the active set."""
        return (~self.done_mask).nonzero()[0]

    def fold(self, sweeps_done: int, retire: bool) -> np.ndarray:
        """Stamp columns newly below ``tol``, update the mask, and return
        the columns retired by this boundary (none when not retiring)."""
        below = self.col < self.tol
        if not retire:
            self.column_sweeps[below & (self.column_sweeps < 0)] = int(sweeps_done)
            self.done_mask = below
            return np.empty(0, dtype=np.int64)
        # A done column is stamped already (both branches keep that so),
        # so every column to stamp is among those retired now: at most
        # boundaries that is none, and this costs three NumPy calls.
        newly_retired = (below > self.done_mask).nonzero()[0]
        if newly_retired.size:
            fresh = newly_retired[self.column_sweeps[newly_retired] < 0]
            self.column_sweeps[fresh] = int(sweeps_done)
            self.done_mask[newly_retired] = True
        return newly_retired


class MetricTracker:
    """A caller's aggregate ``metric(x) < tol`` as a one-column tracker
    that never retires and reports no per-column detail."""

    per_column = False

    def __init__(self, metric, x0: np.ndarray, tol: float):
        self.metric = metric
        self.tol = float(tol)
        self.value = metric(x0)
        self.done_mask = np.array([self.value < self.tol])

    @property
    def converged(self) -> bool:
        return bool(self.done_mask[0])

    def update(self, x, sweeps_done: int, retire: bool) -> np.ndarray:
        self.value = self.metric(x)
        self.done_mask[0] = self.value < self.tol
        return np.empty(0, dtype=np.int64)


def engine_counts(engine) -> dict:
    """The result counters an engine reports after its epochs."""
    per_worker = engine.per_worker()
    return {
        "iterations": sum(per_worker),
        "per_worker_iterations": per_worker,
        "sync_points": engine.sync_points,
        "wall_time": engine.wall_time,
        "tau_observed": engine.delay_stats(),
        "total_row_nnz": engine.total_row_nnz(),
        "column_updates": engine.column_updates(),
    }


def request_view(x_block: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The leading columns of an iterate block that a request occupies,
    shaped like its ``b`` (no copy)."""
    return x_block[:, 0] if b.ndim == 1 else x_block[:, : b.shape[1]]


class EpochRecord:
    """One solve's tracker, its ``(cumulative updates, value)``
    checkpoints with their per-column twins, and the result built from
    them."""

    def __init__(self, tracker, retire: bool):
        self.tracker = tracker
        self.retire = retire
        self.checkpoints: list[tuple[int, float]] = []
        self.column_checkpoints: list[tuple[int, np.ndarray]] = []
        self._checkpoint(0)

    def _checkpoint(self, updates: int) -> None:
        self.checkpoints.append((updates, self.tracker.value))
        if self.tracker.per_column:
            self.column_checkpoints.append((updates, self.tracker.col.copy()))

    def boundary(self, x, sweeps_done: int, updates: int) -> np.ndarray:
        """Measure the synchronized iterate ``x``, checkpoint, and return
        the columns to retire now."""
        newly_retired = self.tracker.update(x, sweeps_done, self.retire)
        self._checkpoint(updates)
        return newly_retired

    def result(self, x, *, cls=ProcessRunResult, **fields) -> ProcessRunResult:
        """A ``cls`` result: the tracker's verdict and the checkpoints,
        plus the engine's ``fields`` (counters, ``sweeps_done``, …)."""
        t = self.tracker
        if t.per_column:
            fields.update(
                converged_columns=t.done_mask.copy(),
                column_sweeps=t.column_sweeps,
                column_residuals=t.col.copy(),
                column_checkpoints=self.column_checkpoints,
            )
        return cls(
            x=x, converged=t.converged, checkpoints=self.checkpoints, **fields
        )


def solve_epochs(
    engine: AbstractContextManager,
    column_tracker,
    x0: np.ndarray,
    b: np.ndarray,
    *,
    tol: float,
    max_sweeps: int,
    sync_every_sweeps: int = 1,
    metric=None,
    retire: bool | None = None,
    n_rows: int,
    workers: int = 1,
    atomic: bool = False,
) -> ProcessRunResult:
    """Solve to ``tol`` in epochs of ``sync_every_sweeps · n_rows``
    updates, for at most ``max_sweeps`` sweeps.

    ``engine`` is a context manager yielding the engine, entered only
    when an epoch runs: a start that is already converged, or
    ``max_sweeps == 0``, costs no pool. ``column_tracker(x0, b, tol)``
    builds the method's per-column tracker unless a ``metric`` is given.
    With ``retire``, columns leave the active set at the boundary where
    they converge, and converged columns never enter it."""
    tol, max_sweeps, sync_every, retire = check_epoch_args(
        tol, max_sweeps, sync_every_sweeps, metric=metric, retire=retire
    )
    if metric is not None:
        tracker = MetricTracker(metric, x0, tol)
    else:
        tracker = column_tracker(x0, b, tol)
    record = EpochRecord(tracker, retire)
    if tracker.converged or max_sweeps == 0:
        return record.result(
            x0.copy(), per_worker_iterations=[0] * workers, atomic=atomic
        )
    with engine as live:
        live.begin(x0, b)
        if retire and tracker.done_mask.any():
            # Columns converged before the first epoch never enter the
            # active set at all.
            live.retire_columns(np.flatnonzero(tracker.done_mask))
        sweeps_done = 0
        while not tracker.converged and sweeps_done < max_sweeps:
            take = min(sync_every, max_sweeps - sweeps_done)
            live.advance(take * n_rows)
            sweeps_done += take
            # The boundary just crossed is a paper-sense sync point: the
            # read below sees every update of the epoch. Newly converged
            # columns leave the active set while no segment runs.
            newly_retired = record.boundary(
                request_view(live.x(), b), sweeps_done, sweeps_done * n_rows
            )
            if newly_retired.size:
                live.retire_columns(newly_retired)
        return record.result(
            request_view(live.x(), b).copy(),
            sweeps_done=sweeps_done,
            atomic=atomic,
            **engine_counts(live),
        )


class SimulatorEngine:
    """A ``PhasedSimulator`` or ``AsyncSimulator`` as an epoch engine.

    Each ``advance`` continues the simulated execution at the next
    stream position. RHS columns evolve independently, so once columns
    retire the engine runs ``narrow(b_sub)``, the same simulator on the
    active sub-block: the same per-column trajectories with fewer
    writes. The sub-engine is rebuilt only when the active set changes;
    in between, its result block is fed straight back in.
    """

    def __init__(self, sim, narrow=None):
        self.sim = sim
        self._narrow = narrow
        self.lost_writes = 0  # read by callers even when no epoch ran

    def begin(self, x0: np.ndarray, b: np.ndarray) -> None:
        self._x = np.array(x0, dtype=np.float64)
        self._b = b
        self._live = np.arange(1 if b.ndim == 1 else b.shape[1])
        self._sub = self._sub_x = None
        self._iterations = self._row_nnz = self._column_updates = 0
        self.lost_writes = self.sync_points = 0
        self.wall_time = 0.0

    def advance(self, updates: int) -> None:
        live = self._live
        if self._x.ndim == 1 or live.size == self._x.shape[1]:
            result = self.sim.run(
                self._x, updates, start_iteration=self._iterations
            )
            self._x = result.x
        else:
            if self._sub is None:
                self._sub = self._narrow(np.ascontiguousarray(self._b[:, live]))
                self._sub_x = np.ascontiguousarray(self._x[:, live])
            result = self._sub.run(
                self._sub_x, updates, start_iteration=self._iterations
            )
            self._sub_x = result.x
            self._x[:, live] = result.x
        self._iterations += result.iterations
        self._row_nnz += result.total_row_nnz
        self._column_updates += result.iterations * int(live.size)
        self.lost_writes += result.lost_writes
        self.sync_points += 1

    def x(self) -> np.ndarray:
        return self._x if self._x.ndim == 2 else self._x[:, None]

    def retire_columns(self, cols: np.ndarray) -> None:
        self._live = np.setdiff1d(self._live, cols)
        self._sub = None  # the active set changed

    def per_worker(self) -> list[int]:
        return [self._iterations]

    def total_row_nnz(self) -> int:
        return self._row_nnz

    def column_updates(self) -> int:
        return self._column_updates

    def delay_stats(self) -> DelayStats:
        return _no_delays()  # the simulators model delays, measure none

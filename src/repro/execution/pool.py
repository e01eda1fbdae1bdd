"""Solver-agnostic in-process worker-pool core.

This module is the method-independent half of every pool: one aligned
in-process buffer laid out for the pool's shared arrays, the worker
threads and their crash attribution, the epoch gates (control words,
cumulative update targets, generation stamps for pool reuse),
per-worker Philox direction streams, the delay write-log, per-column
retirement, and the persistent-pool lifecycle (:class:`PoolSolver`).

What a concrete solver contributes is its system geometry, its per-row
normalizers, and the two knobs of the one per-draw step (Algorithm 1,
lines 5–7): gather row ``r`` from the live shared iterate (no snapshot
— the inconsistent-read regime), form ``γ = (b[r] − A_r·x)/norms[r]``
over the active columns, scatter. One row gather serves every active
column (the paper's 51-RHS amortization). The pool core owns
everything around it: direction draws, progress ticketing, the
staleness write-log, and both gates.

The workers
-----------
The paper's Algorithm 1 is a shared-memory method: P processors update
one iterate in one address space. A pool runs it that way, as P worker
threads of the calling process, all reading and writing the one
iterate block of the pool's buffer. Each worker runs one epoch segment
(its draws between a start gate and an end gate) in one call of the
native kernel (``row_segment`` in ``repro/_native/csr.c``, bound once
per worker by :class:`repro._native.RowSegment` to the pool's views
and to the matrix's own CSR arrays, which are not copied). cffi
releases the interpreter lock for every such call, so the workers run
in parallel. The kernel is the pools' only path. Where it cannot be
built (no cffi, no C compiler) or is switched off
(``repro._native.enabled``), :func:`require_kernel` refuses a pool at
construction, before any buffer or thread exists, and
:func:`~repro.execution.check_solver` refuses it at registration.

The kernel's inputs are checked when it is bound (every array's dtype,
contiguity and shape, and every column index of the CSR) and its
active columns on every call, so a bad layout is a ``ValueError``, not
a stray write. A fault inside the C code itself, though, would take
down the calling process, the server included.

The gates
---------
An epoch is bracketed by two gates on words of the buffer's control
block, bound by :class:`repro._native.Gate`: the parent opens the start
gate (it bumps a generation word and wakes the workers), and each
worker adds itself to an arrival word when its segment is done, the
last one waking the parent at the end gate. On Linux both sides sleep
on a futex of the word, with no spin phase; elsewhere they poll with
short sleeps. Each wait is a native call that releases the interpreter
lock and returns after at most ``_GATE_SLICE`` seconds, and between
slices each side looks around:

* the parent fails the solve with :class:`ModelError` once a worker
  reported an exception (the error flag, which also opens the end
  gate), or once the epoch has outlasted ``barrier_timeout``;
* a worker parked at the start gate leaves once the parent set STOP.

A failed or closed pool is stopped the same way: STOP, one more open of
the start gate, and a join bounded by ``barrier_timeout``. A segment is
a bounded number of draws, so every worker returns to its start gate,
sees STOP and ends. Each worker holds its own references to the views
and its own kernel and gate bindings, so no buffer is freed under a C
call that is still running.

With ``atomic=True`` every coordinate write is one compare-exchange per
element (Assumption A-1); at one worker the exchange always succeeds
at once, so the bits are those of the plain write.

Three methods run it, differing only in two class attributes of the
solver: ``project`` (``False`` relaxes coordinate ``offset + r``,
``True`` projects onto equation ``r``) and ``offset`` (the iterate row
of draw 0):

* :class:`~repro.execution.processes.ProcessAsyRGS` — the defaults:
  the paper's asynchronous randomized Gauss-Seidel relaxes coordinate
  ``r`` (square, positive-diagonal systems;
  ``x[r] += β·(b[r] − A_r·x)/A_rr``; ``norms`` holds the diagonal).
* :class:`~repro.execution.kaczmarz.AsyRK` — ``project = True``:
  asynchronous randomized Kaczmarz projects onto equation ``r``
  (rectangular least-squares systems, Liu/Wright/Sridhar arXiv
  1401.4780; ``x += β·a_r·(b[r] − a_r·x)/‖a_r‖²``; ``norms`` holds
  ``‖a_r‖²``).
* each shard of :class:`~repro.execution.sharded.ShardedSolver` —
  ``offset = r0``: AsyRGS on the shard's owned rows, which sit at
  offset ``r0`` of its full-height iterate.

Geometry
--------
The layout is parameterized by ``(n_rows, x_rows, b_rows, k)``:
``n_rows`` is the number of CSR rows (the direction space — every draw
picks a row), ``x_rows``/``b_rows`` the row counts of the shared
iterate and RHS blocks. For AsyRGS all three equal ``n``; for AsyRK on
an ``m × n`` operator they are ``m, n, m``.

Adaptive direction sampling
---------------------------
With ``adaptive=True``, the parent recomputes residual-proportional
row weights at every epoch boundary — while it owns the buffer — and
publishes their CDF into a dedicated slot. Workers map each
uniform Philox draw ``d`` over ``{0..n_rows−1}`` through the inverse
CDF via the stratified quantile ``u = (d + ½)/n_rows``: the strided-union determinism of the direction
streams is untouched (same words, same positions), only the *meaning*
of a draw changes, and ``adaptive=False`` runs the exact uniform code
path bit for bit. The quantization means a row needs roughly
``1/n_rows`` of the total weight to be drawn at all, so the residual
weights are blended with a uniform component (``_UNIFORM_BLEND`` times
the mean weight, added to every row): each row keeps at least its share
of that uniform mass however concentrated the residual is. This is the
residual-weighted sampling of Patel–Jahangoshahi–Maldonado (arXiv
2104.04816) adapted to the counter-based stream.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

import numpy as np

from .. import _native
from ..exceptions import ModelError, ShapeError
from ..rng import DirectionStream
from ..validation import check_rhs, check_x0, rhs_empty_message
from .epochs import (
    DelayStats,
    ProcessRunResult,
    engine_counts,
    request_view,
    solve_epochs,
)

__all__ = [
    "DelayStats",
    "PoolSolver",
    "ProcessRunResult",
    "available_cpus",
    "require_kernel",
    "residual_weights",
    "segment_bytes",
]


# Control-word slots (int64): command, cumulative update target, error
# flag, the generation stamp that tells workers a new call started, and
# the gate words: the start gate's generation and the end gate's count
# of arrived workers.
_CTRL_COMMAND = 0
_CTRL_TARGET = 1
_CTRL_ERROR = 2
_CTRL_GENERATION = 3
_CTRL_START = 4
_CTRL_ARRIVED = 5
_CTRL_SLOTS = 6
_CMD_RUN = 0
_CMD_STOP = 1
#: Longest single gate wait (seconds) before a side looks around.
_GATE_SLICE = 0.1

_ALIGN = 64  # cache-line alignment for every shared array

#: Name prefix of every pool worker thread.
THREAD_NAME = "repro-pool"

#: Uniform mass added to every adaptive sampling weight, as a multiple
#: of the mean residual weight. See ``refresh_sampling``.
_UNIFORM_BLEND = 1.0

#: Per-worker bound on retained write-log staleness samples; the
#: aggregate sum/max/count are always exact.
LOG_CAPACITY = 4096
#: Default seconds before an epoch that has not reached its end gate
#: declares the pool wedged.
BARRIER_TIMEOUT = 300.0


def require_kernel() -> None:
    """Raise :class:`ModelError` unless pools can run here: the native
    module is switched on (``repro._native.enabled``) and loads,
    building it first if its cache lacks it."""
    if not (_native.enabled and _native.loaded()):
        raise ModelError(
            "worker pools run on the native segment kernel, which is "
            "switched off or cannot be built here; it needs cffi and a "
            "working C compiler"
        )


def _layout(geom, nproc: int):
    """Offsets and dtypes of every shared array inside the pool buffer.

    ``geom`` is ``(n_rows, x_rows, b_rows, k)`` — see the module
    docstring. ``norms`` holds the method's per-row normalizers (the
    diagonal for AsyRGS, squared row norms for AsyRK) and ``cdf`` the
    adaptive-sampling CDF (written only in adaptive mode, always
    allocated: 8 bytes per row keeps the layout uniform). The CSR is
    not in the layout: the kernel reads the matrix's own arrays.
    """
    n_rows, x_rows, b_rows, k = geom
    specs = {
        "b": (np.float64, (b_rows, k)),
        "norms": (np.float64, (n_rows,)),
        "x": (np.float64, (x_rows, k)),
        "cdf": (np.float64, (n_rows,)),
        "active": (np.int64, (k,)),
        "progress": (np.int64, (nproc,)),
        "row_nnz": (np.int64, (nproc,)),
        "col_updates": (np.int64, (nproc,)),
        "control": (np.int64, (_CTRL_SLOTS,)),
        "delay_sum": (np.int64, (nproc,)),
        "delay_max": (np.int64, (nproc,)),
        "delay_count": (np.int64, (nproc,)),
        "delay_log": (np.int64, (nproc, LOG_CAPACITY)),
    }
    offsets = {}
    cursor = 0
    for name, (dtype, shape) in specs.items():
        cursor = (cursor + _ALIGN - 1) & ~(_ALIGN - 1)
        offsets[name] = cursor
        cursor += int(np.dtype(dtype).itemsize) * int(np.prod(shape))
    return specs, offsets, max(cursor, 1)


def segment_bytes(
    *,
    n_rows: int,
    x_rows: int,
    b_rows: int,
    nnz: int,
    capacity_k: int,
    nproc: int,
) -> int:
    """Exact size (bytes) of the buffer one pool with this geometry
    allocates. ``nnz`` adds nothing: the pool reads the matrix's own
    CSR arrays."""
    del nnz
    geom = (int(n_rows), int(x_rows), int(b_rows), int(capacity_k))
    return int(_layout(geom, int(nproc))[2])


def _views(buf, geom, nproc: int) -> dict[str, np.ndarray]:
    """Zero-copy NumPy views of every shared array in the buffer ``buf``
    (any writable object of the layout's size)."""
    specs, offsets, _ = _layout(geom, nproc)
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=buf, offset=offsets[name])
        for name, (dtype, shape) in specs.items()
    }


def _buffer(size: int) -> np.ndarray:
    """A zeroed byte buffer of ``size`` bytes starting on a cache line."""
    raw = np.zeros(size + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + size]


def residual_weights(A, v: dict[str, np.ndarray]) -> np.ndarray:
    """Per-row adaptive sampling weights from the live pool views
    (``A`` is the pool's operator).

    The weight of row ``r`` is ``Σ_j |b[r,j] − (A x_j)[r]|`` over the
    active columns — the residual mass a draw of ``r`` can remove. The
    formula is geometry-agnostic: for AsyRGS rows are coordinates, for
    AsyRK rows are equations, and in both layouts ``b`` has one row per
    direction. Called by the parent only (between an end gate and the
    next start gate, when it owns the buffer).
    """
    act = np.flatnonzero(v["active"] != 0)
    if act.size == 0:
        return np.ones(v["norms"].shape[0])
    return np.abs(v["b"][:, act] - A.matmat(v["x"][:, act])).sum(axis=1)


def _gate(control: np.ndarray, nproc: int):
    """The epoch gates on the buffer's ``control`` words."""
    return _native.Gate.bind(
        control, error=_CTRL_ERROR, start=_CTRL_START,
        arrived=_CTRL_ARRIVED, nproc=nproc,
    )


def _worker_main(wid: int, run, gate, views, errors: list) -> None:
    """Worker thread body: the epoch loop, then release the bindings.

    An exception is kept in ``errors[wid]`` and reported through the
    error flag as ``wid + 1`` (0 keeps meaning "no error"; the first
    reporter wins), which opens the end gate: the parent fails the
    solve at once instead of waiting out its timeout. It then ends the
    thread, whose hook prints the traceback."""
    try:
        _worker_loop(wid, run, gate, views)
    except BaseException as exc:
        errors[wid] = exc
        gate.fail(wid + 1)
        raise
    finally:
        run.release()
        gate.release()


def _worker_loop(wid: int, run, gate, views) -> None:
    """Epochs of randomized updates on the shared iterate.

    The loop outlives any single ``run()``/``solve()`` call: a change of
    the generation stamp at the start gate rewinds the worker's position
    in the direction stream to 0, so one pool serves many calls. Each
    epoch segment is one call of the worker's bound kernel ``run``
    between the start gate and the worker's arrival at the end gate;
    the gates and the segment's target are method independent. Parked
    at the start gate, the worker looks around every ``_GATE_SLICE``
    seconds and leaves once the parent has stopped the pool.
    """
    control, active = views["control"], views["active"]
    nproc = views["progress"].shape[0]
    seen = 0  # the start gate's generation when the pool was set up
    done = 0
    generation = 0
    while True:
        opened = gate.wait_start(seen, _GATE_SLICE)
        if opened == seen:  # a slice without an epoch
            if control[_CTRL_COMMAND] == _CMD_STOP:
                return
            continue
        seen = opened
        if control[_CTRL_COMMAND] == _CMD_STOP:
            return
        if control[_CTRL_GENERATION] != generation:
            generation = int(control[_CTRL_GENERATION])
            done = 0  # new call on the same pool: rewind the stream
        # This worker's share of the cumulative target, as
        # interleave_counts cuts it: the first total % nproc
        # workers take one draw more.
        total = int(control[_CTRL_TARGET])
        target = total // nproc + (wid < total % nproc)
        # The active-column set and the adaptive CDF are sampled once
        # per epoch, right after the start gate: the parent changes
        # them only while it owns the buffer (between the end gate
        # and the next start gate), so they never change
        # mid-segment — Theorem 2's segment structure is preserved,
        # the segments just narrow.
        done = run(active.nonzero()[0], done, target)
        gate.arrive()  # end gate: all updates of the epoch are visible


class _WorkerPool:
    """A live worker pool over one in-process buffer (epoch-stepped).

    Spawning the pool allocates the buffer, binds one kernel and one
    gate per worker, and starts the worker threads; :meth:`begin` then
    prepares the buffer for one ``run()``/``solve()`` call (iterate,
    RHS, counters, generation stamp) without touching the threads — the
    persistent-pool reuse path. Workers are always parked at the start
    gate between epochs, so the parent owns the buffer whenever it
    writes.
    """

    def __init__(self, backend: "PoolSolver"):
        self.backend = backend
        P = backend.nproc
        A = backend.A
        geom = backend._geom()
        self.views = _views(_buffer(_layout(geom, P)[2]), geom, P)
        self.views["norms"][:] = backend._norms
        self.gate = _gate(self.views["control"], P)
        self.target = 0
        self.generation = 0
        self.sync_points = 0
        self.wall_time = 0.0
        self._errors: list = [None] * P
        # The kernel reads A's own CSR arrays (CSRMatrix stores them as
        # contiguous int64/float64), and each worker gets its own
        # binding of them and of the views; a bad layout raises here,
        # before any thread exists.
        arrays = dict(
            self.views, indptr=A.indptr, indices=A.indices,
            data=np.ascontiguousarray(A.data, dtype=np.float64),
        )
        kernel = {
            "offset": backend.offset, "project": backend.project,
            "atomic": backend.atomic, "beta": backend.beta,
            "adaptive": backend.adaptive, "key": backend.directions.key,
        }
        bindings = [
            (_native.RowSegment.bind(arrays, wid=wid, nproc=P, **kernel),
             _gate(self.views["control"], P))
            for wid in range(P)
        ]
        self.threads = []
        self._alive = True
        try:
            for wid, (run, gate) in enumerate(bindings):
                thread = threading.Thread(
                    target=_worker_main,
                    args=(wid, run, gate, self.views, self._errors),
                    name=f"{THREAD_NAME}-{backend.method_name}-{wid}",
                    daemon=True,
                )
                thread.start()
                self.threads.append(thread)
        except BaseException:
            # Stop the workers already started (parked at the start
            # gate): callers install their finally only after __init__
            # returns.
            self.stop()
            raise
        backend.spawn_count += 1

    def begin(self, x0: np.ndarray, b: np.ndarray) -> None:
        """Arm the pool for one call: publish iterate + RHS, zero the
        counters, bump the generation so workers rewind their streams.

        ``b`` may be narrower than the pool's ``capacity_k`` layout: the
        request occupies the first ``k`` columns, the spare columns are
        zeroed, and their active-mask slots are cleared so workers never
        gather into or scatter onto them — a changed ``k`` costs a
        memset, not a respawn."""
        backend = self.backend
        kreq = 1 if b.ndim == 1 else int(b.shape[1])
        cap = backend.capacity_k
        xv, bv, act = self.views["x"], self.views["b"], self.views["active"]
        xv[:, :kreq] = x0.reshape(backend.x_rows, kreq)
        bv[:, :kreq] = b.reshape(backend.b_rows, kreq)
        act[:kreq] = 1
        if kreq < cap:
            xv[:, kreq:] = 0.0
            bv[:, kreq:] = 0.0
            act[kreq:] = 0
        self.views["progress"][:] = 0
        self.views["row_nnz"][:] = 0
        self.views["col_updates"][:] = 0
        self.views["delay_sum"][:] = 0
        self.views["delay_max"][:] = 0
        self.views["delay_count"][:] = 0
        self.target = 0
        self.sync_points = 0
        self.wall_time = 0.0
        self.generation += 1
        ctrl = self.views["control"]
        ctrl[_CTRL_TARGET] = 0
        ctrl[_CTRL_GENERATION] = self.generation

    def refresh_sampling(self) -> None:
        """Recompute and publish the adaptive-sampling CDF.

        Called only while the parent owns the buffer (between gates);
        no-op for uniform pools. The weights are the residual weights
        plus ``_UNIFORM_BLEND`` times their mean on every row, so every
        row keeps strictly positive mass however concentrated the
        residual is (all rows weigh the same when the residual is zero).
        """
        if not self.backend.adaptive:
            return
        w = residual_weights(self.backend.A, self.views)
        mean = float(w.mean())
        if mean > 0:
            # Blend with a uniform component: the weights go stale over
            # a whole epoch, and a pure residual distribution starves
            # the rows it has already visited (their residual is zero
            # *now*, but neighbouring updates re-raise it mid-epoch).
            # The blend keeps every row sampled at a bounded fraction
            # of its uniform rate while still biasing toward rows with
            # residual mass left to remove.
            w = w + _UNIFORM_BLEND * mean
        else:
            w = np.ones_like(w)
        c = np.cumsum(w)
        c /= c[-1]
        c[-1] = 1.0
        self.views["cdf"][:] = c

    def _fail(self, message: str, cause: BaseException | None = None):
        self.stop()
        raise ModelError(message) from cause

    def _await_end(self, start: float) -> None:
        """Wait at the end gate in slices of ``_GATE_SLICE`` seconds.

        The solve fails, and the pool is stopped, once a worker reported
        an exception or once the epoch started at ``start``
        (``perf_counter`` seconds) has outlasted ``barrier_timeout``.
        """
        control = self.views["control"]
        timeout = self.backend.barrier_timeout
        while True:
            state = self.gate.wait_end(_GATE_SLICE)
            if state > 0:
                return
            reported = int(control[_CTRL_ERROR])
            if reported > 0:
                exc = self._errors[reported - 1]
                self._fail(
                    f"worker {reported - 1} crashed mid-epoch ({exc!r})", exc
                )
            if time.perf_counter() - start > timeout:
                self._fail(
                    f"an epoch outlasted barrier_timeout ({timeout:g} s): "
                    "a worker stalled"
                )

    def advance(self, additional_updates: int) -> None:
        """Run one asynchronous segment of ``additional_updates`` commits,
        from the start gate to the end gate (all writes visible)."""
        self.refresh_sampling()
        self.target += int(additional_updates)
        ctrl = self.views["control"]
        ctrl[_CTRL_COMMAND] = _CMD_RUN
        ctrl[_CTRL_TARGET] = self.target
        start = time.perf_counter()
        self.gate.open()
        self._await_end(start)  # the epoch's updates are all visible now
        self.wall_time += time.perf_counter() - start
        self.sync_points += 1

    def x(self) -> np.ndarray:
        return self.views["x"]

    def retire_columns(self, cols: np.ndarray) -> None:
        """Drop columns from the active set. Must only be called between
        an end gate and the next start gate (the parent owns the buffer
        there), so workers never observe a mid-segment change."""
        self.views["active"][cols] = 0

    def column_updates(self) -> int:
        """Σ over commits of the number of columns actually refreshed."""
        return int(self.views["col_updates"].sum())

    def delay_stats(self) -> DelayStats:
        counts = self.views["delay_count"].copy()
        total = int(counts.sum())
        samples = np.concatenate(
            [self.views["delay_log"][w, : min(int(c), LOG_CAPACITY)] for w, c in enumerate(counts)]
        ) if total else np.empty(0, dtype=np.int64)
        return DelayStats(
            count=total,
            mean=float(self.views["delay_sum"].sum() / total) if total else 0.0,
            max=int(self.views["delay_max"].max(initial=0)),
            samples=samples,
        )

    def per_worker(self) -> list[int]:
        return [int(c) for c in self.views["progress"]]

    def total_row_nnz(self) -> int:
        return int(self.views["row_nnz"].sum())

    def stop(self) -> None:
        """Shut the pool down (idempotent): release the workers through
        the start gate with STOP (a worker still in its segment sees it
        when it arrives) and join them, for at most ``barrier_timeout``
        in all. A worker that outlives the join ends at its next gate
        on its own bindings."""
        if not self._alive:
            return
        self._alive = False
        self.views["control"][_CTRL_COMMAND] = _CMD_STOP
        self.gate.open()
        deadline = time.monotonic() + self.backend.barrier_timeout
        for thread in self.threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self.gate.release()


class PoolSolver:
    """Method-independent persistent-pool solver base.

    A concrete solver (``ProcessAsyRGS``, ``AsyRK``) validates its
    system, derives the layout geometry and per-row normalizers, then
    hands everything here. This class owns the pool lifecycle
    (context-manager persistence, one-shot fallback, crash recovery),
    request plumbing (capacity-k checks, request-shaped views), the
    free-running :meth:`run`, and :meth:`solve`, which runs the shared
    epoch driver (:func:`~repro.execution.epochs.solve_epochs`) on the
    pool.

    The pool is an epoch engine in the driver's sense: ``begin(x0, b)``
    arms one call, ``advance(updates)`` runs one segment between the
    start and end gates, ``x()`` is the shared iterate block, ``retire_columns``
    clears slots of the shared active mask, and the counters
    (``per_worker()``, ``sync_points``, ``wall_time``,
    ``total_row_nnz()``, ``column_updates()``, ``delay_stats()``) come
    from the buffer. A subclass sets :attr:`method_name`, and
    :attr:`project` or :attr:`offset` where it differs from plain
    AsyRGS (see the module docstring), calls ``__init__`` with the
    prepared system, and implements :meth:`_tracker`, its per-column
    convergence measure (a :class:`~repro.execution.epochs.ColumnFold`).
    Construction raises :class:`ModelError` where the native kernel is
    unavailable (:func:`require_kernel`).

    The pool options are declared here once; every solver built on the
    pool forwards them unchanged.

    Parameters
    ----------
    nproc:
        Number of worker threads sharing the iterate.
    beta:
        Step size in ``(0, 2)``.
    atomic:
        ``True`` adds each coordinate write with a compare-exchange
        (Assumption A-1); the default writes plainly — the paper's
        non-atomic experiment.
    directions:
        Shared direction stream; defaults to seed 0. The union of
        directions consumed by the workers equals this stream's serial
        prefix, epoch by epoch.
    adaptive:
        ``True`` reweights direction draws by per-row residual mass at
        every epoch boundary (composes with a custom ``directions``
        stream); the default uniform mode is the paper's sampling,
        bit for bit.
    barrier_timeout:
        Seconds an epoch may take to reach its end gate before the pool
        is declared wedged (the pool is stopped and the next call
        respawns it). A worker that raised fails the solve at once.
    capacity_k:
        Column capacity of the shared iterate/RHS layout (default: the
        constructor ``b``'s width). Any ``run()``/``solve()`` call may
        pass a ``b=`` of width ``k ≤ capacity_k`` and the live pool
        serves it without a respawn — spare columns are masked out of
        the shared active set. Must be at least the constructor ``b``'s
        width.

    The write-log capacity is the module constant :data:`LOG_CAPACITY`.
    """

    method_name = "pool"
    #: The scatter rule: ``False`` relaxes coordinate ``offset + r``,
    #: ``True`` projects onto equation ``r``.
    project = False
    #: Iterate row of local draw 0 (a shard's first owned row).
    offset = 0

    def __init__(
        self,
        A,
        b: np.ndarray,
        norms: np.ndarray,
        *,
        n_rows: int,
        x_rows: int,
        b_rows: int,
        nproc: int,
        beta: float = 1.0,
        atomic: bool = False,
        directions: DirectionStream | None = None,
        adaptive: bool = False,
        barrier_timeout: float = BARRIER_TIMEOUT,
        capacity_k: int | None = None,
    ):
        require_kernel()
        nproc = int(nproc)
        if nproc < 1:
            raise ModelError(f"nproc must be at least 1, got {nproc}")
        self.A = A
        self.b = b
        self.n_rows = int(n_rows)
        self.x_rows = int(x_rows)
        self.b_rows = int(b_rows)
        self.k = 1 if b.ndim == 1 else int(b.shape[1])
        if self.k < 1:
            raise ShapeError(rhs_empty_message())
        if capacity_k is None:
            self.capacity_k = self.k
        else:
            self.capacity_k = int(capacity_k)
            if self.capacity_k < 1:
                raise ModelError(
                    f"capacity_k must be at least 1, got {capacity_k}"
                )
            if self.capacity_k < self.k:
                raise ModelError(
                    f"capacity_k={self.capacity_k} is narrower than the "
                    f"constructor RHS block ({self.k} columns); the layout "
                    "must fit the widest request"
                )
        self._norms = norms
        self.nproc = nproc
        self.beta = float(beta)
        if not 0.0 < self.beta < 2.0:
            raise ModelError(f"step size beta must lie in (0, 2), got {self.beta}")
        self.atomic = bool(atomic)
        self.adaptive = bool(adaptive)
        self.directions = (
            directions if directions is not None
            else DirectionStream(self.n_rows, seed=0)
        )
        if self.directions.n != self.n_rows:
            raise ModelError("direction stream dimension mismatch")
        self.barrier_timeout = float(barrier_timeout)
        self._pool: _WorkerPool | None = None
        self._persistent = False
        self.spawn_count = 0  # pools spawned over this solver's lifetime

    def _geom(self):
        return (self.n_rows, self.x_rows, self.b_rows, self.capacity_k)

    def _tracker(self, x0: np.ndarray, b: np.ndarray, tol: float):
        raise NotImplementedError  # pragma: no cover - subclass contract

    # -- pool lifecycle -------------------------------------------------

    def __enter__(self):
        self._persistent = True
        self._ensure_pool()
        return self

    def open(self):
        """Enter persistent-pool mode without a ``with`` block: start the
        workers now, serve every subsequent call from
        the live pool. Pair with :meth:`close` — long-lived owners (the
        solver server) cannot scope the pool to a lexical block."""
        return self.__enter__()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        pool, self._pool = self._pool, None
        self._persistent = False
        if pool is not None:
            pool.stop()

    @property
    def pool_active(self) -> bool:
        """Whether a persistent pool is currently alive."""
        pool = self._pool  # one read: _release_pool may null it concurrently
        return pool is not None and pool._alive

    def _ensure_pool(self) -> _WorkerPool:
        if self._pool is None or not self._pool._alive:
            self._pool = _WorkerPool(self)
        return self._pool

    def _acquire_pool(self) -> tuple[_WorkerPool, bool]:
        """The pool to serve one call, and whether to stop it afterwards."""
        if self._persistent:
            return self._ensure_pool(), False
        return _WorkerPool(self), True

    def _release_pool(self, pool: _WorkerPool, oneshot: bool, failed: bool) -> None:
        if oneshot:
            pool.stop()
            return
        if failed or not pool._alive:
            # A failure can leave workers mid-epoch, out of step with the
            # parent's gates — unusable. Drop the pool; the next
            # call respawns (visible through spawn_count, honestly).
            if pool is self._pool:
                self._pool = None
            pool.stop()

    @contextmanager
    def _engine(self):
        """The pool serving one call, released (and dropped on failure)
        when the call ends."""
        pool, oneshot = self._acquire_pool()
        failed = True
        try:
            yield pool
            failed = False
        finally:
            self._release_pool(pool, oneshot, failed)

    # -- per-call plumbing ----------------------------------------------

    def _check_b(self, b: np.ndarray | None) -> np.ndarray:
        """The request's right-hand side: the constructor default, or a
        per-call override of any width ``k ≤ capacity_k`` (the shared
        wording table covers dtype/ndim/rows/capacity violations)."""
        if b is None:
            return self.b
        return check_rhs(b, self.b_rows, capacity=self.capacity_k)

    def _check_x0(self, x0: np.ndarray | None, b: np.ndarray) -> np.ndarray:
        """The request's initial iterate: ``x_rows`` rows, ``b``'s width."""
        shape = (self.x_rows,) + b.shape[1:]
        if x0 is None:
            return np.zeros(shape)
        return check_x0(x0, shape)

    def run(
        self,
        x0: np.ndarray | None,
        num_iterations: int,
        *,
        b: np.ndarray | None = None,
    ) -> ProcessRunResult:
        """One free-running asynchronous segment of ``num_iterations``
        commits — the regime of Theorem 2(b) (no interior gates).

        ``b=`` overrides the right-hand side for this call only. Any
        width ``k ≤ capacity_k`` is served by the live pool without a
        respawn; the result is shaped like the ``b`` of this call.
        """
        num_iterations = int(num_iterations)
        if num_iterations < 0:
            raise ModelError("num_iterations must be non-negative")
        b = self._check_b(b)
        x0 = self._check_x0(x0, b)
        with self._engine() as pool:
            pool.begin(x0, b)
            if num_iterations:
                pool.advance(num_iterations)
            return ProcessRunResult(
                x=request_view(pool.x(), b).copy(),
                converged=False,
                atomic=self.atomic,
                sweeps_done=num_iterations // self.n_rows,
                **engine_counts(pool),
            )

    def solve(
        self,
        tol: float,
        max_sweeps: int,
        x0: np.ndarray | None = None,
        *,
        sync_every_sweeps: int = 1,
        metric=None,
        b: np.ndarray | None = None,
        retire: bool | None = None,
    ) -> ProcessRunResult:
        """Solve to tolerance with the epoch scheme of Theorem 2's
        discussion: ``sync_every_sweeps · n_rows`` asynchronous commits,
        a real synchronization (the end gate), a residual check on the
        shared iterate, repeat.

        Convergence is judged **per column** by the method's tracker
        (relative residual for AsyRGS, normal-equations residual for
        AsyRK): the run stops when every column sits below ``tol``.
        With ``retire`` (the default), a column that reaches ``tol`` is
        *retired* at that epoch boundary — the shared active-column mask
        shrinks and subsequent row gathers scatter only into the
        still-active columns, so a skewed block stops paying for its
        easy labels. Retirement only ever happens at synchronization
        points, never mid-segment. ``retire=False`` keeps updating every
        column (same convergence criterion, more work).

        A custom ``metric`` restores the aggregate-only criterion
        (``metric(x) < tol``); it cannot be decomposed per column, so
        combining it with ``retire=True`` raises.

        ``b=`` overrides the right-hand side for this call only; any
        width ``k ≤ capacity_k`` reuses the live pool, and ``x0``/the
        result are shaped to ``x_rows`` rows at the ``b``'s width."""
        b = self._check_b(b)
        x0 = self._check_x0(x0, b)
        return solve_epochs(
            self._engine(),
            self._tracker,
            x0,
            b,
            tol=tol,
            max_sweeps=max_sweeps,
            sync_every_sweeps=sync_every_sweeps,
            metric=metric,
            retire=retire,
            n_rows=self.n_rows,
            workers=self.nproc,
            atomic=self.atomic,
        )


def available_cpus() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

"""Solver-agnostic shared-memory worker-pool core.

This module is the method-independent half of what used to be
``execution/processes.py``: the one-segment ``SharedMemory`` layout and
zero-copy views, worker attach/crash attribution, the epoch gates
(control words, cumulative update targets, generation stamps for pool
reuse), per-worker Philox direction streams, the delay
write-log, per-column retirement, and the persistent-pool lifecycle
(:class:`PoolSolver`).

What a concrete solver contributes is its system geometry, its per-row
normalizers, and the two knobs of the one per-draw step (Algorithm 1,
lines 5–7): gather row ``r`` from the live shared iterate (no snapshot
— the inconsistent-read regime), form ``γ = (b[r] − A_r·x)/norms[r]``
over the active columns, scatter. One row gather serves every active
column (the paper's 51-RHS amortization). The pool core owns
everything around it: direction draws, progress ticketing, the
staleness write-log, and both gates.

The step
--------
Each worker runs one epoch segment (its draws between a start gate and
an end gate) in one call of the native kernel (``row_segment`` in
``repro/_native/csr.c``, bound once per worker by
:class:`repro._native.RowSegment`): it draws, updates and logs every
draw of the segment. The kernel is the pools' only path. Where it
cannot be built (no cffi, no C compiler) or is switched off
(``repro._native.enabled``), :func:`require_kernel` refuses a pool at
construction, before any shared memory or process exists, and
:func:`~repro.execution.check_solver` refuses it at registration.
Workers use the module the parent loaded (inherited through ``fork``,
read from the cache under ``spawn``).

The gates
---------
An epoch is bracketed by two gates on words of the segment's control
block, bound by :class:`repro._native.Gate`: the parent opens the start
gate (it bumps a generation word and wakes the workers), and each
worker adds itself to an arrival word when its segment is done, the
last one waking the parent at the end gate. On Linux both sides sleep
on a futex of the shared word, with no spin phase; elsewhere they poll
with short sleeps. Each wait is a native call that releases the GIL and
returns after at most ``_GATE_SLICE`` seconds, and between slices each
side looks around:

* the parent fails the solve with :class:`ModelError` once a worker
  reported an exception (the error flag, which also opens the end
  gate), once a worker process is dead (killed by a signal, say), or
  once the epoch has outlasted ``barrier_timeout``;
* a worker parked at the start gate exits once the parent sets STOP or
  is gone itself.

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
The layout is parameterized by ``(n_rows, x_rows, b_rows, nnz, k)``:
``n_rows`` is the number of CSR rows (the direction space — every draw
picks a row), ``x_rows``/``b_rows`` the row counts of the shared
iterate and RHS blocks. For AsyRGS all three equal ``n``; for AsyRK on
an ``m × n`` operator they are ``m, n, m``.

Adaptive direction sampling
---------------------------
With ``adaptive=True``, the parent recomputes residual-proportional
row weights at every epoch boundary — while it owns the segment — and
publishes their CDF into a dedicated shared slot. Workers map each
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
import signal
import time
import traceback
from contextlib import contextmanager

import multiprocessing
from multiprocessing import shared_memory

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
            "process pools run on the native segment kernel, which is "
            "switched off or cannot be built here; it needs cffi and a "
            "working C compiler"
        )


def _layout(geom, nproc: int):
    """Offsets and dtypes of every shared array inside the one segment.

    ``geom`` is ``(n_rows, x_rows, b_rows, nnz, k)`` — see the module
    docstring. ``norms`` holds the method's per-row normalizers (the
    diagonal for AsyRGS, squared row norms for AsyRK) and ``cdf`` the
    adaptive-sampling CDF (written only in adaptive mode, always
    allocated: 8 bytes per row keeps the layout uniform).
    """
    n_rows, x_rows, b_rows, nnz, k = geom
    specs = {
        "data": (np.float64, (nnz,)),
        "indices": (np.int64, (nnz,)),
        "indptr": (np.int64, (n_rows + 1,)),
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
    """Exact shared-memory segment size (bytes) of one pool with this
    geometry — the number ``shm_limit`` is checked against. The bench
    uses it to demonstrate a system whose single-pool layout exceeds a
    budget that every shard's layout fits."""
    geom = (int(n_rows), int(x_rows), int(b_rows), int(nnz), int(capacity_k))
    return int(_layout(geom, int(nproc))[2])


def _views(
    shm: shared_memory.SharedMemory, geom, nproc: int
) -> dict[str, np.ndarray]:
    """Zero-copy NumPy views of every shared array in the segment."""
    specs, offsets, _ = _layout(geom, nproc)
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offsets[name])
        for name, (dtype, shape) in specs.items()
    }


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for cleanup.

    Until Python 3.13 (``track=False``) every attach re-registers the
    segment with the shared resource tracker, which then sees more
    unregisters than registers once several workers attach the same
    name. Only the parent owns the segment's lifetime, so workers
    suppress tracker registration entirely (worker processes never
    create shared resources of their own).
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.register = lambda name, rtype: None
    except Exception:
        pass
    return shared_memory.SharedMemory(name=name)


def residual_weights(A, v: dict[str, np.ndarray]) -> np.ndarray:
    """Per-row adaptive sampling weights from the live shared segment
    (``A`` is the pool's operator, whose CSR the segment holds).

    The weight of row ``r`` is ``Σ_j |b[r,j] − (A x_j)[r]|`` over the
    active columns — the residual mass a draw of ``r`` can remove. The
    formula is geometry-agnostic: for AsyRGS rows are coordinates, for
    AsyRK rows are equations, and in both layouts ``b`` has one row per
    direction. Called by the parent only (between an end gate and the
    next start gate, when it owns the segment).
    """
    act = np.flatnonzero(v["active"] != 0)
    if act.size == 0:
        return np.ones(v["norms"].shape[0])
    return np.abs(v["b"][:, act] - A.matmat(v["x"][:, act])).sum(axis=1)


def _gate(control: np.ndarray, nproc: int):
    """The epoch gates on the segment's ``control`` words."""
    return _native.Gate.bind(
        control, error=_CTRL_ERROR, start=_CTRL_START,
        arrived=_CTRL_ARRIVED, nproc=nproc,
    )


def _worker_main(
    wid: int,
    nproc: int,
    shm_name: str,
    geom,
    kernel: dict,
) -> None:
    """Worker entry point: attach, run the epoch loop, clean up."""
    # Workers are torn down by the parent through the control word,
    # never by signals: a terminal ^C or a supervisor's TERM is
    # delivered to the whole process group, and a worker that died of
    # it would fail the solve it serves. The parent escalates to
    # SIGKILL when a worker genuinely must die.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main thread (in-process use)
        pass
    shm = _attach(shm_name)
    gate = _gate(_views(shm, geom, nproc)["control"], nproc)
    try:
        _worker_loop(wid, nproc, shm, geom, kernel, gate)
    except Exception:  # pragma: no cover - exercised only on worker crashes
        traceback.print_exc()
        # Name *this* worker (wid + 1, so 0 keeps meaning "no error";
        # the first reporter wins) and open the end gate: the parent
        # fails the solve at once instead of waiting out its timeout.
        gate.fail(wid + 1)
    finally:
        gate.release()  # before the shared memory under it is closed
        try:
            shm.close()
        except BufferError:  # pragma: no cover - stray view refs at exit
            pass


def _worker_loop(
    wid: int,
    nproc: int,
    shm: shared_memory.SharedMemory,
    geom,
    kernel: dict,
    gate,
) -> None:
    """Worker body: epochs of randomized updates on the shared iterate.

    The loop outlives any single ``run()``/``solve()`` call: a change of
    the generation stamp at the start gate rewinds the worker's position
    in the direction stream to 0, so one pool serves many calls. Each
    epoch segment is one call of the native kernel, bound to the views
    once with the solver's ``kernel`` parameters, between the start gate
    and the worker's arrival at the end gate; the gates and the
    segment's target are method independent. Parked at the start gate,
    the worker looks around every ``_GATE_SLICE`` seconds and leaves once
    the parent has stopped the pool or is gone.
    """
    v = _views(shm, geom, nproc)
    control, active = v["control"], v["active"]
    run = _native.RowSegment.bind(v, wid=wid, nproc=nproc, **kernel)
    if run is None:  # pragma: no cover - the parent loaded the module
        raise RuntimeError("the native module did not load in this worker")
    parent = multiprocessing.parent_process()
    seen = 0  # the start gate's generation when the pool was set up
    done = 0
    generation = 0
    try:
        while True:
            opened = gate.wait_start(seen, _GATE_SLICE)
            if opened == seen:  # a slice without an epoch
                if control[_CTRL_COMMAND] == _CMD_STOP or not parent.is_alive():
                    break
                continue
            seen = opened
            if control[_CTRL_COMMAND] == _CMD_STOP:
                break
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
            # them only while it owns the segment (between the end gate
            # and the next start gate), so they never change
            # mid-segment — Theorem 2's segment structure is preserved,
            # the segments just narrow.
            done = run(active.nonzero()[0], done, target)
            gate.arrive()  # end gate: all updates of the epoch are visible
    finally:
        run.release()  # before the shared memory under it is closed


def _death(exitcode: int) -> str:
    """How a process with this ``exitcode`` ended, in words."""
    if exitcode >= 0:
        return f"exited with code {exitcode}"
    try:
        return f"killed by {signal.Signals(-exitcode).name}"
    except ValueError:
        return f"killed by signal {-exitcode}"


class _WorkerPool:
    """A live worker pool over one shared segment (epoch-stepped).

    Spawning the pool copies the CSR into shared memory and starts the
    worker processes; :meth:`begin` then prepares the segment for one
    ``run()``/``solve()`` call (iterate, RHS, counters, generation
    stamp) without touching the processes — the persistent-pool reuse
    path. Workers are always parked at the start gate between epochs,
    so the parent owns the segment whenever it writes.
    """

    def __init__(self, backend: "PoolSolver"):
        self.backend = backend
        P = backend.nproc
        A = backend.A
        self._shm = shared_memory.SharedMemory(
            create=True,
            size=_layout(backend._geom(), P)[2],
        )
        self.target = 0
        self.generation = 0
        self.sync_points = 0
        self.wall_time = 0.0
        self.procs = []
        self._alive = True
        try:
            self._setup(backend, P, A)
        except BaseException:
            # Kill the workers already started (parked at the start gate)
            # and free the segment: callers install their finally only
            # after __init__ returns.
            self._kill()
            raise

    def _setup(self, backend: "PoolSolver", P: int, A) -> None:
        self.views = _views(self._shm, backend._geom(), P)
        self.views["data"][:] = A.data
        self.views["indices"][:] = A.indices
        self.views["indptr"][:] = A.indptr
        self.views["norms"][:] = backend._norms
        self.views["control"][:] = 0
        backend.csr_copies += 1
        ctx = backend._ctx
        self.gate = _gate(self.views["control"], P)
        kernel = {
            "offset": backend.offset, "project": backend.project,
            "atomic": backend.atomic, "beta": backend.beta,
            "adaptive": backend.adaptive, "key": backend.directions.key,
        }
        self.procs = [
            ctx.Process(
                target=_worker_main,
                args=(wid, P, self._shm.name, backend._geom(), kernel),
                name=f"{backend.method_name}-proc-{wid}",
                daemon=True,
            )
            for wid in range(P)
        ]
        for p in self.procs:
            p.start()
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

        Called only while the parent owns the segment (between gates);
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

    def _fail(self, message: str):
        self._kill()
        raise ModelError(message)

    def _await_end(self, start: float) -> None:
        """Wait at the end gate in slices of ``_GATE_SLICE`` seconds.

        The solve fails, and the workers are killed, once a worker
        reported an exception, once a worker process is dead, or once
        the epoch started at ``start`` (``perf_counter`` seconds) has
        outlasted ``barrier_timeout``.
        """
        control = self.views["control"]
        while True:
            state = self.gate.wait_end(_GATE_SLICE)
            if state > 0:
                return
            reported = int(control[_CTRL_ERROR])
            if reported > 0:
                self._fail(
                    f"worker process {reported - 1} crashed (reported an "
                    "exception mid-epoch)"
                )
            for wid, proc in enumerate(self.procs):
                if proc.exitcode is not None:
                    self._fail(
                        f"worker process {wid} crashed "
                        f"({_death(proc.exitcode)} mid-epoch)"
                    )
            if time.perf_counter() - start > self.backend.barrier_timeout:
                self._fail("a worker process crashed or stalled")

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
        an end gate and the next start gate (the parent owns the segment
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

    def _kill(self) -> None:
        for p in self.procs:
            if p.is_alive():
                p.kill()  # workers ignore SIGTERM; escalation is SIGKILL
        self._join_and_free()

    def stop(self) -> None:
        """Orderly shutdown: release workers through the start gate with
        STOP (a worker still in its segment sees it when it arrives)."""
        if not self._alive:
            return
        self.views["control"][_CTRL_COMMAND] = _CMD_STOP
        self.gate.open()
        self._join_and_free()

    def _join_and_free(self) -> None:
        if not self._alive:
            return
        self._alive = False
        for p in self.procs:
            p.join(timeout=self.backend.barrier_timeout)
            if p.is_alive():  # pragma: no cover
                p.kill()  # workers ignore SIGTERM; escalation is SIGKILL
                p.join()
        if hasattr(self, "views"):
            del self.views
        if getattr(self, "gate", None) is not None:
            self.gate.release()  # before the shared memory under it is closed
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray view refs
            pass
        self._shm.unlink()


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
    from the segment. A subclass sets :attr:`method_name`, and
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
        Number of worker processes sharing the iterate.
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
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` (fast,
        POSIX) and falls back to the platform default.
    barrier_timeout:
        Seconds an epoch may take to reach its end gate before the pool
        is declared wedged. A dead worker fails the solve sooner, within
        one gate slice (0.1 s).
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
        start_method: str | None = None,
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
        if start_method is None:
            start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        self._ctx = multiprocessing.get_context(start_method)
        self.barrier_timeout = float(barrier_timeout)
        self._pool: _WorkerPool | None = None
        self._persistent = False
        self.spawn_count = 0  # pools spawned over this solver's lifetime
        self.csr_copies = 0  # CSR copies into shared memory (once per pool)

    def _geom(self):
        return (self.n_rows, self.x_rows, self.b_rows, self.A.nnz, self.capacity_k)

    def _tracker(self, x0: np.ndarray, b: np.ndarray, tol: float):
        raise NotImplementedError  # pragma: no cover - subclass contract

    # -- pool lifecycle -------------------------------------------------

    def __enter__(self):
        self._persistent = True
        self._ensure_pool()
        return self

    def open(self):
        """Enter persistent-pool mode without a ``with`` block: spawn the
        workers and copy the CSR now, serve every subsequent call from
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

    def worker_pids(self) -> list[int]:
        """PIDs of the live persistent pool's workers (empty when none).

        Safe to call from any thread: the pool reference is read once,
        so a concurrent failure-path ``_release_pool`` (which nulls
        ``_pool``) yields ``[]`` or the old PIDs, never a crash.
        """
        pool = self._pool
        if pool is None or not pool._alive:
            return []
        return [p.pid for p in pool.procs]

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

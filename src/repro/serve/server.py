"""The solver server: a request queue + batcher over one persistent pool.

This is the subsystem that completes the paper's serving story. The
headline workload (Section 9) amortizes one Gram matrix across 51 label
right-hand sides; the persistent :class:`~repro.execution.ProcessAsyRGS`
pool already amortizes worker-thread start and buffer setup across *calls*,
and the capacity-k layout lets one pool serve any request width
``k ≤ capacity_k``. What was missing is something that accepts *many
independent requests* — single vectors and blocks, from many client
threads — and multiplexes them onto that one pool. The wire front
doors (:mod:`repro.serve.frontend`) reach it through a
:class:`~repro.serve.MatrixRegistry`, which builds one server per
resident matrix.

Architecture
------------
One dispatcher thread owns the pool. Clients call
:meth:`SolverServer.submit` (thread-safe, returns a
:class:`RequestHandle` future) or the blocking convenience
:meth:`SolverServer.solve`. The dispatcher pops requests in FIFO order
and **coalesces compatible single-RHS requests into one block solve**:
requests with the same ``(tol, max_sweeps, sync_every_sweeps)`` key are
column-stacked, solved simultaneously (one row gather per update serves
the whole batch — exactly the paper's multi-label amortization), and
sliced back into per-request results. The per-column convergence
machinery does the fairness work: every request in a batch retires
independently the epoch *its* column reaches *its* tolerance, so an easy
request pays nothing for a slow-converging neighbor beyond sharing the
batch's wall clock, and its reported ``sweeps`` is its own retirement
epoch.

Batching
--------
``max_batch`` bounds how many singles one solve may carry (at most the
pool's ``capacity_k``); once a batch has an occupant the dispatcher
lingers at most ``max_wait`` seconds for stragglers (0 disables
lingering). Block requests (``b`` with ``k > 1`` columns) run as their
own batch. FIFO order plus the bounded batch means no request starves:
an incompatible request simply starts the next batch.

Failure containment
-------------------
A worker crash mid-batch (the pool raises
:class:`~repro.exceptions.ModelError`, naming the worker id) fails
**only the requests of that batch** — each of their handles raises a
:class:`~repro.exceptions.ServeError` chaining the engine error — and
the server keeps serving: the broken pool is dropped and the next batch
respawns it (visible in :attr:`SolverServer.spawn_count`, honestly).

Observability
-------------
The server keeps its counters (requests, batches, queue-depth
high-water mark, latency mean/max) in one
:class:`~repro.serve.metrics.ServerStats` record, written under the
lock it already takes per request and per batch.
:meth:`SolverServer.stats` copies that record and adds the live pool's
state: spawn count and per-shard updates. Each field is declared once,
in :mod:`repro.serve.metrics`, together with how snapshots fold and how
``GET /v1/metrics`` renders it.

Testability
-----------
All scheduling primitives (clock, queue, events, locks, the dispatcher
thread) come from an injectable :mod:`~repro.serve.runtime`, and the
backing pool from an injectable ``solver_factory``. The deterministic
simulation harness (``tests/serve/simtest``) substitutes a virtual-clock
scheduler and an in-process fake pool, driving this exact dispatcher
logic through thousands of seeded interleavings per CI run with zero
wall-clock sleeps; production servers pay nothing — the default runtime
is the real stdlib primitives.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, replace

import numpy as np

from ..exceptions import ModelError, ServeError
from ..execution import check_solver, make_solver
from ..execution.epochs import check_epoch_args
from ..rng import DirectionStream
from ..sparse import CSRMatrix
from ..validation import check_rhs, check_x0
from .cache import rhs_fingerprint
from .metrics import ServerStats
from .protocol import mint_trace_id
from .runtime import THREAD_RUNTIME

__all__ = ["SolverServer", "RequestHandle", "ServedResult", "ServerStats"]

_SHUTDOWN = object()


def check_max_wait(max_wait) -> float:
    """The linger window as a float, refused with :class:`ServeError`
    unless ``queue.get`` can wait that long: NaN, negative and
    above-``threading.TIMEOUT_MAX`` windows (``inf`` among them) would
    otherwise kill the dispatcher mid-gather."""
    value = float(max_wait)
    if not 0.0 <= value <= threading.TIMEOUT_MAX:  # False for NaN too
        raise ServeError(
            f"max_wait must be between 0 and {threading.TIMEOUT_MAX:g} "
            f"seconds, got {max_wait!r}"
        )
    return value


@dataclass(frozen=True)
class _BatchKey:
    """Solve parameters that must match for requests to share a batch."""

    tol: float
    max_sweeps: int
    sync_every_sweeps: int


class _Pending:
    """One queued request: inputs, completion event, and timestamps.

    The event and the timestamp come from the server's runtime, so a
    simulated server's requests complete on simulated events and carry
    virtual-clock latencies.
    """

    __slots__ = (
        "request_id", "b", "x0", "key", "event", "result", "error",
        "enqueued_at", "trace_id", "warm", "fingerprint",
    )

    def __init__(self, request_id, b, x0, key, event, now, trace_id,
                 warm=False, fingerprint=None):
        self.request_id = request_id
        self.b = b
        self.x0 = x0
        self.key = key
        self.event = event
        self.result: ServedResult | None = None
        self.error: BaseException | None = None
        self.enqueued_at = now
        self.trace_id = trace_id
        self.warm = warm  # x0 seeded from the solution cache?
        self.fingerprint = fingerprint  # rhs_fingerprint(b), if cached


@dataclass
class ServedResult:
    """Outcome of one served request — its private slice of the batch.

    Attributes
    ----------
    request_id:
        The id the request was submitted under.
    x:
        Final iterate, shaped like the request's ``b``.
    converged:
        Whether every column of *this request* reached its tolerance.
    sweeps:
        For a single-RHS request: the epoch its column retired at (or
        the batch's total sweeps if it never converged). For a block
        request: the solve's total sweeps.
    residual:
        The request's worst per-column relative residual at the final
        synchronization point.
    column_converged / column_sweeps / column_residuals:
        Per-column detail for block requests (``None`` for singles).
    latency:
        Seconds from submission to completion (queue wait + solve).
    queue_wait:
        Seconds the request sat in the queue before its batch launched.
    batch_size:
        Number of requests its solve carried (1 for block requests).
    solve_wall:
        Wall-clock seconds of the batch's solve call.
    trace_id:
        The request's trace id — minted at submission (or at
        :func:`~repro.serve.protocol.parse_line` for wire traffic) and
        echoed in every response.
    """

    request_id: object
    x: np.ndarray
    converged: bool
    sweeps: int
    residual: float
    latency: float
    queue_wait: float
    batch_size: int
    solve_wall: float
    column_converged: np.ndarray | None = None
    column_sweeps: np.ndarray | None = None
    column_residuals: np.ndarray | None = None
    trace_id: object = None


class RequestHandle:
    """Future for one submitted request.

    ``result(timeout=None)`` blocks until the dispatcher finishes the
    request's batch, then returns its :class:`ServedResult` or raises
    the failure (a :class:`ServeError` chaining the engine error). A
    ``timeout`` elapsing raises :class:`ServeError` without cancelling
    the request — it may still complete later.
    """

    def __init__(self, pending: _Pending):
        self._pending = pending

    @property
    def request_id(self):
        return self._pending.request_id

    @property
    def trace_id(self):
        """The request's trace id (available before completion, so the
        failure path can echo it too)."""
        return self._pending.trace_id

    def done(self) -> bool:
        return self._pending.event.is_set()

    def result(self, timeout: float | None = None) -> ServedResult:
        if not self._pending.event.wait(timeout):
            raise ServeError(
                f"request {self._pending.request_id!r} did not complete "
                f"within {timeout:g}s (it is still queued or solving)"
            )
        if self._pending.error is not None:
            raise self._pending.error
        return self._pending.result


class SolverServer:
    """Multiplex concurrent solve requests over one persistent pool.

    Parameters
    ----------
    A:
        The resident system matrix (positive diagonal required). The
        pool's workers read its CSR arrays in place.
    nproc:
        Worker threads in the pool.
    capacity_k:
        Column capacity of the pool layout: the widest block request
        and the largest coalesced batch the server can carry.
    tol, max_sweeps, sync_every_sweeps:
        Server-wide solve defaults; every request may override them
        (overriding splits it into a different batch — only requests
        with identical solve parameters coalesce).
    max_batch:
        Cap on coalesced singles per solve (default: ``capacity_k``).
    max_wait:
        The linger window: seconds the dispatcher waits for additional
        compatible requests once a batch has its first occupant. 0
        disables lingering. NaN, negative values and values above
        ``threading.TIMEOUT_MAX`` raise :class:`ServeError`.
    method:
        The pool's update method: ``"asyrgs"`` (the default — square
        systems with a positive diagonal) or ``"asyrk"`` (asynchronous
        randomized Kaczmarz on rectangular least-squares systems).
        With ``"asyrk"`` requests carry an ``m``-row right-hand side
        and receive an ``n``-entry iterate (``A`` is ``m×n``); the
        coalescing, retirement, and failure-containment machinery is
        identical — one pool core serves both.
    shards:
        Row shards backing the matrix (default 1 — one plain pool,
        which :func:`~repro.execution.make_solver` builds directly).
        ``N > 1`` splits the matrix into N contiguous row blocks, each
        its own persistent pool (``nproc`` workers *per shard*),
        coordinated by the asynchronous halo-exchange loop of
        :class:`~repro.execution.ShardedSolver`. Each shard writes a
        private iterate instead of one shared one, which is faster on
        dense systems and no faster on the 2-D Laplacian (see
        :mod:`repro.execution.sharded`).
        Sharding requires ``method="asyrgs"``; the pools live and die
        together on eviction and crash. A ``(method, shards)``
        choice that :func:`~repro.execution.check_solver` refuses
        raises :class:`ServeError` here, before any pool exists.
    beta, atomic, directions, seed, barrier_timeout:
        Forwarded to the pool solver (see
        :func:`~repro.execution.make_solver`). The direction stream
        restarts from position 0 for every batch, so a request's
        trajectory is a pure function of the batch it rides in —
        repeated identical traffic is deterministic.
    cache, cache_key:
        An optional shared :class:`~repro.serve.cache.SolutionCache`. When
        present, a request submitted without ``x0`` is seeded from the
        cache's nearest same-matrix solution (``cache_key`` names this
        server's matrix in the shared cache: the
        :class:`~repro.serve.MatrixRegistry` passes each entry's name,
        and ``None`` means ``"default"``), and every
        successfully served solution is stored back. The cache only
        seeds ``x0`` — the solve still runs and judges its own
        convergence, so a hit saves sweeps but can never change an
        answer beyond the request's tolerance.
    runtime:
        The concurrency seam (clock, queue, event, lock, thread spawn);
        defaults to the real primitives
        (:data:`~repro.serve.runtime.THREAD_RUNTIME`). The deterministic
        simulation harness substitutes a virtual-clock scheduler here.
    solver_factory:
        Builds the backing pool; defaults to
        :func:`~repro.execution.make_solver`, with its signature:
        ``factory(method, A, zeros_block, shards=..., nproc=...,
        beta=..., atomic=..., directions=..., barrier_timeout=...,
        capacity_k=...)``. The simulation
        harness substitutes an in-process fake so dispatcher/gather/
        eviction logic runs under seeded schedules without starting
        pool workers.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        A: CSRMatrix,
        *,
        nproc: int,
        capacity_k: int = 8,
        tol: float = 1e-6,
        max_sweeps: int = 400,
        sync_every_sweeps: int = 10,
        max_batch: int | None = None,
        max_wait: float = 0.005,
        method: str = "asyrgs",
        shards: int = 1,
        beta: float = 1.0,
        atomic: bool = False,
        directions: DirectionStream | None = None,
        seed: int = 0,
        barrier_timeout: float = 300.0,
        cache=None,
        cache_key=None,
        runtime=None,
        solver_factory=None,
    ):
        capacity_k = int(capacity_k)
        try:
            shards = check_solver(method, shards)
        except ModelError as exc:
            raise ServeError(str(exc)) from exc
        self._runtime = THREAD_RUNTIME if runtime is None else runtime
        self._clock = self._runtime.monotonic
        # Request geometry: a right-hand side always has one entry per
        # *row* of A; the iterate has one entry per *column*. For AsyRGS
        # the matrix is square so the two coincide; for AsyRK they are
        # the rectangle's two sides.
        self.n = A.shape[0]
        self.x_rows = A.shape[1]
        self.capacity_k = capacity_k
        self.default_tol = float(tol)
        self.default_max_sweeps = int(max_sweeps)
        self.default_sync_every = int(sync_every_sweeps)
        self.max_batch = capacity_k if max_batch is None else min(int(max_batch), capacity_k)
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be at least 1, got {max_batch}")
        self.max_wait = check_max_wait(max_wait)
        if directions is None:
            directions = DirectionStream(self.n, seed=seed)
        self._cache = cache
        self._cache_key = "default" if cache_key is None else cache_key
        factory = make_solver if solver_factory is None else solver_factory
        self._solver = factory(
            method,
            A,
            np.zeros((self.n, capacity_k)),
            shards=shards,
            nproc=nproc,
            beta=beta,
            atomic=atomic,
            directions=directions,
            barrier_timeout=barrier_timeout,
            capacity_k=capacity_k,
        )
        self._queue = self._runtime.queue()
        self._lock = self._runtime.lock()
        self._closed = False
        self._broken: str | None = None  # why the dispatcher died, if it did
        self._stash: _Pending | None = None  # dispatcher-private
        self._stashed = 0  # lock-protected mirror of `_stash is not None`
        self._stop_after = False
        self._ids = itertools.count()
        # The counters, written under the lock; stats() copies them.
        self._counts = ServerStats(method=method, shards=shards)
        self._solver.open()  # start the worker threads exactly once
        self._dispatcher = self._runtime.spawn(
            self._loop, name="asyrgs-serve-dispatch"
        )

    # -- client API -----------------------------------------------------

    def __enter__(self) -> "SolverServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def submit(
        self,
        b: np.ndarray,
        *,
        tol: float | None = None,
        max_sweeps: int | None = None,
        sync_every_sweeps: int | None = None,
        x0: np.ndarray | None = None,
        request_id=None,
        trace_id=None,
    ) -> RequestHandle:
        """Enqueue one solve request (thread-safe) and return its handle.

        ``b`` may be a vector (eligible for coalescing) or an ``(n, k)``
        block with ``k ≤ capacity_k`` (always its own batch). ``tol`` /
        ``max_sweeps`` / ``sync_every_sweeps`` override the server
        defaults for this request; ``x0`` is the request's warm start
        (when omitted and a solution cache is attached, the cache may
        seed one). ``trace_id`` is the request's trace id — minted here
        when the caller (wire traffic mints at
        :func:`~repro.serve.protocol.parse_line`) did not supply one.

        ``b``, ``x0`` and the epoch arguments are checked here, with the
        solvers' own checks: a bad request raises before it is counted
        or queued, and never fails a batch.

        The payload is copied at submission: the request is not read
        until its batch launches (possibly much later), and a caller
        reusing its buffer must not retroactively change what is solved.
        """
        if trace_id is None:
            trace_id = mint_trace_id()
        b = np.array(check_rhs(b, self.n, capacity=self.capacity_k))
        tol, max_sweeps, sync_every, _ = check_epoch_args(
            self.default_tol if tol is None else tol,
            self.default_max_sweeps if max_sweeps is None else max_sweeps,
            self.default_sync_every
            if sync_every_sweeps is None
            else sync_every_sweeps,
        )
        if x0 is not None:
            x0 = np.array(check_x0(x0, (self.x_rows,) + b.shape[1:]))
        # Warm-start seeding: only when the caller brought no x0 of its
        # own. The cache lock is a leaf — taken here, outside the server
        # lock, never the other way around.
        warm = False
        fingerprint = None
        if self._cache is not None:
            fingerprint = rhs_fingerprint(b)  # once: lookup and store share it
            if x0 is None:
                x0 = self._cache.lookup(self._cache_key, b, fingerprint)
                warm = x0 is not None
        key = _BatchKey(
            tol=tol, max_sweeps=max_sweeps, sync_every_sweeps=sync_every
        )
        with self._lock:
            if self._broken is not None:
                raise ServeError(self._broken)
            if self._closed:
                raise ServeError("server is closed; no new requests accepted")
            if request_id is None:
                request_id = next(self._ids)
            pending = _Pending(
                request_id, b, x0, key, self._runtime.event(),
                self._clock(), trace_id, warm, fingerprint,
            )
            self._counts.requests_submitted += 1
            # `_stash` itself is dispatcher-private; `_stashed` is its
            # lock-protected occupancy mirror, so this read is ordered
            # against the dispatcher's stash transitions instead of
            # racing a foreign thread's plain attribute write.
            depth = self._queue.qsize() + 1 + self._stashed
            self._counts.max_queue_depth = max(
                self._counts.max_queue_depth, depth
            )
            self._queue.put(pending)
        return RequestHandle(pending)

    def solve(self, b: np.ndarray, *, timeout: float | None = None, **kwargs) -> ServedResult:
        """Submit and wait: the blocking single-request convenience."""
        return self.submit(b, **kwargs).result(timeout)

    def stats(self) -> ServerStats:
        """A consistent snapshot: the counters plus the live pool's
        spawn count and per-shard updates (kept by the sharded
        coordinator; other pools report none)."""
        shard_counts = getattr(self._solver, "shard_update_counts", list)
        with self._lock:
            return replace(
                self._counts,
                spawn_count=self._solver.spawn_count,
                shard_updates=[int(c) for c in shard_counts()],
            )

    @property
    def spawn_count(self) -> int:
        """Worker-pool spawns over the server's lifetime (1 = no respawn)."""
        return self._solver.spawn_count

    def close(self, timeout: float = 60.0) -> None:
        """Stop accepting requests, drain in-flight work, shut the pool
        down (idempotent). Requests still queued when the sentinel is
        reached fail with :class:`ServeError` rather than hanging.

        If the dispatcher is still mid-batch when ``timeout`` expires,
        the pool is deliberately left running and :class:`ServeError` is
        raised — tearing it down under a live solve would open its gates
        under the solve's feet and free the shared views mid-use.
        Calling ``close()`` again retries.

        A server whose dispatcher already died abnormally (see
        ``_shutdown_dispatch``) closes cleanly: the queue was drained
        when the dispatcher exited, so only the pool remains to stop.
        """
        with self._lock:
            already = self._closed
            self._closed = True
        if not already:
            self._queue.put(_SHUTDOWN)
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():
            raise ServeError(
                f"dispatcher did not drain within {timeout:g}s; the pool "
                "is left running — call close() again to retry"
            )
        self._solver.close()

    # -- dispatcher -----------------------------------------------------

    def _loop(self) -> None:
        cause = None
        try:
            while True:
                item = self._take_stash()
                if item is None:
                    item = self._queue.get()
                if item is _SHUTDOWN:
                    break
                batch = [item]
                try:
                    self._gather(batch)
                    self._run_batch(batch)
                except BaseException as exc:
                    # Only this batch fails. A worker crash surfaces as
                    # the backend's ModelError naming the worker id; the
                    # backend already dropped the broken pool, and the
                    # next batch respawns it (spawn_count records that
                    # honestly). Gathering, batch assembly and result
                    # slicing fail here too. The waiters must be
                    # released — a client blocked in result() with no
                    # timeout would hang forever — and the dispatcher
                    # must survive.
                    self._fail_batch(batch, exc)
                    if not isinstance(exc, Exception):
                        raise  # KeyboardInterrupt/SystemExit and kin
                if self._stop_after:
                    break
        except BaseException as exc:
            cause = exc
            raise
        finally:
            self._shutdown_dispatch(cause)

    def _take_stash(self) -> "_Pending | None":
        """Pop the stashed request (dispatcher only), keeping the
        lock-protected occupancy mirror in step for depth accounting."""
        item = self._stash
        if item is not None:
            self._stash = None
            with self._lock:
                self._stashed = 0
        return item

    def _shutdown_dispatch(self, cause: BaseException | None) -> None:
        """The dispatcher's exit path. A normal exit (shutdown sentinel)
        just drains; an abnormal one — the loop died of a
        non-``Exception`` ``BaseException`` — first marks the server
        broken, so queued requests and every later :meth:`submit` fail
        fast with a :class:`ServeError` naming the cause instead of
        enqueuing onto a queue nothing will ever pop again (a client
        blocked in ``result()`` with no timeout would hang forever).
        """
        error = None
        if cause is not None:
            reason = (
                "server is broken: the dispatcher died of "
                f"{type(cause).__name__}: {cause}"
            )
            # Close the intake *before* draining: submit() checks under
            # the same lock it enqueues under, so once this flag is set
            # no request can slip in behind the drain and wedge.
            with self._lock:
                self._closed = True
                self._broken = reason
            error = ServeError(reason)
            error.__cause__ = cause if isinstance(cause, Exception) else None
        self._drain(error)

    def _fail_batch(self, batch: list[_Pending], exc: BaseException) -> None:
        """Release every still-waiting member of a batch with the error
        (members already completed by _run_batch are left untouched)."""
        err = ServeError(f"batch of {len(batch)} request(s) failed: {exc}")
        err.__cause__ = exc if isinstance(exc, Exception) else None
        pending = [r for r in batch if not r.event.is_set()]
        with self._lock:
            self._counts.requests_failed += len(pending)
            # _run_batch counts only the batches it completes; a failed
            # one must still be counted once, or mean_batch_size
            # over-reports.
            self._counts.batches += 1
        for r in pending:
            r.error = err
            r.event.set()

    def _gather(self, batch: list[_Pending]) -> None:
        """FIFO coalescing: append compatible single-RHS requests behind
        the batch's first occupant until the batch is full, ``max_wait``
        elapses, or an incompatible request arrives (it is stashed,
        preserving order, and starts the next batch). ``batch`` is
        extended in place, so a failure here fails every request already
        taken off the queue with its batch."""
        first = batch[0]
        if first.b.ndim != 1:
            return  # block requests run alone
        deadline = self._clock() + self.max_wait
        while len(batch) < self.max_batch:
            remaining = deadline - self._clock()
            try:
                if remaining > 0:
                    nxt = self._queue.get(timeout=remaining)
                else:
                    nxt = self._queue.get_nowait()
            except queue.Empty:
                break
            if nxt is _SHUTDOWN:
                self._stop_after = True
                break
            if nxt.b.ndim == 1 and nxt.key == first.key:
                batch.append(nxt)
            else:
                self._stash = nxt
                with self._lock:
                    self._stashed = 1
                break

    def _run_batch(self, batch: list[_Pending]) -> None:
        started = self._clock()
        block = batch[0].b.ndim != 1
        if block:
            B = batch[0].b
            X0 = batch[0].x0
        else:
            B = np.column_stack([r.b for r in batch])
            X0 = None
            if any(r.x0 is not None for r in batch):
                X0 = np.column_stack(
                    [
                        r.x0 if r.x0 is not None else np.zeros(self.x_rows)
                        for r in batch
                    ]
                )
        key = batch[0].key
        res = self._solver.solve(
            tol=key.tol,
            max_sweeps=key.max_sweeps,
            sync_every_sweeps=key.sync_every_sweeps,
            b=B,
            x0=X0,
        )
        finish = self._clock()
        wall = finish - started
        results = []
        for i, r in enumerate(batch):
            if block:
                x = res.x
                converged = bool(res.converged)
                sweeps = int(res.sweeps_done)
                residual = float(res.column_residuals.max())
                col_conv = res.converged_columns.copy()
                col_sweeps = res.column_sweeps.copy()
                col_res = res.column_residuals.copy()
            else:
                x = res.x[:, i].copy()
                converged = bool(res.converged_columns[i])
                cs = int(res.column_sweeps[i])
                sweeps = cs if cs >= 0 else int(res.sweeps_done)
                residual = float(res.column_residuals[i])
                col_conv = col_sweeps = col_res = None
            results.append(
                ServedResult(
                    request_id=r.request_id,
                    x=x,
                    converged=converged,
                    sweeps=sweeps,
                    residual=residual,
                    latency=finish - r.enqueued_at,
                    queue_wait=started - r.enqueued_at,
                    batch_size=len(batch),
                    solve_wall=wall,
                    column_converged=col_conv,
                    column_sweeps=col_sweeps,
                    column_residuals=col_res,
                    trace_id=r.trace_id,
                )
            )
        latencies = [out.latency for out in results]
        with self._lock:
            c = self._counts
            c.batches += 1
            c.requests_served += len(batch)
            if not block and len(batch) > 1:
                c.batched_singles += len(batch)
            c.max_batch_size = max(c.max_batch_size, len(batch))
            # The running mean, served-weighted like fold_stats's.
            c.latency_mean += (
                sum(latencies) - len(batch) * c.latency_mean
            ) / c.requests_served
            c.latency_max = max(c.latency_max, *latencies)
        if self._cache is not None:
            # Store before releasing the waiters: a client that observes
            # its result done can rely on its solution being cached.
            # Crashed batches never reach here — a warm start that rode
            # a crash is simply not recorded, and the entry that seeded
            # it stays valid for the respawned pool.
            for r, out in zip(batch, results):
                self._cache.store(
                    self._cache_key, r.b, out.x, r.fingerprint
                )
                self._cache.record_outcome(warm=r.warm, sweeps=out.sweeps)
        for r, out in zip(batch, results):
            r.result = out
            r.event.set()

    def _drain(self, error: ServeError | None = None) -> None:
        """Fail whatever is still queued when the dispatcher exits —
        with ``error`` (the broken-dispatcher cause) when the exit was
        abnormal, with the plain closed-server message otherwise."""
        leftovers = []
        if self._stash is not None:
            leftovers.append(self._stash)
            self._stash = None
            with self._lock:
                self._stashed = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                leftovers.append(item)
        if leftovers:
            err = error if error is not None else ServeError(
                "server closed before this request was served"
            )
            with self._lock:
                self._counts.requests_failed += len(leftovers)
            for r in leftovers:
                r.error = err
                r.event.set()

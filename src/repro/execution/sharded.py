"""Row-partitioned multi-pool solves: one matrix, N shards, N pools.

The paper defers distributed memory to future work ("each processor
owns and be the sole updater of only a subset of the entries");
``extensions/block_partitioned.py`` proves the owner-computes
randomization convergent in simulation. This module productionizes it
on the real pool core: :class:`ShardedSolver` splits a square system's
CSR into contiguous row blocks, runs **one persistent worker pool per
shard** (pool.py's capacity-k layouts, per-column retirement, and RNG
streams unchanged), and exchanges halo entries of the iterate between
the shards **asynchronously** — at each shard's own epoch boundaries,
with no barrier that all shards cross together.

Geometry of a shard
-------------------
Shard ``s`` owns the contiguous row range ``[r0, r1)`` of the global
``n × n`` system. Its pool is a *rectangular* instance of the solver-
agnostic layout of :mod:`repro.execution.pool`:

* ``n_rows = r1 − r0`` — the direction space: every draw picks one of
  the shard's *owned* rows (owner-computes randomization; the union
  over shards is a uniform-per-block restriction of the paper's
  sampling, the regime ``extensions/block_partitioned.py`` studies).
* ``x_rows = n`` — the shared iterate holds the **full** global block,
  owned rows plus halo, so a row gather crosses shard boundaries with
  global column indices and no index translation.
* ``b_rows = n_rows`` — the RHS rows of the owned block only.

The shard's CSR is the row slice ``A[r0:r1, :]`` with global column
indices; its ``norms`` slot carries the owned rows' diagonal. The
update is the pool's one kernel with the shard's row offset,
``offset = r0``: local draw ``r`` gathers CSR row ``r`` and relaxes
global row ``r0 + r``, so workers scatter only into rows they own (the
sole-updater property distributed memory needs).

Halo exchange (no global barrier)
---------------------------------
The exchange goes through one :class:`~repro.execution.halo.LocalBoard`
(``publish``/``pull``/``snapshot`` — see :mod:`repro.execution.halo`):
an ``(n, k)`` array holding the most recently **published** owned block
of every shard. Each shard is driven by its own parent-side thread::

    begin → [ advance(epoch) → publish owned block → pull halo → … ]

At a shard's epoch boundary (its pool's end gate — the parent owns
*that shard's* buffer there, nobody else's), the driver copies the
shard's owned rows to the board and copies the *latest published*
foreign blocks into the shard's halo rows. Publishes are serialized by
a short mutex (a memcpy, not a barrier: no shard ever waits for
another shard's epoch); halo **pulls are deliberately unlocked**, so a
pull racing a foreign publish can observe a torn mix of that shard's
epochs ``t`` and ``t+1`` — exactly the inconsistent-read regime the
source paper (arXiv 1304.6475) and Liu/Wright's asynchronous analysis
(arXiv 1401.4780) prove convergent. Convergence is judged by the
coordinator on the **assembled global residual**: it snapshots the
board (under the publish mutex, so the snapshot is a per-shard-
consistent mixture of epochs), runs the ordinary
:class:`~repro.core.residuals.ColumnTracker` on the full ``A``, and
retires globally converged columns on every shard — each shard applies
the retirement at its *own* next boundary, never mid-segment.

Staleness is therefore controlled by the epoch length
(``sync_every_sweeps``): longer epochs mean fewer exchanges and staler
halos. ``repro experiment shard`` measures that convergence-vs-
staleness trade-off.

Failure attribution
-------------------
A worker crash inside shard ``s`` surfaces as that pool's
:class:`~repro.exceptions.ModelError`; the coordinator stops every
other shard at its next boundary, tears the shards' pools down
**together** (they live and die as one matrix), and re-raises naming
the guilty shard id. The serving layer's batch containment then fails
only that matrix's in-flight requests, exactly like a single-pool
crash.

Why shard on one box
--------------------
Not for memory: every shard's pool keeps the full ``n``-row iterate, so
N shards allocate more than one pool does. Sharding is for speed: the
shards' workers write private iterates instead of one pool's shared
one, whose workers slow each other down (ROADMAP item 1). On a 2-vCPU
box, two one-worker shards beat one pool at either worker count on the
dense ``social-small`` Gram matrix at every block width (README's
table), and do not beat one single-worker pool on the 5-point
``laplace2d`` Laplacian.

One pool or many
----------------
With one shard there is nothing to exchange, so :class:`ShardedSolver`
needs at least two. :func:`~repro.execution.make_solver` is the one
place that picks the backing: at ``shards=1`` it builds the plain
single-pool solver (:class:`ProcessAsyRGS` / :class:`AsyRK`) itself,
which is therefore **bit-identical** to the unsharded solver by
construction — the property the serving layer's serial-equivalence
tests pin — and at two or more shards this class.

Fake shards
-----------
``shard_factory`` replaces the per-shard pool construction for tests:
it is called as ``factory(index, A_s, b_s, norms_s, offset=r0,
**pool_kwargs)`` and must return an object with ``open()``/``close()``,
``_ensure_pool()`` returning an engine of the epoch driver's protocol
(:mod:`repro.execution.epochs`), ``spawn_count`` and ``n_rows``. The
simulation-test harness drives the coordinator through scripted shard
deaths this way without starting a single worker.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError
from ..rng import DirectionStream
from ..sparse import CSRMatrix
from ..validation import check_rhs, check_x0
from .epochs import EpochRecord, check_epoch_args
from .halo import LocalBoard
from .pool import (
    BARRIER_TIMEOUT,
    DelayStats,
    PoolSolver,
    ProcessRunResult,
)
from .simulator import _prepare_system

__all__ = [
    "ShardedRunResult",
    "ShardedSolver",
    "balanced_partition",
    "contiguous_partition",
]

#: Philox sub-stream base for shard direction streams: shard ``s`` draws
#: from ``stream = _SHARD_STREAM_BASE + s`` of the solver's seed, so the
#: shards' sequences are mutually independent and any single-pool stream
#: (stream 0 by default) is never reused.
_SHARD_STREAM_BASE = 0x5A4D


# -- owner-block partitions ----------------------------------------------
#
# The sharded solver and extensions.block_partitioned both cut owner
# blocks with these. Both reject nproc > n explicitly: silently
# producing zero-size owner blocks would give some "owner" an empty
# direction space (a uniform draw over nothing) downstream.


def balanced_partition(n: int, nproc: int) -> list[np.ndarray]:
    """Round-robin owner blocks: coordinate ``i`` belongs to owner
    ``i mod nproc`` — the size-balanced default."""
    n = int(n)
    nproc = int(nproc)
    if nproc < 1:
        raise ModelError(
            f"balanced_partition needs at least one owner block, got "
            f"nproc={nproc}"
        )
    if nproc > n:
        raise ModelError(
            f"balanced_partition cannot split {n} coordinate(s) into "
            f"{nproc} non-empty owner blocks; need nproc <= n "
            f"(an empty block would leave its owner nothing to draw from)"
        )
    return [np.arange(p, n, nproc, dtype=np.int64) for p in range(nproc)]


def contiguous_partition(n: int, nproc: int) -> list[np.ndarray]:
    """Contiguous owner blocks (the natural distributed-memory layout)."""
    n = int(n)
    nproc = int(nproc)
    if nproc < 1:
        raise ModelError(
            f"contiguous_partition needs at least one owner block, got "
            f"nproc={nproc}"
        )
    if nproc > n:
        raise ModelError(
            f"contiguous_partition cannot split {n} coordinate(s) into "
            f"{nproc} non-empty owner blocks; need nproc <= n "
            f"(an empty block would leave its owner nothing to draw from)"
        )
    bounds = np.linspace(0, n, nproc + 1).astype(np.int64)
    if np.any(np.diff(bounds) < 1):  # pragma: no cover - floor arithmetic
        # With nproc <= n every floor(p·n/P) step is at least 1; this
        # guard keeps the no-empty-blocks contract explicit anyway.
        raise ModelError(
            f"contiguous_partition produced an empty owner block for "
            f"n={n}, nproc={nproc}"
        )
    return [np.arange(bounds[p], bounds[p + 1], dtype=np.int64) for p in range(nproc)]


class _ShardPool(PoolSolver):
    """One shard's pool: a rectangular-geometry :class:`PoolSolver` over
    the shard's row slice. Driven through its ``_WorkerPool`` directly
    by the coordinator — ``solve()`` (which needs a per-column tracker)
    is never called on a shard; convergence belongs to the assembled
    global residual."""

    method_name = "sharded-asyrgs"

    def __init__(self, index, A_s, b_s, norms_s, *, offset, **kwargs):
        self.shard_index = int(index)
        self.offset = int(offset)  # the kernel's row offset
        super().__init__(A_s, b_s, norms_s, **kwargs)


def _default_shard_factory(index, A_s, b_s, norms_s, *, offset, **kwargs):
    return _ShardPool(index, A_s, b_s, norms_s, offset=offset, **kwargs)


def _merge_delay_stats(parts: list[DelayStats]) -> DelayStats:
    """Fold per-shard staleness measurements into one (samples concat,
    mean update-weighted, max over shards)."""
    count = sum(p.count for p in parts)
    mean = (
        sum(p.mean * p.count for p in parts) / count if count else 0.0
    )
    samples = (
        np.concatenate([p.samples for p in parts if p.samples.size])
        if any(p.samples.size for p in parts)
        else np.empty(0, dtype=np.int64)
    )
    return DelayStats(
        count=count,
        mean=float(mean),
        max=max((p.max for p in parts), default=0),
        samples=samples,
    )


@dataclass
class ShardedRunResult(ProcessRunResult):
    """A :class:`ProcessRunResult` plus the sharding detail: how many
    shards ran, each shard's committed update count, and each shard's
    local epoch (sweeps-over-its-own-block) count."""

    shards: int = 1
    shard_updates: list[int] = field(default_factory=list)
    shard_sweeps: list[int] = field(default_factory=list)


def _row_slice(A: CSRMatrix, r0: int, r1: int) -> CSRMatrix:
    """The CSR rows ``[r0, r1)`` of ``A`` with **global** column indices
    (an ``(r1−r0) × n`` rectangle)."""
    s, e = int(A.indptr[r0]), int(A.indptr[r1])
    return CSRMatrix(
        (r1 - r0, A.shape[1]),
        (A.indptr[r0 : r1 + 1] - s).astype(np.int64),
        A.indices[s:e].copy(),
        A.data[s:e].copy(),
    )


class ShardedSolver:
    """Row-partitioned AsyRGS: one persistent pool per shard, halo
    exchange at per-shard epoch boundaries, convergence on the
    assembled global residual. See the module docstring for the
    architecture; the public surface matches the single-pool solvers
    (``open``/``close``/context manager, :meth:`solve`,
    ``spawn_count``) so the serving layer treats a
    sharded matrix like any other.

    Parameters
    ----------
    A, b:
        The square system (positive diagonal — the AsyRGS requirement).
    shards:
        Number of contiguous row shards, at least 2 (one pool is
        :func:`~repro.execution.make_solver`'s ``shards=1``).
    nproc:
        Worker threads **per shard** (total workers =
        ``shards · nproc``).
    directions, seed:
        A stream (its seed is reused), otherwise the seed. Shard ``s``
        draws from the independent Philox sub-stream
        ``_SHARD_STREAM_BASE + s`` of that seed.
    shard_factory:
        Test seam replacing per-shard pool construction (see module
        docstring).
    **pool:
        The remaining pool options (``beta``, ``atomic``, ``adaptive``,
        ``barrier_timeout``, ``capacity_k``), as on
        :class:`~repro.execution.pool.PoolSolver`, forwarded to every
        shard.
    """

    method_name = "asyrgs"

    def __init__(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        shards: int,
        nproc: int = 1,
        directions: DirectionStream | None = None,
        seed: int = 0,
        shard_factory=None,
        **pool,
    ):
        from . import check_solver  # deferred: the package imports this module

        shards = check_solver("asyrgs", shards)
        if shards < 2:
            raise ModelError(
                "a sharded solve needs at least 2 shards; build one pool "
                "with make_solver(..., shards=1)"
            )
        self.shards = shards
        self._shards: list = []
        self._persistent = False
        if directions is not None:
            seed = directions.seed
        b, diag, n = _prepare_system(A, b)
        self.A = A
        self.b = b
        self.n = n
        self.k = 1 if b.ndim == 1 else int(b.shape[1])
        capacity_k = pool.pop("capacity_k", None)
        self.capacity_k = self.k if capacity_k is None else int(capacity_k)
        self.nproc = int(nproc)
        self.atomic = bool(pool.get("atomic"))
        self.barrier_timeout = float(pool.get("barrier_timeout", BARRIER_TIMEOUT))
        blocks = contiguous_partition(n, shards)  # raises on shards > n
        self._bounds = [
            (int(blk[0]), int(blk[-1]) + 1) for blk in blocks
        ]
        factory = shard_factory if shard_factory is not None else _default_shard_factory
        self._halos: list[np.ndarray] = []
        for s, (r0, r1) in enumerate(self._bounds):
            A_s = _row_slice(A, r0, r1)
            n_s = r1 - r0
            # Halo: the foreign iterate rows this shard's gathers read —
            # exactly the column indices outside its owned range.
            cols = A_s.indices
            foreign = cols[(cols < r0) | (cols >= r1)]
            self._halos.append(np.unique(foreign))
            self._shards.append(
                factory(
                    s,
                    A_s,
                    b[r0:r1],
                    diag[r0:r1],
                    offset=r0,
                    n_rows=n_s,
                    x_rows=n,
                    b_rows=n_s,
                    nproc=nproc,
                    directions=DirectionStream(
                        n_s, seed=seed, stream=_SHARD_STREAM_BASE + s
                    ),
                    capacity_k=self.capacity_k,
                    **pool,
                )
            )
        self._shard_total_updates = [0] * shards

    # -- lifecycle ------------------------------------------------------

    def __enter__(self):
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def open(self):
        """Spawn every shard's pool now and keep them across calls."""
        self._persistent = True
        for sh in self._shards:
            sh.open()
        return self

    def close(self) -> None:
        """Shut every shard's pool down together (idempotent)."""
        self._persistent = False
        for sh in self._shards:
            sh.close()

    @property
    def spawn_count(self) -> int:
        """Pool spawns summed over shards (``shards`` per cold start)."""
        return sum(sh.spawn_count for sh in self._shards)

    @property
    def pool_active(self) -> bool:
        return all(sh.pool_active for sh in self._shards)

    def shard_update_counts(self) -> list[int]:
        """Cumulative committed updates per shard over this solver's
        lifetime. The serving layer surfaces these as the per-shard
        stats breakdown."""
        return list(self._shard_total_updates)

    # -- the coordinated solve ------------------------------------------

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
        """Solve to tolerance on the assembled global residual.

        Each shard runs epochs of ``sync_every_sweeps`` local sweeps
        (``sync_every_sweeps · n_s`` committed updates) and exchanges
        halos at its own boundaries; ``max_sweeps`` bounds each shard's
        local sweep count. Per-column convergence and retirement work
        exactly as on the single pool, measured on the assembled
        iterate; retirement decisions propagate to each shard at its
        next boundary."""
        if metric is not None:
            raise ModelError(
                "sharded solves judge convergence on the assembled global "
                "residual; a custom metric cannot be decomposed per shard"
            )
        tol, max_sweeps, sync_every, retire = check_epoch_args(
            tol, max_sweeps, sync_every_sweeps, retire=retire
        )
        b = check_rhs(
            self.b if b is None else b, self.n, capacity=self.capacity_k
        )
        shape = (self.n,) + b.shape[1:]
        x0 = np.zeros(shape) if x0 is None else check_x0(x0, shape)
        from ..core.residuals import ColumnTracker  # deferred: core imports execution

        tracker = ColumnTracker(self.A, x0, b, tol)
        record = EpochRecord(tracker, retire)
        S = self.shards
        if tracker.converged or max_sweeps == 0:
            return record.result(
                x0.copy(),
                per_worker_iterations=[0] * (S * self.nproc),
                atomic=self.atomic,
                cls=ShardedRunResult,
                shards=S,
                shard_updates=[0] * S,
                shard_sweeps=[0] * S,
            )
        kreq = 1 if b.ndim == 1 else int(b.shape[1])
        board = LocalBoard(x0.reshape(self.n, kreq), self._bounds)
        cond = threading.Condition()
        stop = threading.Event()
        epochs = [0] * S  # completed local sweeps per shard (cond-guarded)
        failures: dict[int, BaseException] = {}
        retired_cols: list[int] = []  # cond-guarded, append-only
        if not self._persistent:
            for sh in self._shards:
                sh.open()
        try:
            pools = [sh._ensure_pool() for sh in self._shards]
        except BaseException:
            for sh in self._shards:
                sh.close()
            raise

        def drive(s: int) -> None:
            sh, pool = self._shards[s], pools[s]
            r0, r1 = self._bounds[s]
            halo = self._halos[s]
            applied = 0
            try:
                pool.begin(x0.reshape(self.n, kreq), b.reshape(self.n, kreq)[r0:r1])
                if retire and tracker.done_mask.any():
                    # Columns converged before the first epoch never
                    # enter this shard's active set at all (the tracker
                    # is not mutated after this point except under cond,
                    # and begin() happens before any coordinator update).
                    pool.retire_columns(np.flatnonzero(tracker.done_mask))
                local = 0
                while local < max_sweeps:
                    take = min(sync_every, max_sweeps - local)
                    pool.advance(take * sh.n_rows)
                    local += take
                    # Boundary: this shard's workers are parked at their
                    # start gate — the parent owns *this* buffer, and
                    # only this one.
                    xv = pool.x()
                    board.publish(s, xv[r0:r1, :kreq])
                    # Halo pull: served from whatever the board holds —
                    # racing a foreign publish yields a torn, stale mix
                    # of that shard's epochs. Inconsistent reads by
                    # design.
                    if halo.size:
                        xv[halo, :kreq] = board.pull(halo)
                    with cond:
                        newly = retired_cols[applied:]
                        applied = len(retired_cols)
                        epochs[s] = local
                        cond.notify_all()
                    if newly:
                        pool.retire_columns(np.asarray(newly, dtype=np.int64))
                    if stop.is_set():
                        break
            except BaseException as exc:
                with cond:
                    failures.setdefault(s, exc)
                    stop.set()
                    cond.notify_all()

        threads = [
            threading.Thread(
                target=drive, args=(s,), name=f"shard-drive-{s}", daemon=True
            )
            for s in range(S)
        ]
        for t in threads:
            t.start()
        sizes = [r1 - r0 for r0, r1 in self._bounds]
        seen = 0
        failed = True
        try:
            while True:
                with cond:
                    cond.wait(timeout=0.1)
                    esum = sum(epochs)
                    crashed = bool(failures)
                    alive = any(t.is_alive() for t in threads)
                if crashed:
                    break
                if esum > seen:
                    seen = esum
                    snap = board.snapshot()
                    xg = snap[:, 0].copy() if b.ndim == 1 else snap
                    updates = sum(e * w for e, w in zip(epochs, sizes))
                    newly = record.boundary(xg, max(epochs), updates)
                    if newly.size:
                        with cond:
                            retired_cols.extend(int(c) for c in newly)
                    if tracker.converged:
                        stop.set()
                        break
                if not alive:
                    break
            for t in threads:
                t.join(timeout=self.barrier_timeout)
            if failures:
                s = min(failures)
                exc = failures[s]
                raise ModelError(
                    f"shard {s} of {S} failed mid-solve: {exc}"
                ) from (exc if isinstance(exc, Exception) else None)
            if any(t.is_alive() for t in threads):
                raise ModelError(
                    "a shard driver failed to stop within barrier_timeout"
                )
            # All publishes are in: assemble the final iterate and
            # re-measure honestly (later epochs may have landed after
            # the checkpoint that declared convergence; retired columns
            # are frozen in the tracker and cannot un-converge).
            snap = board.snapshot()
            xg = snap[:, 0].copy() if b.ndim == 1 else snap
            updates = sum(e * w for e, w in zip(epochs, sizes))
            record.boundary(xg, max(epochs), updates)
            shard_updates = [sum(p.per_worker()) for p in pools]
            for s, u in enumerate(shard_updates):
                self._shard_total_updates[s] += u
            result = record.result(
                xg,
                iterations=sum(shard_updates),
                per_worker_iterations=[
                    c for p in pools for c in p.per_worker()
                ],
                sync_points=sum(p.sync_points for p in pools),
                wall_time=max((p.wall_time for p in pools), default=0.0),
                tau_observed=_merge_delay_stats(
                    [p.delay_stats() for p in pools]
                ),
                total_row_nnz=sum(p.total_row_nnz() for p in pools),
                column_updates=sum(p.column_updates() for p in pools),
                sweeps_done=max(epochs),
                atomic=self.atomic,
                cls=ShardedRunResult,
                shards=S,
                shard_updates=shard_updates,
                shard_sweeps=list(epochs),
            )
            failed = False
        finally:
            stop.set()
            if failed or not self._persistent:
                # The shards' pools live and die together: any failure
                # (even one shard's) tears all of them down; the next
                # call respawns the full set (spawn_count says so,
                # honestly).
                for sh in self._shards:
                    try:
                        sh.close()
                    except Exception:
                        pass
        return result

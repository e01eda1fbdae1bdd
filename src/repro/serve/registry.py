"""Multi-matrix serving: named resident matrices behind one front door.

:class:`~repro.serve.SolverServer` multiplexes many requests over *one*
resident matrix; a gateway serving real traffic hosts many.
:class:`MatrixRegistry` is the routing layer: matrices are registered
under string ids (at startup, or live over the wire via the protocol's
``register`` verb), each id is backed by its own
:class:`~repro.serve.SolverServer` — its own capacity-k
:class:`~repro.execution.ProcessAsyRGS` pool, dispatcher thread, and
batcher — and every request is routed by its ``matrix`` id. Requests
without an id go to the **default matrix** (the first registered, or
the one named ``default=``), which is what keeps the single-matrix wire
format from before multi-matrix serving working unchanged.

Pools hold worker threads and a per-pool buffer sized by the matrix, so
they are **lazily spawned** — registering a matrix costs nothing until
its first request — and **LRU-evicted**: at most ``max_live_pools``
pools are live at once, and spawning a new one shuts down the
least-recently-used *idle* pool first (a pool with requests in flight
is never torn down; if every pool is busy the cap is soft and the new
pool spawns anyway). Eviction is invisible in the results — the next
request for an evicted matrix just pays one respawn — and invisible in
the counters: a matrix's stats accumulate across its pool's lifetimes.

Batching never crosses matrices by construction: coalescing happens
inside each matrix's own ``SolverServer``, so two requests can share a
block solve only if they were routed to the same resident matrix.

Thread safety: routing, lazy spawn, and eviction happen under one
registry lock; the per-matrix servers do their own locking. Spawning a
pool holds the registry lock (requests for *other* matrices briefly
queue behind a spawn — acceptable at gateway scale, and it keeps
eviction races impossible).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

from ..exceptions import ModelError, ServeError
from ..execution import check_solver
from .cache import SolutionCache
from .runtime import THREAD_RUNTIME
from .metrics import ServerStats, fold_stats
from .server import SolverServer

__all__ = ["MatrixRegistry"]


class _Entry:
    """One registered matrix: its CSR, per-matrix server overrides, the
    update method and shard count its pool runs, the live server (or
    ``None``), and ``history``, the running total of its retired pools'
    counters (the zero record, carrying the matrix's method and shard
    count, until a pool retires)."""

    __slots__ = (
        "name", "A", "overrides", "method", "shards", "server",
        "last_used", "history",
    )

    def __init__(self, name: str, A, overrides: dict, method: str, shards: int):
        self.name = name
        self.A = A
        self.overrides = overrides
        self.method = method
        self.shards = shards
        self.server: SolverServer | None = None
        self.last_used = 0
        self.history = ServerStats(method=method, shards=shards)

    def stats(self) -> ServerStats:
        """Lifetime stats: the retired pools' total plus the live pool."""
        live = [] if self.server is None else [self.server.stats()]
        return fold_stats([self.history, *live], lifetimes=True)


class MatrixRegistry:
    """Route solve requests across several named resident matrices.

    Parameters
    ----------
    nproc, capacity_k, tol, max_sweeps, sync_every_sweeps, max_batch,
    max_wait, policy, beta, atomic, seed, barrier_timeout:
        Defaults forwarded to every matrix's
        :class:`~repro.serve.SolverServer`; :meth:`register` accepts
        per-matrix overrides of any of them.
    max_live_pools:
        Soft cap on simultaneously live worker pools. Spawning past the
        cap first LRU-evicts an idle pool; busy pools are never torn
        down, so the cap can be exceeded transiently under concurrent
        traffic to more than ``max_live_pools`` matrices. A matrix
        registered with ``shards=N`` counts as N pools against the cap
        (it really holds N), and eviction always retires its shards
        together.
    default:
        Id requests without a ``matrix`` field route to. ``None`` means
        the first registered matrix.
    cache_solutions:
        Enable warm-start solution caching (``repro serve
        --cache-solutions``): one shared
        :class:`~repro.serve.cache.SolutionCache` across all matrices, keyed
        by matrix id, seeding ``x0`` for requests whose right-hand side
        exactly or nearly repeats a recently served one. The cache is
        invalidated per matrix on (re-)registration and on pool
        eviction, so a matrix id never serves seeds from a different
        system than the one its pool holds.
    cache_max_entries, cache_similarity:
        The cache's LRU bound and relative-L2 near-hit threshold (see
        :class:`~repro.serve.cache.SolutionCache`); ignored unless
        ``cache_solutions`` is set.
    runtime:
        Source of concurrency primitives (see
        :mod:`repro.serve.runtime`). Supplies the registry lock and is
        inherited by every per-matrix :class:`SolverServer` this
        registry spawns, so a simulated registry drives simulated
        servers. Defaults to the real threading runtime.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        *,
        nproc: int,
        max_live_pools: int = 4,
        default: str | None = None,
        cache_solutions: bool = False,
        cache_max_entries: int = 256,
        cache_similarity: float = 0.05,
        runtime=None,
        **server_kwargs,
    ):
        self.max_live_pools = int(max_live_pools)
        if self.max_live_pools < 1:
            raise ServeError(
                f"max_live_pools must be at least 1, got {max_live_pools}"
            )
        self._runtime = THREAD_RUNTIME if runtime is None else runtime
        self._defaults = dict(
            server_kwargs, nproc=nproc, runtime=self._runtime
        )
        self._cache = (
            SolutionCache(
                max_entries=cache_max_entries,
                similarity=cache_similarity,
                runtime=self._runtime,
            )
            if cache_solutions
            else None
        )
        self._entries: dict[str, _Entry] = {}
        self._default_id = default
        self._lock = self._runtime.rlock()
        self._closed = False
        self._clock = itertools.count(1)

    # -- registration ---------------------------------------------------

    def register(self, name: str, A, **overrides) -> None:
        """Register matrix ``A`` under ``name``. Costs nothing until the
        first request routed to it spawns the pool. ``overrides`` adjust
        this matrix's :class:`SolverServer` construction (``capacity_k``,
        ``tol``, ``policy``, ``method``, ``shards``, ...).
        The ``(method, shards)`` backing is checked here, by
        :func:`~repro.execution.check_solver`, so a registration that
        could never serve raises :class:`ServeError` now rather than
        failing every later solve."""
        if not isinstance(name, str) or not name:
            raise ServeError(
                f"matrix id must be a non-empty string, got {name!r}"
            )
        options = {**self._defaults, **overrides}
        method = options.get("method", "asyrgs")
        try:
            shards = check_solver(method, options.get("shards", 1))
        except ModelError as exc:
            raise ServeError(str(exc)) from exc
        with self._lock:
            if self._closed:
                raise ServeError("registry is closed; no new matrices accepted")
            if name in self._entries:
                raise ServeError(
                    f"matrix {name!r} is already registered "
                    f"(n={self._entries[name].A.shape[0]})"
                )
            if self._cache is not None:
                # A fresh registration must never inherit seeds a prior
                # matrix left under the same id (the registry forbids
                # live re-registration, but ids do get reused across
                # registry generations in tests and restarts).
                self._cache.invalidate(name)
            self._entries[name] = _Entry(
                name, A, dict(overrides), method, shards
            )

    def register_spec(
        self,
        name: str,
        *,
        problem: str | None = None,
        path: str | None = None,
        method: str | None = None,
        shards: int | None = None,
    ) -> dict:
        """The wire-protocol ``register`` verb: resolve a named workload
        problem or a MatrixMarket file and register it. ``method``
        selects the matrix's update method (``"asyrgs"``/``"asyrk"``),
        ``shards`` the number of row-partitioned pools backing it
        (``None`` inherits the registry default for either);
        :meth:`register` checks the two together. Returns the info
        payload echoed to the client."""
        if (problem is None) == (path is None):
            raise ServeError(
                "register requires exactly one of a named problem or a "
                "MatrixMarket path"
            )
        if problem is not None:
            from ..workloads import get_problem

            A = get_problem(problem).A
        else:
            from ..sparse import read_matrix_market

            try:
                A = read_matrix_market(path)
            except OSError as exc:
                raise ServeError(f"cannot read matrix file: {exc}") from exc
        overrides = {}
        if method is not None:
            overrides["method"] = method
        if shards is not None:
            overrides["shards"] = shards
        self.register(name, A, **overrides)
        entry = self._entries[name]
        info = {
            "registered": name,
            "n": A.shape[0],
            "nnz": A.nnz,
            "source": problem if problem is not None else path,
            "method": entry.method,
            "shards": entry.shards,
        }
        return info

    # -- routing --------------------------------------------------------

    @property
    def default_matrix(self) -> str | None:
        """The id unrouted requests go to (``None`` before the first
        registration)."""
        with self._lock:
            return self._resolve_default()

    def _resolve_default(self) -> str | None:
        if self._default_id is not None:
            return self._default_id
        return next(iter(self._entries), None)

    def _entry_for(self, matrix: str | None) -> _Entry:
        if matrix is None:
            matrix = self._resolve_default()
            if matrix is None:
                raise ServeError("no matrices registered")
        entry = self._entries.get(matrix)
        if entry is None:
            known = sorted(self._entries)
            raise ServeError(
                f"unknown matrix {matrix!r}; registered: {known}"
            )
        return entry

    def _evict_for_room(self) -> None:
        """LRU-evict idle pools until a new spawn fits under the cap.
        Busy pools are skipped — the cap is soft, never a deadlock.

        ``max_live_pools`` counts *pools*, not matrices: a matrix backed
        by N shards holds N live pools, so it weighs N against the cap,
        and evicting it retires all N together — a sharded matrix's
        pools live and die as one (closing some shards of a live solve
        would wedge the halo exchange)."""
        live = [e for e in self._entries.values() if e.server is not None]
        pools = sum(e.shards for e in live)
        if pools < self.max_live_pools:
            return
        idle = []
        for entry in live:
            stats = entry.server.stats()
            if stats.requests_submitted == (
                stats.requests_served + stats.requests_failed
            ):
                idle.append(entry)
        idle.sort(key=lambda e: e.last_used)
        for entry in idle:
            if pools < self.max_live_pools:
                break
            server = entry.server
            server.close()
            self._retire(entry, server)
            pools -= entry.shards
            if self._cache is not None:
                # LRU eviction is the memory-pressure signal: a matrix
                # cold enough to lose its pool gives its cache capacity
                # back too (the respawned pool re-earns entries from its
                # own traffic). Contrast the crash-respawn path inside
                # SolverServer, which keeps entries — the matrix did not
                # change, so they are still valid seeds.
                self._cache.invalidate(entry.name)

    def _retire(self, entry: _Entry, server: SolverServer) -> None:
        """Fold a closed pool into its matrix's history and drop it.
        Under the registry lock, so a concurrent :meth:`stats` counts
        the pool exactly once: live, or retired. Its counters and last
        policy state stay."""
        with self._lock:
            if entry.server is server:
                entry.history = entry.stats()
                entry.server = None

    def _ensure_live(self, entry: _Entry) -> SolverServer:
        if entry.server is None:
            self._evict_for_room()
            entry.server = SolverServer(
                entry.A,
                **{**self._defaults, **entry.overrides},
                cache=self._cache,
                cache_key=entry.name,
            )
        entry.last_used = next(self._clock)
        return entry.server

    def submit(self, b, *, matrix: str | None = None, **kwargs):
        """Route one request by ``matrix`` id (``None`` → the default
        matrix), lazily spawning or LRU-swapping its pool, and return
        the per-matrix server's :class:`~repro.serve.server.RequestHandle`."""
        with self._lock:
            if self._closed:
                raise ServeError("registry is closed; no new requests accepted")
            entry = self._entry_for(matrix)
            server = self._ensure_live(entry)
            return server.submit(b, **kwargs)

    def solve(self, b, *, timeout: float | None = None, **kwargs):
        """Submit and wait: the blocking single-request convenience."""
        return self.submit(b, **kwargs).result(timeout)

    # -- observability --------------------------------------------------

    def matrices(self) -> list[str]:
        """Registered matrix ids, registration order."""
        with self._lock:
            return list(self._entries)

    def live_pools(self) -> list[str]:
        """Ids whose pool is currently live (spawned, not evicted)."""
        with self._lock:
            return [
                name
                for name, entry in self._entries.items()
                if entry.server is not None
            ]

    def stats(self, matrix: str | None = None) -> ServerStats:
        """Lifetime counters — one matrix's (live pool + every retired
        pool), or the aggregate across all matrices when ``matrix`` is
        ``None``."""
        with self._lock:
            if matrix is not None:
                return self._entry_for(matrix).stats()
            return fold_stats(
                entry.stats() for entry in self._entries.values()
            )

    def stats_payload(self, matrix: str | None = None) -> dict:
        """The ``stats`` verb / ``GET /v1/stats`` payload: the aggregate
        plus a per-matrix breakdown (or one matrix's counters). The
        breakdown is snapshotted once and the aggregate merged from
        those same snapshots, so the two sections of one response
        always agree even while dispatchers are completing batches."""
        with self._lock:
            if matrix is not None:
                entry = self._entry_for(matrix)
                return {"matrix": entry.name, **asdict(entry.stats())}
            snapshots = {
                name: entry.stats() for name, entry in self._entries.items()
            }
            return {
                "aggregate": asdict(fold_stats(snapshots.values())),
                "matrices": {
                    name: asdict(snap) for name, snap in snapshots.items()
                },
            }

    def cache_stats(self) -> dict | None:
        """The shared solution cache's counter snapshot, or ``None``
        when caching is disabled (the shape the metrics renderer and
        the stats verbs report)."""
        if self._cache is None:
            return None
        return self._cache.stats()

    def matrices_payload(self) -> list[dict]:
        """The ``matrices`` verb / ``GET /v1/matrices`` payload; each
        entry carries the matrix's update ``method`` so clients can see
        which resident systems answer Kaczmarz least-squares requests."""
        with self._lock:
            default = self._resolve_default()
            out = []
            for name, entry in self._entries.items():
                stats = entry.stats()
                listing = {
                    "matrix": name,
                    "default": name == default,
                    "n": entry.A.shape[0],
                    "nnz": entry.A.nnz,
                    "capacity_k": entry.overrides.get(
                        "capacity_k",
                        self._defaults.get("capacity_k", 8),
                    ),
                    "method": entry.method,
                    "shards": entry.shards,
                    "live": entry.server is not None,
                    "requests_submitted": stats.requests_submitted,
                    "requests_served": stats.requests_served,
                    "requests_failed": stats.requests_failed,
                    "spawn_count": stats.spawn_count,
                }
                out.append(listing)
            return out

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "MatrixRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self, timeout: float = 60.0) -> None:
        """Stop accepting requests and shut every live pool down
        (idempotent). Each pool is drained *before* it retires, so
        requests completing during the drain stay in the lifetime
        stats, which keep answering after close. A pool that fails to
        drain within ``timeout`` is left live (calling ``close`` again
        retries it) without stopping the other pools from closing; the
        first failure is re-raised at the end."""
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
        first_error = None
        for entry in entries:
            server = entry.server
            if server is None:
                continue
            try:
                server.close(timeout)
            except ServeError as exc:
                if first_error is None:
                    first_error = exc
                continue
            self._retire(entry, server)
        if first_error is not None:
            raise first_error

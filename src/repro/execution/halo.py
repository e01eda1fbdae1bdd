"""Halo transports: how shards exchange iterate rows.

:class:`~repro.execution.sharded.ShardedSolver` (PR 8) hardwired its
halo exchange to an in-process board — an ``(n, k)`` array guarded by a
``threading.Lock`` inside ``solve()`` — so a sharded matrix could never
outgrow one box despite the gateway, wire protocol, and shard
partitions all being in place. This module is that exchange refactored
into a transport seam:

``publish(shard, rows, generation)``
    Shard ``shard`` has finished a local epoch; ``rows`` is its owned
    ``(n_s, k)`` block of the iterate and ``generation`` its completed
    local sweep count. A publish must be cheap (a memcpy, a best-effort
    send) and must **never block on another shard's epoch** — the
    no-global-barrier property the source paper's inconsistent-read
    analysis (arXiv 1304.6475; Liu/Wright arXiv 1401.4780) rests on.
``pull(halo_rows) -> (values, ages)``
    The most recently published values of the requested global rows,
    plus the *generation stamp* each returned row was published at
    (``0`` for never-published rows). Pulls are served from whatever
    snapshot is on hand — stale, torn, or missing-peer data is returned
    rather than waited for.
``snapshot()``
    A per-shard-consistent copy of the whole board (publishes excluded
    while it is taken) — what the coordinator assembles the global
    residual from.

Two implementations:

* :class:`LocalBoard` — the PR 8 board/lock code extracted verbatim:
  publishes serialize on a mutex, pulls are **deliberately unlocked**
  (a pull racing a foreign publish can observe a torn mix of that
  shard's epochs ``t`` and ``t+1``). Behavior-preserving: an
  in-process ``shards=N`` solve through :class:`LocalBoard` is
  bit-identical to the pre-seam inline code.
* :class:`WireHalo` — the distributed half: each ``repro serve
  --shard-of`` instance keeps a local ``(n, k)`` mirror, publishes its
  owned block into the mirror and best-effort pushes it to every peer
  in its ring over the existing TCP/JSON-lines transport
  (``halo_push`` verb); incoming pushes from peers land in the mirror,
  and pulls read the mirror without ever touching the network. A dead,
  slow, or partitioned peer costs staleness, never progress: failed
  pushes are counted and dropped, and the next publish simply
  reconnects.

:class:`NodeShard` rides the same wire in the other direction: it is a
coordinator-side proxy implementing the shard *driving* surface
(``begin``/``advance``/``x``/``retire_columns``/stat readbacks — the
``shard_factory`` seam documented in :mod:`repro.execution.sharded`)
by forwarding each call to a remote ``repro serve --shard-of`` host via
the ``shard_begin``/``shard_advance``/``shard_stop`` verbs. A proxy
failure names the dead peer, so the coordinator's crash attribution
(``shard s of S failed mid-solve: ...``) surfaces ``HOST:PORT``.
"""

from __future__ import annotations

import socket
import threading

import numpy as np

from .. import wire
from ..exceptions import ModelError
from .epochs import DelayStats, _no_delays

__all__ = [
    "HaloTransport",
    "LocalBoard",
    "NodeShard",
    "WireHalo",
    "split_address",
]


def split_address(address: str) -> tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)``, rejecting anything else."""
    text = str(address).strip()
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ModelError(
            f"peer address must be HOST:PORT, got {address!r}"
        )
    try:
        port_num = int(port)
    except ValueError:
        raise ModelError(
            f"peer address must be HOST:PORT with an integer port, got "
            f"{address!r}"
        ) from None
    if not 0 < port_num < 65536:
        raise ModelError(
            f"peer port must be in [1, 65535], got {port_num} in "
            f"{address!r}"
        )
    return host, port_num


class HaloTransport:
    """The seam contract (see the module docstring). Implementations
    must make :meth:`publish` non-blocking with respect to other
    shards' epochs and :meth:`pull` tolerant of stale or absent data."""

    def publish(
        self, shard: int, rows: np.ndarray, generation: int
    ) -> None:
        raise NotImplementedError

    def pull(self, halo_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def snapshot(self) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


def _owner_map(bounds: list[tuple[int, int]], n: int) -> np.ndarray:
    """Global row → owning shard index (the ages lookup table)."""
    owner = np.zeros(n, dtype=np.int64)
    for s, (r0, r1) in enumerate(bounds):
        owner[r0:r1] = s
    return owner


class LocalBoard(HaloTransport):
    """The in-process board, extracted from ``ShardedSolver.solve``.

    Publishes copy the owned block under a short mutex; pulls fancy-
    index the board **without the lock** — a pull racing a foreign
    publish yields a torn, stale mix of that shard's epochs, exactly
    the inconsistent-read regime the paper proves convergent. The
    coordinator's :meth:`snapshot` takes the mutex so the residual is
    judged on a per-shard-consistent mixture of epochs.
    """

    def __init__(self, x0: np.ndarray, bounds: list[tuple[int, int]]):
        board = np.array(x0, dtype=np.float64, copy=True)
        if board.ndim != 2:
            raise ModelError(
                f"a halo board is (n, k)-shaped, got ndim={board.ndim}"
            )
        self._board = board
        self._bounds = [(int(r0), int(r1)) for r0, r1 in bounds]
        self._gen = np.zeros(len(self._bounds), dtype=np.int64)
        self._owner = _owner_map(self._bounds, board.shape[0])
        self._lock = threading.Lock()

    def publish(
        self, shard: int, rows: np.ndarray, generation: int
    ) -> None:
        r0, r1 = self._bounds[shard]
        with self._lock:
            self._board[r0:r1] = rows
            self._gen[shard] = generation

    def pull(self, halo_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Deliberately unlocked: torn reads by design.
        return self._board[halo_rows], self._gen[self._owner[halo_rows]]

    def snapshot(self) -> np.ndarray:
        with self._lock:
            return self._board.copy()

    def generations(self) -> np.ndarray:
        """Per-shard published generation stamps (a copy)."""
        with self._lock:
            return self._gen.copy()


class _JsonLineClient:
    """One persistent JSON-lines connection to a peer ``repro serve``.

    Connects lazily, sends one request object per line, reads one
    response line back. Any transport failure closes the socket so the
    next :meth:`request` reconnects from scratch — the reconnect policy
    of both the best-effort halo push and the coordinator's shard
    proxy.
    """

    def __init__(self, address: str, *, timeout: float = 5.0):
        self.address = str(address)
        self._host, self._port = split_address(address)
        self.timeout = float(timeout)
        self._sock = None
        self._file = None

    def request(self, payload: dict) -> dict:
        if self._sock is None:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self.timeout
            )
            sock.settimeout(self.timeout)
            self._sock = sock
            self._file = sock.makefile("rwb")
        try:
            self._file.write(wire.dumps(payload) + b"\n")
            self._file.flush()
            line = self._file.readline()
        except OSError:
            self.close()
            raise
        if not line:
            self.close()
            raise ConnectionError(
                f"peer {self.address} closed the connection"
            )
        try:
            return wire.loads(line)
        except ValueError as exc:
            self.close()
            raise ConnectionError(
                f"peer {self.address} sent a non-JSON reply"
            ) from exc

    def close(self) -> None:
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._sock = None
        self._file = None


class WireHalo(HaloTransport):
    """The distributed board: a local mirror plus best-effort pushes.

    Lives on a shard *host* (``repro serve --shard-of``). The mirror
    starts at ``x0`` and is written from two sides: :meth:`publish`
    copies this host's owned block in (and pushes it to every peer in
    the ring via the ``halo_push`` verb), and :meth:`receive` applies
    peers' incoming pushes. :meth:`pull` reads the mirror only — no
    pull ever crosses the wire, so a partitioned or dead peer costs
    *staleness* (its rows stop advancing past their last received
    generation), never an epoch. Out-of-order pushes that would rewind
    a shard's generation are dropped and counted.

    The mirror mutex is never held across a network call: publishes
    copy under the lock, then push outside it.
    """

    def __init__(
        self,
        x0: np.ndarray,
        bounds: list[tuple[int, int]],
        *,
        shard: int,
        peers: list[str] = (),
        matrix: str = "default",
        timeout: float = 2.0,
        client_factory=None,
    ):
        board = np.array(x0, dtype=np.float64, copy=True)
        if board.ndim != 2:
            raise ModelError(
                f"a halo mirror is (n, k)-shaped, got ndim={board.ndim}"
            )
        self._mirror = board
        self._bounds = [(int(r0), int(r1)) for r0, r1 in bounds]
        self._gen = np.zeros(len(self._bounds), dtype=np.int64)
        self._owner = _owner_map(self._bounds, board.shape[0])
        self._lock = threading.Lock()
        self.shard = int(shard)
        self.matrix = str(matrix)
        factory = (
            client_factory
            if client_factory is not None
            else (lambda addr: _JsonLineClient(addr, timeout=timeout))
        )
        self._clients = [(str(p), factory(str(p))) for p in peers]
        # Counters the shard host surfaces through /v1/metrics.
        self.pushes = {str(p): 0 for p in peers}
        self.push_failures = {str(p): 0 for p in peers}
        self.reconnects = {str(p): 0 for p in peers}
        self._broken = set()
        self.pulls = 0
        self.pull_serves = 0
        self.received = 0
        self.stale_drops = 0

    # -- the shard-host side of the seam --------------------------------

    def publish(
        self, shard: int, rows: np.ndarray, generation: int
    ) -> None:
        r0, r1 = self._bounds[shard]
        generation = int(generation)
        with self._lock:
            self._mirror[r0:r1] = rows
            self._gen[shard] = generation
            block = self._mirror[r0:r1].tolist()
        payload = {
            "op": "halo_push",
            "matrix": self.matrix,
            "shard": int(shard),
            "r0": r0,
            "r1": r1,
            "generation": generation,
            "rows": block,
        }
        for address, client in self._clients:
            try:
                reply = client.request(payload)
                if not reply.get("ok", False):
                    raise ConnectionError(
                        f"peer {address} rejected the push: "
                        f"{reply.get('error')}"
                    )
            except (OSError, ConnectionError, ValueError):
                # Best effort by design: a dead or partitioned peer
                # must never block this shard's epoch. Count it, drop
                # it, reconnect on the next publish.
                self.push_failures[address] += 1
                self._broken.add(address)
                continue
            if address in self._broken:
                self._broken.discard(address)
                self.reconnects[address] += 1
            self.pushes[address] += 1

    def pull(self, halo_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Unlocked, like LocalBoard: torn reads are the contract.
        self.pulls += 1
        return (
            self._mirror[halo_rows],
            self._gen[self._owner[halo_rows]],
        )

    def snapshot(self) -> np.ndarray:
        with self._lock:
            return self._mirror.copy()

    # -- the wire-facing side (driven by the serve front-end) -----------

    def receive(
        self, *, shard: int, r0: int, r1: int, rows, generation: int
    ) -> bool:
        """Apply one incoming ``halo_push``. Returns ``False`` (and
        counts a stale drop) if the push would rewind the sender's
        generation — reordered or duplicated deliveries are ignored."""
        shard = int(shard)
        generation = int(generation)
        block = np.asarray(rows, dtype=np.float64)
        if block.shape != (int(r1) - int(r0), self._mirror.shape[1]):
            raise ModelError(
                f"halo_push block for rows [{r0}, {r1}) has shape "
                f"{block.shape}, expected "
                f"({int(r1) - int(r0)}, {self._mirror.shape[1]})"
            )
        with self._lock:
            if generation < self._gen[shard]:
                self.stale_drops += 1
                return False
            self._mirror[int(r0) : int(r1)] = block
            self._gen[shard] = generation
            self.received += 1
        return True

    def read_rows(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Serve a ``halo_pull``: the last published snapshot of the
        requested rows plus their generation stamps, under the mutex
        (the wire answer is per-shard consistent)."""
        idx = np.asarray(rows, dtype=np.int64)
        if idx.size and (
            idx.min() < 0 or idx.max() >= self._mirror.shape[0]
        ):
            raise ModelError(
                f"halo_pull rows out of range [0, "
                f"{self._mirror.shape[0]})"
            )
        self.pull_serves += 1
        with self._lock:
            return self._mirror[idx].copy(), self._gen[self._owner[idx]]

    def age(self) -> int:
        """Own generation minus the stalest foreign generation seen —
        the staleness gauge (0 with no peers or before any epoch)."""
        with self._lock:
            own = int(self._gen[self.shard])
            foreign = [
                int(g)
                for s, g in enumerate(self._gen)
                if s != self.shard
            ]
        if not foreign:
            return 0
        return max(0, own - min(foreign))

    def counters(self) -> dict:
        """The serving layer's metrics snapshot."""
        return {
            "pushes": dict(self.pushes),
            "push_failures": dict(self.push_failures),
            "reconnects": dict(self.reconnects),
            "pulls": int(self.pulls),
            "pull_serves": int(self.pull_serves),
            "received": int(self.received),
            "stale_drops": int(self.stale_drops),
            "age": self.age(),
            "generation": int(self._gen[self.shard]),
        }

    def close(self) -> None:
        for _, client in self._clients:
            try:
                client.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass


class NodeShard:
    """A coordinator-side proxy for a shard hosted on a remote
    ``repro serve --shard-of`` instance.

    Implements the shard driving surface documented in
    :mod:`repro.execution.sharded` (the ``shard_factory`` seam):
    ``begin`` ships the initial iterate, the owned RHS block, and the
    solver parameters via the ``shard_begin`` verb; each ``advance``
    runs one epoch on the host (which publishes and pulls halos against
    its *own* peer ring — node-to-node, never through the coordinator)
    and returns the owned block plus cumulative pool stats, which the
    proxy caches for the stat readbacks. ``retire_columns`` is stashed
    and piggybacked on the next ``advance`` (a retirement applies at a
    boundary either way). Any wire failure raises a
    :class:`~repro.exceptions.ModelError` **naming the dead peer**, so
    the coordinator's ``shard s of S failed mid-solve: ...`` message
    carries ``HOST:PORT``.
    """

    def __init__(
        self,
        index: int,
        *,
        address: str,
        matrix: str,
        bounds: list[tuple[int, int]],
        shards: int,
        n: int,
        nproc: int,
        capacity_k: int,
        seed: int,
        params: dict | None = None,
        timeout: float = 300.0,
        client_factory=None,
    ):
        self.shard_index = int(index)
        self.address = str(address)
        self.matrix = str(matrix)
        self._bounds = [(int(r0), int(r1)) for r0, r1 in bounds]
        self.shards = int(shards)
        self.n = int(n)
        r0, r1 = self._bounds[self.shard_index]
        self.offset = r0
        self.n_rows = r1 - r0
        self.nproc = int(nproc)
        self.capacity_k = int(capacity_k)
        self.seed = int(seed)
        self.params = dict(params or {})
        factory = (
            client_factory
            if client_factory is not None
            else (lambda addr: _JsonLineClient(addr, timeout=timeout))
        )
        self._client = factory(self.address)
        self.spawn_count = 0
        self._began = False
        self._x: np.ndarray | None = None
        self._pending_retire: list[int] = []
        self._per_worker = [0] * self.nproc
        self.sync_points = 0
        self.wall_time = 0.0
        self._column_updates = 0
        self._total_row_nnz = 0
        self._delay = _no_delays()

    # -- wire plumbing --------------------------------------------------

    def _request(self, payload: dict) -> dict:
        try:
            reply = self._client.request(payload)
        except (OSError, ConnectionError, ValueError) as exc:
            raise ModelError(
                f"peer {self.address} (shard {self.shard_index} of "
                f"{self.shards}) is unreachable: {exc}"
            ) from exc
        if not reply.get("ok", False):
            raise ModelError(
                f"peer {self.address} (shard {self.shard_index} of "
                f"{self.shards}) rejected {payload.get('op')!r}: "
                f"{reply.get('error')}"
            )
        return reply

    # -- the driving surface the coordinator uses -----------------------

    def open(self):
        return self

    def close(self) -> None:
        if self._began:
            self._began = False
            try:
                self._client.request(
                    {"op": "shard_stop", "matrix": self.matrix}
                )
            except (OSError, ConnectionError, ValueError):
                pass  # the peer may already be gone; close is best-effort
        self._client.close()

    def _ensure_pool(self):
        return self

    @property
    def pool_active(self) -> bool:
        return self._began

    def begin(self, x0: np.ndarray, b: np.ndarray) -> None:
        x0 = np.asarray(x0, dtype=np.float64)
        reply = self._request(
            {
                "op": "shard_begin",
                "matrix": self.matrix,
                "shard": self.shard_index,
                "shards": self.shards,
                "bounds": [[r0, r1] for r0, r1 in self._bounds],
                "x0": np.ascontiguousarray(x0),
                "b": np.ascontiguousarray(b, dtype=np.float64),
                "nproc": self.nproc,
                "capacity_k": self.capacity_k,
                "seed": self.seed,
                "params": self.params,
            }
        )
        self._began = True
        self.spawn_count = int(reply.get("spawn_count", 1))
        self._x = x0.copy()
        self._pending_retire = []

    def retire_columns(self, cols) -> None:
        self._pending_retire.extend(int(c) for c in np.asarray(cols))

    def advance(self, count: int) -> None:
        retire, self._pending_retire = self._pending_retire, []
        reply = self._request(
            {
                "op": "shard_advance",
                "matrix": self.matrix,
                "count": int(count),
                "retire": retire,
            }
        )
        r0, r1 = self._bounds[self.shard_index]
        block = np.asarray(reply["rows"], dtype=np.float64)
        if self._x is not None:
            self._x[r0:r1] = block
        stats = reply.get("stats", {})
        per_worker = stats.get("per_worker")
        if per_worker is not None:
            self._per_worker = [int(c) for c in per_worker]
        self.sync_points = int(stats.get("sync_points", self.sync_points))
        self.wall_time = float(stats.get("wall_time", self.wall_time))
        self._column_updates = int(
            stats.get("column_updates", self._column_updates)
        )
        self._total_row_nnz = int(
            stats.get("total_row_nnz", self._total_row_nnz)
        )
        delay = stats.get("delay")
        if delay:
            self._delay = DelayStats(
                count=int(delay.get("count", 0)),
                mean=float(delay.get("mean", 0.0)),
                max=int(delay.get("max", 0)),
                samples=np.empty(0, dtype=np.int64),
            )

    def x(self) -> np.ndarray:
        # The full-height block the drive loop publishes from. Halo
        # rows are whatever the coordinator last wrote back — the
        # host's own exchange already ran node-to-node.
        if self._x is None:
            raise ModelError(
                f"peer {self.address} shard proxy read before begin()"
            )
        return self._x

    # -- stat readbacks (cached from the last advance reply) ------------

    def per_worker(self) -> list[int]:
        return list(self._per_worker)

    def column_updates(self) -> int:
        return self._column_updates

    def total_row_nnz(self) -> int:
        return self._total_row_nnz

    def delay_stats(self) -> DelayStats:
        return self._delay

"""The shard host: one ``repro serve`` instance as one shard of a solve.

``repro serve --shard-of NAME --peers HOST:PORT,...`` turns a gateway
into a :class:`ShardHost`: a server that owns **one rectangular shard**
of a row-partitioned system and answers the machine-to-machine shard
verbs instead of solve traffic. A remote coordinator (``repro solve
--nodes ...`` or a registry matrix registered with ``nodes=[...]``)
scatters the partition with ``shard_begin``, drives epochs with
``shard_advance``, and judges convergence on its own assembled global
residual; between epochs the host exchanges halo rows **directly with
its peer ring** over the ``halo_push``/``halo_pull`` verbs — the
coordinator never relays halo traffic.

The exchange is the :class:`~repro.execution.halo.WireHalo` transport:
pushes are best-effort (a dead or partitioned peer costs staleness,
never an epoch), pulls are served from the local mirror's last
snapshot, and every push/pull/failure/reconnect is counted — the
host's ``GET /v1/metrics`` scrape renders them as the
``repro_halo_*`` families.

The host is deliberately *not* a solve server: ``submit`` refuses with
a pointer at the coordinator, and the ``stats``/``matrices``/
``metrics`` verbs answer with the shard-host payload so fleet
monitoring can scrape every node uniformly.
"""

from __future__ import annotations

import threading

import numpy as np

from ..exceptions import ServeError
from ..execution.halo import WireHalo
from ..execution.sharded import (
    _SHARD_STREAM_BASE,
    _default_shard_factory,
    _row_slice,
)
from ..execution.simulator import _prepare_system
from ..rng import DirectionStream

__all__ = ["ShardHost"]


class ShardHost:
    """One shard of a row-partitioned system behind the serve wire.

    Parameters
    ----------
    A:
        The **full** square system (loaded from the host's
        ``--shard-of NAME=SPEC``); the host slices its own rectangle
        from the coordinator's ``shard_begin`` bounds. Every host in
        the ring must load the same matrix.
    name:
        The matrix id shard and halo traffic is addressed to.
    peers:
        The *other* hosts of the ring, as ``"HOST:PORT"`` strings —
        where this host pushes its owned rows after each epoch.
    nproc:
        Default worker threads for the shard's pool (the
        coordinator's ``shard_begin`` may override).
    shard_factory, client_factory:
        Test seams: the pool builder (the ``shard_factory`` surface of
        :mod:`repro.execution.sharded`) and the wire-client builder
        handed to :class:`WireHalo`.
    """

    def __init__(
        self,
        A,
        *,
        name: str = "default",
        peers: list[str] = (),
        nproc: int = 1,
        shard_factory=None,
        client_factory=None,
    ):
        self.A = A
        self.name = str(name)
        self.peers = [str(p) for p in peers]
        self.nproc = int(nproc)
        self._factory = (
            shard_factory if shard_factory is not None else _default_shard_factory
        )
        self._client_factory = client_factory
        # Validates the square positive-diagonal contract up front and
        # yields the diagonal the shard's norms slot needs.
        _, self._diag, self.n = _prepare_system(A, np.zeros(A.shape[0]))
        self._oplock = threading.Lock()
        self._shard = None
        self._shards = None
        self._bounds = None
        self._rows = None
        self._halo_rows = None
        self._k = None
        self._solver = None
        self._pool = None
        self._halo: WireHalo | None = None
        self._sweeps = 0
        self._begins = 0
        self._last_halo: dict = {}
        self._closed = False

    # -- the solve surface a shard host refuses -------------------------

    def submit(self, **kwargs):
        raise ServeError(
            f"this server is shard host {self.name!r} and does not take "
            "solve requests; submit the solve to the coordinator "
            "(`repro solve --nodes ...` or a registry matrix registered "
            "with nodes=[...])"
        )

    # -- shard verbs (dispatched by the front-end) ----------------------

    def _check_matrix(self, payload: dict) -> None:
        matrix = payload.get("matrix", "default")
        if matrix not in (self.name, "default"):
            raise ServeError(
                f"this host serves shards of {self.name!r}, not "
                f"{matrix!r}"
            )

    def shard_begin(self, payload: dict) -> dict:
        self._check_matrix(payload)
        shard = int(payload["shard"])
        shards = int(payload["shards"])
        bounds = [(int(r0), int(r1)) for r0, r1 in payload["bounds"]]
        if len(bounds) != shards:
            raise ServeError(
                f"shard_begin names {shards} shard(s) but carries "
                f"{len(bounds)} bound pair(s)"
            )
        if not 0 <= shard < shards:
            raise ServeError(
                f"shard index {shard} is out of range for {shards} "
                "shard(s)"
            )
        if bounds[0][0] != 0 or bounds[-1][1] != self.n or any(
            b0 >= b1 for b0, b1 in bounds
        ):
            raise ServeError(
                f"shard bounds {bounds} do not tile the {self.n}-row "
                f"system this host loaded for {self.name!r} — every "
                "host in the ring must load the same matrix"
            )
        x0 = np.asarray(payload["x0"], dtype=np.float64)
        if x0.ndim == 1 and x0.size == self.n:
            x0 = x0.reshape(self.n, 1)
        r0, r1 = bounds[shard]
        b = np.asarray(payload["b"], dtype=np.float64)
        if b.ndim == 1 and b.size == r1 - r0:
            b = b.reshape(r1 - r0, 1)
        if (
            x0.ndim != 2
            or x0.shape[0] != self.n
            or b.shape != (r1 - r0, x0.shape[1])
        ):
            raise ServeError(
                f"shard_begin geometry mismatch: x0 {x0.shape} / b "
                f"{b.shape} against rows [{r0}, {r1}) of an "
                f"n={self.n} system"
            )
        # The pool options, forwarded as given.
        params = dict(payload.get("params") or {})
        nproc = int(payload.get("nproc") or self.nproc)
        capacity_k = int(payload.get("capacity_k") or x0.shape[1])
        seed = int(payload.get("seed") or 0)
        A_s = _row_slice(self.A, r0, r1)
        n_s = r1 - r0
        cols = A_s.indices
        foreign = cols[(cols < r0) | (cols >= r1)]
        with self._oplock:
            if self._closed:
                raise ServeError("shard host is closed")
            self._teardown()
            solver = self._factory(
                shard,
                A_s,
                b,
                self._diag[r0:r1],
                offset=r0,
                n_rows=n_s,
                x_rows=self.n,
                b_rows=n_s,
                nproc=nproc,
                directions=DirectionStream(
                    n_s, seed=seed, stream=_SHARD_STREAM_BASE + shard
                ),
                capacity_k=capacity_k,
                **params,
            )
            solver.open()
            try:
                pool = solver._ensure_pool()
                pool.begin(x0, b)
                retire = payload.get("retire") or []
                if retire:
                    pool.retire_columns(
                        np.asarray(sorted(int(c) for c in retire), dtype=np.int64)
                    )
            except BaseException:
                solver.close()
                raise
            self._solver, self._pool = solver, pool
            self._shard, self._shards = shard, shards
            self._bounds, self._rows = bounds, (r0, r1)
            self._halo_rows = np.unique(foreign)
            self._k = x0.shape[1]
            self._sweeps = 0
            self._begins += 1
            self._halo = WireHalo(
                x0,
                bounds,
                shard=shard,
                peers=self.peers,
                matrix=self.name,
                client_factory=self._client_factory,
            )
        return {
            "matrix": self.name,
            "shard": shard,
            "shards": shards,
            "rows": [r0, r1],
            "halo_rows": int(self._halo_rows.size),
            "spawn_count": int(solver.spawn_count),
            "peers": list(self.peers),
        }

    def shard_advance(self, payload: dict) -> dict:
        self._check_matrix(payload)
        with self._oplock:
            pool, halo = self._pool, self._halo
            if pool is None or halo is None:
                raise ServeError(
                    "shard_advance before shard_begin: this host has no "
                    "active shard"
                )
            r0, r1 = self._rows
            count = int(payload["count"])
            retire = payload.get("retire") or []
            if retire:
                pool.retire_columns(
                    np.asarray([int(c) for c in retire], dtype=np.int64)
                )
            pool.advance(count)
            self._sweeps += max(1, count // max(1, r1 - r0))
            xv = pool.x()
            # The host-side halo exchange: publish the owned block to
            # the peer ring (best effort — a dead peer never blocks
            # this epoch), then pull whatever snapshot the mirror has.
            halo.publish(self._shard, xv[r0:r1, : self._k], self._sweeps)
            if self._halo_rows.size:
                values, _ages = halo.pull(self._halo_rows)
                xv[self._halo_rows, : self._k] = values
            delay = pool.delay_stats()
            return {
                "matrix": self.name,
                "shard": self._shard,
                # A copy taken under the lock: the reply is written
                # after it is released, when the pool may be gone.
                "rows": xv[r0:r1, : self._k].copy(),
                "generation": self._sweeps,
                "stats": {
                    "per_worker": [int(c) for c in pool.per_worker()],
                    "sync_points": int(pool.sync_points),
                    "wall_time": float(pool.wall_time),
                    "column_updates": int(pool.column_updates()),
                    "total_row_nnz": int(pool.total_row_nnz()),
                    "delay": {
                        "count": int(delay.count),
                        "mean": float(delay.mean),
                        "max": int(delay.max),
                    },
                },
            }

    def halo_push(self, payload: dict) -> dict:
        self._check_matrix(payload)
        halo = self._halo
        if halo is None:
            # A peer can legitimately publish before this host's own
            # shard_begin lands; dropping the push costs staleness only
            # (the next one lands in the mirror).
            return {"matrix": self.name, "applied": False, "reason": "no active shard"}
        applied = halo.receive(
            shard=payload["shard"],
            r0=payload["r0"],
            r1=payload["r1"],
            rows=payload["rows"],
            generation=payload["generation"],
        )
        return {"matrix": self.name, "applied": bool(applied)}

    def halo_pull(self, payload: dict) -> dict:
        self._check_matrix(payload)
        halo = self._halo
        if halo is None:
            raise ServeError(
                "halo_pull before shard_begin: this host has no active "
                "shard"
            )
        values, ages = halo.read_rows(payload["rows"])
        return {
            "matrix": self.name,
            "values": values,
            "ages": [int(a) for a in ages],
        }

    def shard_stop(self, payload: dict) -> dict:
        self._check_matrix(payload)
        with self._oplock:
            had = self._pool is not None
            self._teardown()
        return {"matrix": self.name, "stopped": bool(had)}

    # -- monitoring surface (stats / matrices / metrics verbs) ----------

    def stats_payload(self, matrix: str | None = None) -> dict:
        if matrix is not None and matrix not in (self.name, "default"):
            raise ServeError(
                f"this host serves shards of {self.name!r}, not "
                f"{matrix!r}"
            )
        halo = self._halo
        solver = self._solver
        return {
            "role": "shard_host",
            "matrix": self.name,
            "shard": self._shard,
            "shards": self._shards,
            "rows": list(self._rows) if self._rows else None,
            "epochs": int(self._sweeps),
            "begins": int(self._begins),
            "spawn_count": int(solver.spawn_count) if solver else 0,
            "peers": list(self.peers),
            # A stopped shard keeps its last exchange counters: the
            # scrape after a solve finishes must still see the traffic.
            "halo": halo.counters() if halo is not None else dict(self._last_halo),
        }

    def matrices_payload(self) -> list[dict]:
        return [
            {
                "matrix": self.name,
                "n": int(self.n),
                "nnz": int(self.A.nnz),
                "role": "shard_host",
                "shard": self._shard,
                "shards": self._shards,
                "peers": list(self.peers),
            }
        ]

    # -- lifecycle ------------------------------------------------------

    def _teardown(self) -> None:
        """Drop the active shard (callers hold ``_oplock``)."""
        solver, halo = self._solver, self._halo
        self._solver = self._pool = None
        self._halo = None
        if halo is not None:
            self._last_halo = halo.counters()
            halo.close()
        if solver is not None:
            try:
                solver.close()
            except Exception:
                pass

    def close(self) -> None:
        with self._oplock:
            self._closed = True
            self._teardown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

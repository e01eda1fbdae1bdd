"""Multi-node serving bench: a shard-host ring on real sockets.

``repro experiment multinode`` runs the full multi-node serving path
end to end, in one process but over real TCP: ``nodes`` shard hosts
(the engine behind ``repro serve --shard-of``) boot on ephemeral
ports, form a peer ring, and a :class:`~repro.execution.ShardedSolver`
coordinator drives them via ``nodes=[...]`` — exactly the wire
topology of the CI multinode job and of a production ring, minus the
process boundary.

The knob under study is the halo-exchange cadence
(``sync_every_sweeps``): halos cross the wire only at epoch
boundaries, so longer epochs mean fewer socket round-trips and staler
boundary rows. For each cadence the bench records:

1. *The wire curve*: convergence trajectory, sweep/update counts, and
   wall time of the coordinated solve over the TCP ring.
2. *The local control*: the same system, seed, and cadence through the
   in-process :class:`LocalBoard` transport — what the staleness knob
   costs with the wire taken out.
3. *The halo ledger*: each host's per-solve push/receive/stale-drop
   counters (the numbers ``GET /v1/metrics`` exports as
   ``repro_halo_*``), asserted conserved in the payload: every push
   that did not fail was received or dropped stale somewhere.

The payload lands in ``results/BENCH_multinode.json`` (uploaded by the
benchmarks CI job next to ``BENCH_shard.json``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError
from ..execution import ShardedSolver
from ..serve import ShardHost, make_tcp_server
from ..workloads import laplacian_2d
from .fig_shard import _thin
from .reporting import render_table, save_json

__all__ = ["MultinodeBenchResult", "run_multinode"]

#: Matrix name the hosts serve shards of (and the coordinator targets).
_MATRIX = "bench"


@dataclass
class MultinodeBenchResult:
    """Convergence-vs-cadence measurements over a shard-host TCP ring."""

    nx: int
    n: int
    nnz: int
    nodes: int
    nproc: int
    capacity_k: int
    tol: float
    max_sweeps: int
    seed: int
    #: The ring's ``host:port`` addresses (ephemeral, per run).
    addrs: list[str]
    #: One entry per ``sync_every_sweeps`` setting.
    curves: list[dict] = field(default_factory=list)

    def rows(self):
        return [
            [
                c["sync_every_sweeps"],
                c["converged"],
                c["sweeps"],
                c["local_sweeps"],
                c["updates"],
                sum(h["pushes"] for h in c["halo"]),
                sum(h["stale_drops"] for h in c["halo"]),
                f"{c['final_residual']:.2e}",
                f"{c['wall_s']:.2f}",
            ]
            for c in self.curves
        ]

    def table(self) -> str:
        return render_table(
            ["halo every [sweeps]", "converged", "sweeps",
             "sweeps (local)", "updates", "halo pushes", "stale drops",
             "assembled residual", "wall [s]"],
            self.rows(),
            title=(
                f"Multi-node AsyRGS — {self.nx}x{self.nx} Laplacian "
                f"(n={self.n}, nnz={self.nnz}) over {self.nodes} shard "
                f"hosts x {self.nproc} worker(s) on 127.0.0.1, "
                f"tol={self.tol:g}: halos ride best-effort halo_push "
                f"links, so a staler cadence pays sweeps and saves "
                f"round-trips, never correctness"
            ),
        )

    def payload(self) -> dict:
        return {
            "nx": self.nx,
            "n": self.n,
            "nnz": self.nnz,
            "nodes": self.nodes,
            "nproc": self.nproc,
            "capacity_k": self.capacity_k,
            "tol": self.tol,
            "max_sweeps": self.max_sweeps,
            "seed": self.seed,
            "addrs": self.addrs,
            "curves": self.curves,
        }


@contextmanager
def _ring(A, nodes: int, nproc: int):
    """``nodes`` shard hosts behind TCP front-ends, peers wired into a
    full ring. Yields ``(hosts, addrs)``; tears everything down on the
    way out (front-end threads are daemons, so failures cannot wedge
    the bench process)."""
    hosts = [ShardHost(A, name=_MATRIX, nproc=nproc) for _ in range(nodes)]
    servers, threads = [], []
    try:
        for h in hosts:
            srv = make_tcp_server(h, "127.0.0.1", 0)
            t = threading.Thread(target=srv.serve_forever, daemon=True)
            t.start()
            servers.append(srv)
            threads.append(t)
        addrs = [
            f"{srv.server_address[0]}:{srv.server_address[1]}"
            for srv in servers
        ]
        # Peers are read at shard_begin time, so wiring after boot is
        # race-free: every host pushes to every other host.
        for i, h in enumerate(hosts):
            h.peers = [a for j, a in enumerate(addrs) if j != i]
        yield hosts, addrs
    finally:
        for srv in servers:
            srv.shutdown()
            srv.server_close()
        for t in threads:
            t.join(timeout=10.0)
        for h in hosts:
            h.close()


def _halo_ledger(hosts) -> list[dict]:
    """Each host's per-solve halo counters, flattened for the payload
    (per-peer dicts summed — the per-peer split is the metrics
    scrape's job)."""
    out = []
    for h in hosts:
        c = h.stats_payload()["halo"]
        out.append(
            {
                "pushes": sum(c.get("pushes", {}).values()),
                "push_failures": sum(
                    c.get("push_failures", {}).values()
                ),
                "reconnects": sum(c.get("reconnects", {}).values()),
                "received": int(c.get("received", 0)),
                "stale_drops": int(c.get("stale_drops", 0)),
                "pull_serves": int(c.get("pull_serves", 0)),
                "generation": int(c.get("generation", 0)),
            }
        )
    return out


def run_multinode(
    *,
    nx: int = 24,
    nodes: int = 2,
    nproc: int = 1,
    capacity_k: int = 4,
    tol: float = 1e-6,
    max_sweeps: int = 40000,
    cadences: tuple = (1, 2, 4, 8),
    seed: int = 0,
    persist: bool = True,
) -> MultinodeBenchResult:
    """Convergence vs halo cadence across ``nodes`` local shard hosts.

    One ring per cadence setting (fresh hosts, fresh counters), each
    paired with an in-process control solve on the same stream. The
    payload lands in ``results/BENCH_multinode.json``.
    """
    if nodes < 2:
        raise ModelError(
            f"the multinode bench needs at least 2 nodes, got {nodes}"
        )
    A = laplacian_2d(int(nx))
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)

    curves: list[dict] = []
    addrs_seen: list[str] = []
    for cadence in cadences:
        with _ring(A, nodes, nproc) as (hosts, addrs):
            addrs_seen = addrs
            solver = ShardedSolver(
                A, b, shards=nodes, nproc=nproc, capacity_k=capacity_k,
                seed=seed, nodes=addrs, node_matrix=_MATRIX,
                barrier_timeout=60.0,
            )
            start = time.perf_counter()
            res = solver.solve(tol=tol, max_sweeps=max_sweeps,
                               sync_every_sweeps=int(cadence))
            wall = time.perf_counter() - start
            ledger = _halo_ledger(hosts)

        # The local control: same system, seed, and cadence through
        # LocalBoard — the cadence's cost with the wire taken out.
        local = ShardedSolver(
            A, b, shards=nodes, nproc=nproc, capacity_k=capacity_k,
            seed=seed,
        ).solve(tol=tol, max_sweeps=max_sweeps,
                sync_every_sweeps=int(cadence))

        delivered = sum(
            h["pushes"] - h["push_failures"] for h in ledger
        )
        curves.append(
            {
                "sync_every_sweeps": int(cadence),
                "converged": bool(res.converged),
                "sweeps": int(res.sweeps_done),
                "updates": int(res.iterations),
                "final_residual": float(res.checkpoints[-1][1]),
                "shard_updates": [int(u) for u in res.shard_updates],
                "shard_sweeps": [int(s) for s in res.shard_sweeps],
                "wall_s": float(wall),
                "checkpoints": _thin(res.checkpoints),
                "local_converged": bool(local.converged),
                "local_sweeps": int(local.sweeps_done),
                "local_updates": int(local.iterations),
                "halo": ledger,
                # Wire conservation: every successfully pushed block
                # was either applied or dropped stale by its receiver.
                "halo_conserved": delivered
                == sum(h["received"] + h["stale_drops"] for h in ledger),
            }
        )

    out = MultinodeBenchResult(
        nx=int(nx),
        n=n,
        nnz=A.nnz,
        nodes=int(nodes),
        nproc=int(nproc),
        capacity_k=int(capacity_k),
        tol=float(tol),
        max_sweeps=int(max_sweeps),
        seed=int(seed),
        addrs=list(addrs_seen),
        curves=curves,
    )
    if persist:
        save_json("BENCH_multinode", out.payload())
    return out

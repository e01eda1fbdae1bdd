"""Sharded-solve bench: staleness cadence, and the one-pool control.

``repro experiment shard`` runs the row-partitioned multi-pool path
end to end on a 2-D Laplacian:

1. *The staleness curve*: halo entries are only exchanged at each
   shard's epoch boundaries, so the epoch length (``sync_every_sweeps``)
   is the staleness knob — longer epochs mean fewer exchanges and
   staler boundary reads. The bench sweeps it and records each
   setting's convergence trajectory (cumulative updates vs. assembled
   residual, straight from the coordinator's checkpoints) plus
   per-shard update counts and measured in-pool delays.
2. *The one-pool control*: a single pool with the same total worker
   count (``nproc · shards``) solves the same system to the same
   ``tol`` from the same seed, and its wall time and updates sit next
   to the cadence curves — the comparison sharding is kept for (one
   pool at ``nproc > 1`` shares one iterate; shards keep private ones).
3. *Serial equivalence*: :func:`~repro.execution.make_solver` at
   ``shards=1`` is run against the plain single-pool solver on the
   same stream and verified bit-identical — the invariant of the one
   solver factory, asserted in the payload, not just in the test suite.

The payload lands in ``results/BENCH_shard.json`` (CI uploads it from
the benchmarks job).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..execution import ProcessAsyRGS, ShardedSolver, make_solver
from ..rng import DirectionStream
from ..workloads import laplacian_2d
from .reporting import render_table, save_json

__all__ = ["ShardBenchResult", "run_shard"]


@dataclass
class ShardBenchResult:
    """Convergence-vs-staleness measurements for the sharded solver."""

    nx: int
    n: int
    nnz: int
    shards: int
    nproc: int
    capacity_k: int
    tol: float
    max_sweeps: int
    seed: int
    #: The one-pool control: ``nproc · shards`` workers on one iterate.
    single_pool: dict
    #: ``make_solver(shards=1)`` vs the plain pool: bitwise-equal iterates.
    serial_equivalent: bool
    #: One entry per ``sync_every_sweeps`` setting.
    curves: list[dict] = field(default_factory=list)

    def rows(self):
        return [
            [
                c["sync_every_sweeps"],
                c["exchanges"],
                c["converged"],
                c["sweeps"],
                c["updates"],
                f"{c['final_residual']:.2e}",
                c["tau_max"],
                f"{c['wall_s']:.2f}",
            ]
            for c in self.curves
        ]

    def table(self) -> str:
        balance = ""
        if self.curves:
            u = self.curves[0]["shard_updates"]
            if u and min(u) > 0:
                balance = (
                    f"; shard balance at cadence "
                    f"{self.curves[0]['sync_every_sweeps']}: "
                    f"max/min = {max(u) / min(u):.3f}"
                )
        return render_table(
            ["halo every [sweeps]", "exchanges", "converged", "sweeps",
             "updates", "assembled residual", "tau max", "wall [s]"],
            self.rows(),
            title=(
                f"Sharded AsyRGS — {self.nx}x{self.nx} Laplacian "
                f"(n={self.n}, nnz={self.nnz}) over {self.shards} pools "
                f"x {self.nproc} worker(s), tol={self.tol:g}: one pool "
                f"x {self.single_pool['nproc']} workers took "
                f"{self.single_pool['wall_s']:.2f} s and "
                f"{self.single_pool['updates']} updates; staler halos "
                f"pay sweeps, never correctness{balance}"
            ),
        )

    def payload(self) -> dict:
        return {
            "nx": self.nx,
            "n": self.n,
            "nnz": self.nnz,
            "shards": self.shards,
            "nproc": self.nproc,
            "capacity_k": self.capacity_k,
            "tol": self.tol,
            "max_sweeps": self.max_sweeps,
            "seed": self.seed,
            "single_pool": self.single_pool,
            "serial_equivalent": self.serial_equivalent,
            "curves": self.curves,
        }


def _thin(checkpoints, keep: int = 200) -> list[list]:
    """Subsample a trajectory to at most ``keep`` points, endpoints
    included — a cadence-1 solve records thousands of coordinator
    checkpoints, far denser than any plot needs."""
    pts = [[int(u), float(r)] for u, r in checkpoints]
    if len(pts) <= keep:
        return pts
    idx = np.unique(np.linspace(0, len(pts) - 1, keep).astype(int))
    return [pts[i] for i in idx]


def run_shard(
    *,
    nx: int = 32,
    shards: int = 4,
    nproc: int = 1,
    capacity_k: int = 4,
    tol: float = 1e-6,
    max_sweeps: int = 40000,
    cadences: tuple = (1, 2, 4, 8),
    seed: int = 0,
    persist: bool = True,
) -> ShardBenchResult:
    """Solve a Laplacian sharded, once per halo-exchange cadence in
    ``cadences``, and once on a single pool of ``nproc · shards``
    workers as the control. The payload lands in
    ``results/BENCH_shard.json``.
    """
    A = laplacian_2d(int(nx))
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)

    curves: list[dict] = []
    for cadence in cadences:
        solver = ShardedSolver(
            A, b, shards=shards, nproc=nproc, capacity_k=capacity_k,
            seed=seed,
        )
        start = time.perf_counter()
        res = solver.solve(tol=tol, max_sweeps=max_sweeps,
                           sync_every_sweeps=int(cadence))
        wall = time.perf_counter() - start
        curves.append(
            {
                "sync_every_sweeps": int(cadence),
                # Boundary crossings actually paid (pool sync points).
                "exchanges": int(res.sync_points),
                "converged": bool(res.converged),
                "sweeps": int(res.sweeps_done),
                "updates": int(res.iterations),
                "final_residual": float(res.checkpoints[-1][1]),
                "shard_updates": [int(u) for u in res.shard_updates],
                "shard_sweeps": [int(s) for s in res.shard_sweeps],
                "tau_max": int(res.tau_observed.max),
                "tau_mean": float(res.tau_observed.mean),
                "wall_s": float(wall),
                # The convergence trajectory: (cumulative updates,
                # assembled global residual) at coordinator checkpoints
                # — the staleness curve itself, thinned to a plottable
                # size (the endpoints always survive).
                "checkpoints": _thin(res.checkpoints),
            }
        )

    # The control: one pool, the same total worker count, one iterate.
    single = make_solver(
        "asyrgs", A, b, nproc=nproc * shards, capacity_k=capacity_k,
        directions=DirectionStream(n, seed=seed),
    )
    start = time.perf_counter()
    res = single.solve(tol=tol, max_sweeps=max_sweeps)
    single_pool = {
        "nproc": int(nproc * shards),
        "converged": bool(res.converged),
        "sweeps": int(res.sweeps_done),
        "updates": int(res.iterations),
        "final_residual": float(res.checkpoints[-1][1]),
        "wall_s": float(time.perf_counter() - start),
    }

    # Serial equivalence: the factory's one shard is the classic pool.
    small = laplacian_2d(12)
    bs = np.arange(1.0, small.shape[0] + 1.0)
    r_one = make_solver(
        "asyrgs", small, bs, shards=1, nproc=1,
        directions=DirectionStream(small.shape[0], seed=seed),
    ).solve(tol=tol, max_sweeps=200, sync_every_sweeps=2)
    r_ref = ProcessAsyRGS(
        small, bs, nproc=1,
        directions=DirectionStream(small.shape[0], seed=seed),
    ).solve(tol=tol, max_sweeps=200, sync_every_sweeps=2)
    serial_equivalent = bool(np.array_equal(r_one.x, r_ref.x))

    out = ShardBenchResult(
        nx=int(nx),
        n=n,
        nnz=A.nnz,
        shards=int(shards),
        nproc=int(nproc),
        capacity_k=int(capacity_k),
        tol=float(tol),
        max_sweeps=int(max_sweeps),
        seed=int(seed),
        single_pool=single_pool,
        serial_equivalent=serial_equivalent,
        curves=curves,
    )
    if persist:
        save_json("BENCH_shard", out.payload())
    return out

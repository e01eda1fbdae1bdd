"""Sharded-solve bench: one matrix too big for one box.

``repro experiment shard`` demonstrates the row-partitioned multi-pool
path end to end on a 2-D Laplacian sized so that **one pool's
buffer does not fit the configured budget** while each of the N
shards' rectangular layouts does:

1. *The refusal*: building the single-pool solver under ``shm_limit``
   (:func:`~repro.execution.make_solver` at ``shards=1``) raises
   :class:`~repro.exceptions.ModelError` naming the overrun and the
   sharding escape hatch. The bench records the exact byte
   accounting (:func:`~repro.execution.segment_bytes` per layout).
2. *The sharded solve*: the same system under the same budget, split
   across ``shards`` pools, converges below ``tol`` on the assembled
   global residual.
3. *The staleness curve*: halo entries are only exchanged at each
   shard's epoch boundaries, so the epoch length (``sync_every_sweeps``)
   is the staleness knob — longer epochs mean fewer exchanges and
   staler boundary reads. The bench sweeps it and records each
   setting's convergence trajectory (cumulative updates vs. assembled
   residual, straight from the coordinator's checkpoints) plus
   per-shard update counts and measured in-pool delays.
4. *The control*: :func:`~repro.execution.make_solver` at ``shards=1``
   (without the budget) is run against the plain single-pool solver on
   the same stream and verified bit-identical — the serial-equivalence
   invariant of the one solver factory, asserted in the payload, not
   just in the test suite.

The payload lands in ``results/BENCH_shard.json`` (the first serve-side
BENCH artifact; CI uploads it from the benchmarks job).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError
from ..execution import ProcessAsyRGS, ShardedSolver, make_solver, segment_bytes
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
    #: The per-pool memory budget (bytes) the run was gated on.
    shm_limit: int
    #: What one pool spanning the whole system would need.
    single_pool_bytes: int
    #: What each shard's rectangular layout needs.
    shard_bytes: list[int]
    #: The single-pool refusal message under ``shm_limit``.
    refusal: str
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
                f"x {self.nproc} worker(s), tol={self.tol:g}: single "
                f"pool needs {self.single_pool_bytes} B, budget "
                f"{self.shm_limit} B (each shard <= "
                f"{max(self.shard_bytes)} B); staler halos pay sweeps, "
                f"never correctness{balance}"
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
            "shm_limit": self.shm_limit,
            "single_pool_bytes": self.single_pool_bytes,
            "shard_bytes": self.shard_bytes,
            "refusal": self.refusal,
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
    """Solve a Laplacian that exceeds one pool's memory budget, sharded.

    ``shm_limit`` is derived, not configured: strictly between the
    largest shard's layout and the single pool's layout, so the same
    budget that refuses the unsharded solver admits every shard — the
    "too big for one box" regime by construction at any size. The
    staleness sweep then solves the same system once per halo-exchange
    cadence in ``cadences``. The payload lands in
    ``results/BENCH_shard.json``.
    """
    A = laplacian_2d(int(nx))
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)

    single_need = segment_bytes(
        n_rows=n, x_rows=n, b_rows=n, nnz=A.nnz,
        capacity_k=capacity_k, nproc=nproc,
    )
    # Shard needs, from a throwaway coordinator (it computes the exact
    # per-shard layouts on construction).
    probe = ShardedSolver(
        A, b, shards=shards, nproc=nproc, capacity_k=capacity_k,
        seed=seed, shm_limit=single_need,
    )
    shard_need = list(probe.segment_bytes_per_shard)
    shm_limit = (max(shard_need) + single_need) // 2
    if not max(shard_need) < shm_limit < single_need:
        raise ModelError(
            f"bench geometry cannot exhibit the budget gap: shards need "
            f"{shard_need} B, one pool {single_need} B — raise nx or "
            "shards"
        )

    try:
        make_solver(
            "asyrgs", A, b, shards=1, nproc=nproc, capacity_k=capacity_k,
            directions=DirectionStream(n, seed=seed), shm_limit=shm_limit,
        )
        refusal = ""
    except ModelError as exc:
        refusal = str(exc)
    if not refusal:
        raise ModelError(
            "single-pool layout unexpectedly fit the shard-sized budget"
        )

    curves: list[dict] = []
    for cadence in cadences:
        solver = ShardedSolver(
            A, b, shards=shards, nproc=nproc, capacity_k=capacity_k,
            seed=seed, shm_limit=shm_limit,
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
        shm_limit=int(shm_limit),
        single_pool_bytes=int(single_need),
        shard_bytes=[int(v) for v in shard_need],
        refusal=refusal,
        serial_equivalent=serial_equivalent,
        curves=curves,
    )
    if persist:
        save_json("BENCH_shard", out.payload())
    return out

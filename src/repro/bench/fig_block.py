"""Benchmark: block (multi-RHS) throughput and persistent-pool reuse.

Two measurements the paper's Section 9 setup motivates and the
single-RHS, spawn-per-call backend could not make:

* **block vs loop** — the same per-column update budget applied once to
  a ``(n, k)`` RHS block (one row gather per update serves all ``k``
  columns, the paper's 51-label amortization) versus ``k`` independent
  single-RHS runs. Both process exactly ``k · sweeps · n`` column
  updates, so the wall-clock ratio is the pure amortization factor.
* **pool reuse** — ``repeats`` consecutive solves served by one
  persistent worker pool (workers started once) versus the same
  solves each paying a pool start.
  This is the serving regime: many requests against one matrix.

All timings are end-to-end wall clock including pool startup — the
honest number for a serving workload, unlike the in-pool ``wall_time``
the strong-scaling bench reports.

A third measurement, :func:`run_block_retirement`, quantifies
**per-column retirement** on the 51-label ``social-labels`` workload:
label difficulty is skewed, so with retirement the easy labels leave
the active set early and the solve spends its remaining row gathers on
the hard ones only — measurably fewer total column updates for the
same per-column tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..core.residuals import ConvergenceHistory, relative_residual
from ..execution import ProcessAsyRGS, available_cpus
from ..rng import DirectionStream
from ..workloads import get_problem
from .reporting import render_table, save_json

__all__ = [
    "BlockBenchResult",
    "run_block",
    "BlockRetirementResult",
    "run_block_retirement",
]


@dataclass
class BlockBenchResult:
    """Block-throughput and pool-reuse measurements for one problem.

    ``block_speedup = loop_wall / block_wall`` is the amortization won
    by updating all columns from one row gather; ``reuse_speedup =
    oneshot_wall / pooled_wall`` is what the persistent pool saves by
    not restarting worker threads and rebuilding the pool buffer per call.
    """

    problem: str
    n: int
    labels: int
    nproc: int
    sweeps: int
    repeats: int
    cpus: int
    block_wall: float
    loop_wall: float
    block_residual: float
    loop_residual: float
    pooled_wall: float
    oneshot_wall: float
    spawns_pooled: int
    spawns_oneshot: int

    @property
    def block_speedup(self) -> float:
        return self.loop_wall / self.block_wall if self.block_wall > 0 else float("nan")

    @property
    def reuse_speedup(self) -> float:
        return self.oneshot_wall / self.pooled_wall if self.pooled_wall > 0 else float("nan")

    def rows(self):
        col_updates = self.labels * self.sweeps * self.n
        return [
            ["block (1 run, k cols)", self.block_wall,
             col_updates / self.block_wall if self.block_wall > 0 else float("nan"),
             1, self.block_residual],
            [f"loop ({self.labels} single-RHS runs)", self.loop_wall,
             col_updates / self.loop_wall if self.loop_wall > 0 else float("nan"),
             self.labels, self.loop_residual],
            [f"pooled ({self.repeats} solves, 1 pool)", self.pooled_wall,
             float("nan"), self.spawns_pooled, self.block_residual],
            [f"one-shot ({self.repeats} solves)", self.oneshot_wall,
             float("nan"), self.spawns_oneshot, self.block_residual],
        ]

    def table(self) -> str:
        title = (
            f"Block AsyRGS — {self.problem} (n={self.n}, k={self.labels} labels), "
            f"{self.sweeps} sweeps/column on {self.nproc} worker(s), "
            f"{self.cpus} CPU(s); block amortization {self.block_speedup:.2f}x, "
            f"pool reuse {self.reuse_speedup:.2f}x"
        )
        return render_table(
            ["configuration", "wall [s]", "col-updates/s", "pools spawned",
             "final residual"],
            self.rows(),
            title=title,
        )

    def payload(self) -> dict:
        return {
            "problem": self.problem,
            "n": self.n,
            "labels": self.labels,
            "nproc": self.nproc,
            "sweeps": self.sweeps,
            "repeats": self.repeats,
            "cpus": self.cpus,
            "block_wall": self.block_wall,
            "loop_wall": self.loop_wall,
            "block_speedup": self.block_speedup,
            "block_residual": self.block_residual,
            "loop_residual": self.loop_residual,
            "pooled_wall": self.pooled_wall,
            "oneshot_wall": self.oneshot_wall,
            "reuse_speedup": self.reuse_speedup,
            "spawns_pooled": self.spawns_pooled,
            "spawns_oneshot": self.spawns_oneshot,
        }


def run_block(
    problem: str = "social-small",
    *,
    nproc: int = 2,
    labels: int = 8,
    sweeps: int = 6,
    repeats: int = 3,
    seed: int = 0,
    persist: bool = True,
) -> BlockBenchResult:
    """Measure block-vs-loop throughput and persistent-pool savings.

    Every run consumes the identical direction sequence from position 0
    (the Random123 pinning), so the block run and each column of the
    loop apply the same row updates — only the amortization and the pool
    lifecycle differ.
    """
    prob = get_problem(problem)
    A = prob.A
    n = A.shape[0]
    labels = int(labels)
    repeats = int(repeats)
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    B = prob.rhs_block(labels)
    budget = int(sweeps) * n

    # Block: one run updates all k columns per row gather.
    start = time.perf_counter()
    solver = ProcessAsyRGS(A, B, nproc=nproc, directions=DirectionStream(n, seed=seed))
    res_block = solver.run(None, budget)
    block_wall = time.perf_counter() - start
    block_residual = relative_residual(A, res_block.x, B)

    # Loop: one column at a time, a fresh pool per column (the status
    # quo before block support).
    X_loop = np.empty_like(B)
    start = time.perf_counter()
    for j in range(labels):
        backend = ProcessAsyRGS(
            A, B[:, j], nproc=nproc, directions=DirectionStream(n, seed=seed)
        )
        X_loop[:, j] = backend.run(None, budget).x
    loop_wall = time.perf_counter() - start
    loop_residual = relative_residual(A, X_loop, B)

    # Pool reuse: the same block run `repeats` times on one pool…
    start = time.perf_counter()
    with ProcessAsyRGS(
        A, B, nproc=nproc, directions=DirectionStream(n, seed=seed)
    ) as pooled:
        for _ in range(repeats):
            pooled.run(None, budget)
        spawns_pooled = pooled.spawn_count
    pooled_wall = time.perf_counter() - start

    # …versus `repeats` one-shot calls, each paying thread start + buffer
    # setup.
    start = time.perf_counter()
    spawns_oneshot = 0
    for _ in range(repeats):
        backend = ProcessAsyRGS(
            A, B, nproc=nproc, directions=DirectionStream(n, seed=seed)
        )
        backend.run(None, budget)
        spawns_oneshot += backend.spawn_count
    oneshot_wall = time.perf_counter() - start

    out = BlockBenchResult(
        problem=problem,
        n=n,
        labels=labels,
        nproc=int(nproc),
        sweeps=int(sweeps),
        repeats=repeats,
        cpus=available_cpus(),
        block_wall=block_wall,
        loop_wall=loop_wall,
        block_residual=block_residual,
        loop_residual=loop_residual,
        pooled_wall=pooled_wall,
        oneshot_wall=oneshot_wall,
        spawns_pooled=spawns_pooled,
        spawns_oneshot=spawns_oneshot,
    )
    if persist:
        save_json("fig_block", out.payload())
    return out


@dataclass
class BlockRetirementResult:
    """Update-count savings of per-column retirement for one problem.

    Both runs solve the same ``(n, k)`` block to the same per-column
    tolerance on one persistent pool; the retired run stops refreshing
    a column the epoch it reaches ``tol``, the full run keeps every
    column active until all of them are there. ``savings`` is the
    fraction of column updates retirement avoided.
    """

    problem: str
    n: int
    labels: int
    nproc: int
    tol: float
    converged_retire: bool
    converged_full: bool
    sweeps_retire: int
    sweeps_full: int
    col_updates_retire: int
    col_updates_full: int
    first_retirement: int
    last_retirement: int
    max_col_residual: float
    wall_retire: float
    wall_full: float
    reduction: float

    @property
    def savings(self) -> float:
        if self.col_updates_full <= 0:
            return float("nan")
        return 1.0 - self.col_updates_retire / self.col_updates_full

    def rows(self):
        return [
            ["retire", self.sweeps_retire, self.col_updates_retire,
             self.converged_retire, self.wall_retire],
            ["no-retire", self.sweeps_full, self.col_updates_full,
             self.converged_full, self.wall_full],
        ]

    def table(self) -> str:
        # reduction_factor is nan for a run that started converged; keep
        # the report honest instead of printing a perfect 0.0.
        reduction = "n/a" if math.isnan(self.reduction) else f"{self.reduction:.2e}"
        title = (
            f"Column retirement — {self.problem} (n={self.n}, "
            f"k={self.labels} labels) to tol={self.tol:g} on {self.nproc} "
            f"worker(s): {100.0 * self.savings:.1f}% fewer column updates, "
            f"columns retired between sweeps {self.first_retirement} and "
            f"{self.last_retirement}, worst final column residual "
            f"{self.max_col_residual:.2e}, aggregate reduction {reduction}"
        )
        return render_table(
            ["mode", "sweeps", "column updates", "converged", "wall [s]"],
            self.rows(),
            title=title,
        )

    def payload(self) -> dict:
        return {
            "problem": self.problem,
            "n": self.n,
            "labels": self.labels,
            "nproc": self.nproc,
            "tol": self.tol,
            "converged_retire": self.converged_retire,
            "converged_full": self.converged_full,
            "sweeps_retire": self.sweeps_retire,
            "sweeps_full": self.sweeps_full,
            "col_updates_retire": self.col_updates_retire,
            "col_updates_full": self.col_updates_full,
            "savings": self.savings,
            "first_retirement": self.first_retirement,
            "last_retirement": self.last_retirement,
            "max_col_residual": self.max_col_residual,
            "wall_retire": self.wall_retire,
            "wall_full": self.wall_full,
            "reduction": self.reduction,
        }


def run_block_retirement(
    problem: str = "social-labels",
    *,
    nproc: int = 2,
    labels: int | None = None,
    tol: float = 1e-3,
    max_sweeps: int = 600,
    sync_every_sweeps: int = 10,
    seed: int = 0,
    persist: bool = True,
) -> BlockRetirementResult:
    """Measure what early column retirement saves on a skewed block.

    Runs the same solve twice on one persistent pool — with retirement
    (the default) and with every column kept active — and reports the
    column-update counts. On ``social-labels`` the 51 label columns
    differ substantially in difficulty, so the retired run's active set
    shrinks long before the slowest label converges.
    """
    prob = get_problem(problem)
    A = prob.A
    n = A.shape[0]
    B = prob.rhs_block(labels) if labels is not None else (
        prob.B if prob.B is not None else prob.b[:, None]
    )
    k = B.shape[1]
    with ProcessAsyRGS(
        A, B, nproc=int(nproc), directions=DirectionStream(n, seed=seed)
    ) as solver:
        start = time.perf_counter()
        res_r = solver.solve(
            tol=tol, max_sweeps=max_sweeps, sync_every_sweeps=sync_every_sweeps
        )
        wall_retire = time.perf_counter() - start
        start = time.perf_counter()
        res_f = solver.solve(
            tol=tol, max_sweeps=max_sweeps, sync_every_sweeps=sync_every_sweeps,
            retire=False,
        )
        wall_full = time.perf_counter() - start
    history = ConvergenceHistory(label="block-retire", unit="update")
    for it, value in res_r.checkpoints:
        history.record(it, value)
    reduction = (
        history.reduction_factor() if len(history) >= 2 else float("nan")
    )
    retired = res_r.column_sweeps[res_r.column_sweeps >= 0]
    out = BlockRetirementResult(
        problem=problem,
        n=n,
        labels=k,
        nproc=int(nproc),
        tol=float(tol),
        converged_retire=res_r.converged,
        converged_full=res_f.converged,
        sweeps_retire=res_r.sweeps_done,
        sweeps_full=res_f.sweeps_done,
        col_updates_retire=res_r.column_updates,
        col_updates_full=res_f.column_updates,
        first_retirement=int(retired.min()) if retired.size else -1,
        last_retirement=int(retired.max()) if retired.size else -1,
        max_col_residual=float(res_r.column_residuals.max()),
        wall_retire=wall_retire,
        wall_full=wall_full,
        reduction=float(reduction),
    )
    if persist:
        save_json("fig_block_retirement", out.payload())
    return out

"""Benchmark: wall-clock strong scaling of the worker pool.

This is the experiment the simulators structurally cannot provide: a
fixed update budget (``sweeps · n`` commits of Algorithm 1) executed by
1, 2, … worker threads updating one iterate in one address space, each
running the native segment kernel with the interpreter lock released,
timed on the wall clock. Alongside
the timings it reports the *measured* delay bound ``tau_observed`` per
processor count — the empirical counterpart of the ``τ = O(P)``
reference scenario — and the final residual, so the speedup numbers can
be checked against the theory's ``2ρτ < 1`` hypothesis on the same run.

Shape claims (Liu, Wright & Sridhar's lock-free regime, and the paper's
Section 9 machine runs): with ≥ P physical cores the speedup at P
workers is near-linear; on fewer cores than workers the wall-clock
flattens while ``tau_observed`` inflates (oversubscription turns
scheduling gaps into genuine staleness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.residuals import relative_residual
from ..execution import ProcessAsyRGS, available_cpus
from ..rng import DirectionStream
from ..workloads import get_problem
from .reporting import render_table, save_json

__all__ = ["SpeedupResult", "run_speedup"]


@dataclass
class SpeedupResult:
    """Strong-scaling measurements for one problem and update budget.

    ``labels > 1`` means every row is a *block* run: the same update
    budget applied to a ``(n, labels)`` RHS block, one row gather per
    update serving all columns (residuals are then Frobenius-relative).
    """

    problem: str
    n: int
    sweeps: int
    cpus: int
    nprocs: list[int]
    wall_time: list[float]
    speedup: list[float]
    efficiency: list[float]
    tau_observed: list[int]
    tau_mean: list[float]
    residual: list[float]
    labels: int = 1

    def rows(self):
        return [
            [p, t, s, e, tau, tm, r]
            for p, t, s, e, tau, tm, r in zip(
                self.nprocs, self.wall_time, self.speedup, self.efficiency,
                self.tau_observed, self.tau_mean, self.residual,
            )
        ]

    def table(self) -> str:
        block_note = f", {self.labels}-label block" if self.labels > 1 else ""
        title = (
            f"Strong scaling — {self.problem} (n={self.n}{block_note}), "
            f"{self.sweeps} sweeps of pool AsyRGS, "
            f"{self.cpus} CPU(s) available"
        )
        return render_table(
            ["P", "wall [s]", "speedup", "efficiency", "tau_obs", "tau_mean",
             "final residual"],
            self.rows(),
            title=title,
        )

    def payload(self) -> dict:
        return {
            "problem": self.problem,
            "n": self.n,
            "labels": self.labels,
            "sweeps": self.sweeps,
            "cpus": self.cpus,
            "nprocs": self.nprocs,
            "wall_time": self.wall_time,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "tau_observed": self.tau_observed,
            "tau_mean": self.tau_mean,
            "residual": self.residual,
        }


def run_speedup(
    problem: str = "laplace2d",
    *,
    nprocs: list[int] | None = None,
    max_nproc: int = 4,
    sweeps: int = 20,
    seed: int = 0,
    labels: int = 1,
    persist: bool = True,
) -> SpeedupResult:
    """Time a fixed update budget on 1..P pool workers (strong scaling).

    Every configuration consumes the identical direction sequence (one
    Philox stream split round-robin), so the *work* is pinned and only
    the execution varies — the paper's Random123 methodology applied to
    wall-clock measurement.

    ``labels > 1`` runs the same budget on a ``(n, labels)`` RHS block —
    each update then refreshes all columns from one row gather (the
    paper's 51-label amortization), and the residual column reports the
    Frobenius-relative block residual.

    Speedup and efficiency are relative to the first entry of ``nprocs``
    — a true serial baseline with the default list, which starts at
    ``P = 1``; a custom list should include 1 for the columns to mean
    strong-scaling speedup.
    """
    prob = get_problem(problem)
    A = prob.A
    labels = int(labels)
    if labels < 1:
        raise ValueError(f"labels must be at least 1, got {labels}")
    b = prob.rhs_block(labels) if labels > 1 else prob.b
    n = A.shape[0]
    if nprocs is None:
        nprocs = []
        p = 1
        while p <= max(1, int(max_nproc)):
            nprocs.append(p)
            p *= 2
    nprocs = [int(p) for p in nprocs]
    if not nprocs:
        raise ValueError("nprocs must name at least one worker count")

    wall, taus, tau_means, residuals = [], [], [], []
    budget = int(sweeps) * n
    for p in nprocs:
        backend = ProcessAsyRGS(
            A, b, nproc=p, directions=DirectionStream(n, seed=seed)
        )
        result = backend.run(np.zeros_like(b), budget)
        wall.append(result.wall_time)
        taus.append(result.tau_observed.max)
        tau_means.append(result.tau_observed.mean)
        residuals.append(relative_residual(A, result.x, b))
    t1 = wall[0]
    # A zero-duration cell (empty budget) yields NaN, not a fake ∞.
    speedup = [t1 / t if t > 0 else float("nan") for t in wall]
    efficiency = [s / p for s, p in zip(speedup, nprocs)]
    out = SpeedupResult(
        problem=problem,
        n=n,
        labels=int(labels),
        sweeps=int(sweeps),
        cpus=available_cpus(),
        nprocs=nprocs,
        wall_time=wall,
        speedup=speedup,
        efficiency=efficiency,
        tau_observed=taus,
        tau_mean=tau_means,
        residual=residuals,
    )
    if persist:
        save_json("fig_speedup", out.payload())
    return out

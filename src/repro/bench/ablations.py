"""Ablation studies of the design choices the analysis calls out.

These are not figures from the paper; they are the experiments the
paper's discussion sections describe in prose, made concrete:

* **τ sweep** — convergence rate vs the measure of asynchronism
  (Theorem 2/3's central trade-off), with the theory bound alongside.
* **β sweep** — final error vs step size at fixed τ, locating the
  theory-optimal ``β̃ = 1/(1+2ρτ)`` against the empirical optimum
  (Section 6).
* **consistent vs inconsistent reads** — matched-τ comparison of the two
  models (the gap Section 10 asks about).
* **delay-schedule sensitivity** — zero vs uniform vs adversarial delays
  at the same bound τ (how pessimistic is the worst-case analysis?).
* **theory envelope** — measured expected error (mean over seeds) vs the
  Theorem 2(a) per-epoch bound.
* **direction strategies** — i.i.d. uniform vs cyclic vs per-sweep
  permutation (the randomization-is-the-point ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    a_norm_error,
    nu_tau,
    optimal_beta_consistent,
    randomized_gauss_seidel,
    rho_infinity,
    theorem2_epoch_bound,
)
from ..core.directions import CyclicDirections, PermutedCyclicDirections
from ..estimation import spectrum_estimate
from ..execution import (
    AdversarialDelay,
    AsyncSimulator,
    InconsistentUniform,
    UniformDelay,
    ZeroDelay,
)
from ..rng import CounterRNG, DirectionStream
from ..workloads import get_problem
from .reporting import render_table, save_json

__all__ = [
    "TauSweepResult",
    "run_tau_sweep",
    "BetaSweepResult",
    "run_beta_sweep",
    "ConsistencyGapResult",
    "run_consistency_gap",
    "DelayScheduleResult",
    "run_delay_schedules",
    "TheoryEnvelopeResult",
    "run_theory_envelope",
    "DirectionStrategyResult",
    "run_direction_strategies",
    "SamplingAblationResult",
    "run_sampling_ablation",
]


def _problem_system(problem: str, seed: int):
    prob = get_problem(problem)
    n = prob.n
    x_star = CounterRNG(seed, stream=0xAB1A).normal(0, n)
    b = prob.A.matvec(x_star)
    return prob.A, b, x_star


@dataclass
class TauSweepResult:
    problem: str
    taus: list[int]
    errors: list[float]
    bound_factors: list[float]

    def table(self) -> str:
        rows = list(zip(self.taus, self.errors, self.bound_factors))
        return render_table(
            ["tau", "A-norm error", "Thm2 epoch factor"],
            rows,
            title=f"Ablation — error after fixed budget vs tau ({self.problem})",
        )


def run_tau_sweep(
    problem: str = "unitdiag",
    *,
    taus=(0, 2, 8, 32, 128),
    sweeps: int = 20,
    seed: int = 0,
) -> TauSweepResult:
    """Error after a fixed update budget under adversarial delays of
    increasing bound, next to the Theorem 2 epoch factor ``1 − ν_τ/2κ``."""
    A, b, x_star = _problem_system(problem, seed)
    n = A.shape[0]
    est = spectrum_estimate(A, steps=min(60, n), seed=seed)
    rho = rho_infinity(A)
    errors = []
    factors = []
    for tau in taus:
        model = AdversarialDelay(tau) if tau > 0 else ZeroDelay()
        sim = AsyncSimulator(
            A, b, delay_model=model, directions=DirectionStream(n, seed=seed)
        )
        out = sim.run(np.zeros(n), sweeps * n)
        errors.append(a_norm_error(A, out.x, x_star))
        nu = nu_tau(1.0, rho, tau)
        kappa = est.kappa
        factors.append(1.0 - nu / (2.0 * kappa))
    result = TauSweepResult(
        problem=problem, taus=list(taus), errors=errors, bound_factors=factors
    )
    save_json("ablation_tau_sweep", result.__dict__)
    return result


@dataclass
class BetaSweepResult:
    problem: str
    tau: int
    betas: list[float]
    errors: list[float]
    beta_theory: float

    def empirical_best(self) -> float:
        return self.betas[int(np.argmin(self.errors))]

    def table(self) -> str:
        rows = list(zip(self.betas, self.errors))
        return render_table(
            ["beta", "A-norm error"],
            rows,
            title=f"Ablation — error vs step size at tau={self.tau} "
                  f"({self.problem}); theory beta~ = {self.beta_theory:.4f}",
        )


def run_beta_sweep(
    problem: str = "unitdiag",
    *,
    tau: int = 32,
    betas=(0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4),
    sweeps: int = 20,
    seed: int = 0,
) -> BetaSweepResult:
    """Final error vs β under adversarial delay τ, with ``β̃`` marked."""
    A, b, x_star = _problem_system(problem, seed)
    n = A.shape[0]
    rho = rho_infinity(A)
    errors = []
    for beta in betas:
        sim = AsyncSimulator(
            A, b, delay_model=AdversarialDelay(tau),
            directions=DirectionStream(n, seed=seed), beta=beta,
        )
        out = sim.run(np.zeros(n), sweeps * n)
        errors.append(a_norm_error(A, out.x, x_star))
    result = BetaSweepResult(
        problem=problem,
        tau=tau,
        betas=list(betas),
        errors=errors,
        beta_theory=optimal_beta_consistent(rho, tau),
    )
    save_json("ablation_beta_sweep", result.__dict__)
    return result


@dataclass
class ConsistencyGapResult:
    problem: str
    taus: list[int]
    consistent_errors: list[float]
    inconsistent_errors: list[float]

    def table(self) -> str:
        rows = list(zip(self.taus, self.consistent_errors, self.inconsistent_errors))
        return render_table(
            ["tau", "consistent", "inconsistent"],
            rows,
            title=f"Ablation — consistent vs inconsistent reads ({self.problem}, "
                  "matched beta)",
        )


def run_consistency_gap(
    problem: str = "unitdiag",
    *,
    taus=(2, 8, 32),
    sweeps: int = 20,
    beta: float = 0.8,
    seed: int = 0,
) -> ConsistencyGapResult:
    """Matched-τ comparison of iteration (8) vs iteration (9)."""
    A, b, x_star = _problem_system(problem, seed)
    n = A.shape[0]
    cons = []
    incons = []
    for tau in taus:
        for model, sink in (
            (UniformDelay(tau, seed=seed), cons),
            (InconsistentUniform(tau, miss_prob=0.5, seed=seed), incons),
        ):
            sim = AsyncSimulator(
                A, b, delay_model=model,
                directions=DirectionStream(n, seed=seed), beta=beta,
            )
            out = sim.run(np.zeros(n), sweeps * n)
            sink.append(a_norm_error(A, out.x, x_star))
    result = ConsistencyGapResult(
        problem=problem, taus=list(taus),
        consistent_errors=cons, inconsistent_errors=incons,
    )
    save_json("ablation_consistency_gap", result.__dict__)
    return result


@dataclass
class DelayScheduleResult:
    problem: str
    tau: int
    schedule_errors: dict[str, float]

    def table(self) -> str:
        rows = list(self.schedule_errors.items())
        return render_table(
            ["schedule", "A-norm error"],
            rows,
            title=f"Ablation — delay-schedule sensitivity at tau={self.tau} "
                  f"({self.problem})",
        )


def run_delay_schedules(
    problem: str = "unitdiag",
    *,
    tau: int = 128,
    sweeps: int = 20,
    n_seeds: int = 5,
    seed: int = 0,
) -> DelayScheduleResult:
    """Zero vs uniform vs adversarial delays at the same bound τ — how
    pessimistic is analyzing the worst case?

    Errors are means over ``n_seeds`` direction streams: at realistic τ
    the schedules differ by percents, so single runs are noise-dominated
    (which is itself the paper's "little to no penalty" observation).
    """
    A, b, x_star = _problem_system(problem, seed)
    n = A.shape[0]

    def schedules(s: int):
        return {
            "zero": ZeroDelay(),
            "uniform": UniformDelay(tau, seed=seed + s),
            "adversarial": AdversarialDelay(tau),
        }

    sums = {"zero": 0.0, "uniform": 0.0, "adversarial": 0.0}
    for s in range(max(1, int(n_seeds))):
        for name, model in schedules(s).items():
            sim = AsyncSimulator(
                A, b, delay_model=model,
                directions=DirectionStream(n, seed=seed + 100 + s),
            )
            out = sim.run(np.zeros(n), sweeps * n)
            sums[name] += a_norm_error(A, out.x, x_star)
    errors = {name: total / max(1, int(n_seeds)) for name, total in sums.items()}
    result = DelayScheduleResult(problem=problem, tau=tau, schedule_errors=errors)
    save_json("ablation_delay_schedules", result.__dict__)
    return result


@dataclass
class TheoryEnvelopeResult:
    problem: str
    tau: int
    epochs: list[int]
    measured: list[float]
    bound: list[float]

    def table(self) -> str:
        rows = list(zip(self.epochs, self.measured, self.bound))
        return render_table(
            ["epoch", "measured E/E0 (mean)", "Thm2(a) bound"],
            rows,
            title=f"Ablation — measured expected error vs Theorem 2(a) bound "
                  f"({self.problem}, tau={self.tau})",
        )


def run_theory_envelope(
    problem: str = "unitdiag",
    *,
    tau: int = 8,
    epochs: int = 6,
    n_seeds: int = 8,
    seed: int = 0,
) -> TheoryEnvelopeResult:
    """Mean squared A-norm error across seeds, per synchronized epoch,
    against the Theorem 2(a) factor. The bound must dominate the
    measurement (and typically by a wide margin — 'bounds tend to be
    rather pessimistic', Section 1)."""
    A, b, x_star = _problem_system(problem, seed)
    n = A.shape[0]
    est = spectrum_estimate(A, steps=min(60, n), seed=seed)
    # Epoch length per the theorem: at least T0 and at least n updates.
    from ..core.theory import epoch_length

    T = max(epoch_length(min(est.lambda_max, n - 1e-9), n), n)
    e0 = a_norm_error(A, np.zeros(n), x_star) ** 2
    acc = np.zeros(epochs + 1)
    acc[0] = 1.0
    per_seed = []
    for s in range(n_seeds):
        sim = AsyncSimulator(
            A, b, delay_model=UniformDelay(tau, seed=seed + 101 * s),
            directions=DirectionStream(n, seed=seed + 13 * s),
        )
        x = np.zeros(n)
        errs = [1.0]
        for e in range(epochs):
            # Each epoch continues the direction stream; the segment
            # boundary itself is the synchronization point.
            out = sim.run(x, T, start_iteration=e * T)
            x = out.x
            errs.append(a_norm_error(A, x, x_star) ** 2 / e0)
        per_seed.append(errs)
    measured = list(np.mean(np.asarray(per_seed), axis=0))
    rho = rho_infinity(A)
    bound = list(
        theorem2_epoch_bound(
            np.arange(epochs + 1), 1.0, rho, tau, est.lambda_min, est.lambda_max
        )
    )
    result = TheoryEnvelopeResult(
        problem=problem, tau=tau, epochs=list(range(epochs + 1)),
        measured=measured, bound=bound,
    )
    save_json("ablation_theory_envelope", result.__dict__)
    return result


@dataclass
class DirectionStrategyResult:
    problem: str
    strategy_errors: dict[str, float]

    def table(self) -> str:
        rows = list(self.strategy_errors.items())
        return render_table(
            ["strategy", "A-norm error"],
            rows,
            title=f"Ablation — direction-selection strategies ({self.problem})",
        )


def run_direction_strategies(
    problem: str = "unitdiag",
    *,
    sweeps: int = 20,
    seed: int = 0,
) -> DirectionStrategyResult:
    """i.i.d. uniform vs cyclic vs per-sweep-permutation directions on the
    synchronous iteration."""
    A, b, x_star = _problem_system(problem, seed)
    n = A.shape[0]
    strategies = {
        "iid-uniform": DirectionStream(n, seed=seed),
        "cyclic": CyclicDirections(n),
        "permuted-cyclic": PermutedCyclicDirections(n, seed=seed),
    }
    errors = {}
    for name, directions in strategies.items():
        r = randomized_gauss_seidel(
            A, b, sweeps=sweeps, directions=directions, record_history=False
        )
        errors[name] = a_norm_error(A, r.x, x_star)
    result = DirectionStrategyResult(problem=problem, strategy_errors=errors)
    save_json("ablation_direction_strategies", result.__dict__)
    return result


@dataclass
class SamplingAblationResult:
    """Uniform vs residual-adaptive direction sampling on a skewed block.

    Both runs solve the same ``(n, k)`` label block to the same
    per-column tolerance with retirement on, on the worker pool,
    from the same direction stream; the adaptive run remaps every draw
    through the residual-weighted CDF the parent republishes at each
    synchronization point. ``reduction`` is the fraction of column
    updates the adaptive distribution avoided — on a workload whose
    label difficulties are skewed, steering draws toward rows with
    residual mass left should retire columns earlier and spend fewer
    updates overall.
    """

    problem: str
    n: int
    labels: int
    nproc: int
    tol: float
    sync_every_sweeps: int
    converged_uniform: bool
    converged_adaptive: bool
    sweeps_uniform: int
    sweeps_adaptive: int
    col_updates_uniform: int
    col_updates_adaptive: int
    row_updates_uniform: int
    row_updates_adaptive: int
    max_col_residual_uniform: float
    max_col_residual_adaptive: float
    wall_uniform: float
    wall_adaptive: float

    @property
    def reduction(self) -> float:
        if self.col_updates_uniform <= 0:
            return float("nan")
        return 1.0 - self.col_updates_adaptive / self.col_updates_uniform

    def rows(self):
        return [
            ["uniform", self.sweeps_uniform, self.row_updates_uniform,
             self.col_updates_uniform, self.converged_uniform,
             self.wall_uniform],
            ["adaptive", self.sweeps_adaptive, self.row_updates_adaptive,
             self.col_updates_adaptive, self.converged_adaptive,
             self.wall_adaptive],
        ]

    def table(self) -> str:
        return render_table(
            ["sampling", "sweeps", "row updates", "column updates",
             "converged", "wall [s]"],
            self.rows(),
            title=(
                f"Ablation — adaptive direction sampling ({self.problem}, "
                f"n={self.n}, k={self.labels} labels, tol={self.tol:g}, "
                f"weights refreshed every {self.sync_every_sweeps} "
                f"sweep(s) on {self.nproc} worker(s)): "
                f"{100.0 * self.reduction:.1f}% fewer column updates"
            ),
        )

    def payload(self) -> dict:
        return {
            "problem": self.problem,
            "n": self.n,
            "labels": self.labels,
            "nproc": self.nproc,
            "tol": self.tol,
            "sync_every_sweeps": self.sync_every_sweeps,
            "converged_uniform": self.converged_uniform,
            "converged_adaptive": self.converged_adaptive,
            "sweeps_uniform": self.sweeps_uniform,
            "sweeps_adaptive": self.sweeps_adaptive,
            "col_updates_uniform": self.col_updates_uniform,
            "col_updates_adaptive": self.col_updates_adaptive,
            "row_updates_uniform": self.row_updates_uniform,
            "row_updates_adaptive": self.row_updates_adaptive,
            "reduction": self.reduction,
            "max_col_residual_uniform": self.max_col_residual_uniform,
            "max_col_residual_adaptive": self.max_col_residual_adaptive,
            "wall_uniform": self.wall_uniform,
            "wall_adaptive": self.wall_adaptive,
        }


def run_sampling_ablation(
    problem: str = "social-labels",
    *,
    nproc: int = 2,
    labels: int | None = None,
    tol: float = 1e-3,
    max_sweeps: int = 600,
    sync_every_sweeps: int = 2,
    seed: int = 0,
    persist: bool = True,
) -> SamplingAblationResult:
    """Measure what residual-adaptive sampling saves over uniform draws.

    Solves the skewed 51-label block twice — uniform directions as the
    control, then ``adaptive=True`` — with per-column retirement
    on in both runs, and reports sweeps and column-update counts. The
    adaptive weights are only as fresh as the last synchronization
    point, so the refresh cadence (``sync_every_sweeps``) is part of
    the experiment: with long epochs the stale distribution oversamples
    rows it has already drained and adaptivity can *lose* to uniform —
    the default cadence of 2 is where the 51-label workload shows the
    win. The payload lands in ``results/BENCH_ablation.json``.
    """
    import time

    from ..execution import ProcessAsyRGS

    prob = get_problem(problem)
    A = prob.A
    n = A.shape[0]
    B = prob.rhs_block(labels) if labels is not None else (
        prob.B if prob.B is not None else prob.b[:, None]
    )
    k = B.shape[1]
    runs = {}
    for mode in ("uniform", "adaptive"):
        with ProcessAsyRGS(
            A, B, nproc=int(nproc),
            directions=DirectionStream(n, seed=seed),
            adaptive=(mode == "adaptive"),
        ) as solver:
            start = time.perf_counter()
            res = solver.solve(
                tol=tol, max_sweeps=max_sweeps,
                sync_every_sweeps=sync_every_sweeps,
            )
            runs[mode] = (res, time.perf_counter() - start)
    res_u, wall_u = runs["uniform"]
    res_a, wall_a = runs["adaptive"]
    out = SamplingAblationResult(
        problem=problem,
        n=n,
        labels=k,
        nproc=int(nproc),
        tol=float(tol),
        sync_every_sweeps=int(sync_every_sweeps),
        converged_uniform=res_u.converged,
        converged_adaptive=res_a.converged,
        sweeps_uniform=res_u.sweeps_done,
        sweeps_adaptive=res_a.sweeps_done,
        col_updates_uniform=res_u.column_updates,
        col_updates_adaptive=res_a.column_updates,
        row_updates_uniform=res_u.iterations,
        row_updates_adaptive=res_a.iterations,
        max_col_residual_uniform=float(res_u.column_residuals.max()),
        max_col_residual_adaptive=float(res_a.column_residuals.max()),
        wall_uniform=wall_u,
        wall_adaptive=wall_a,
    )
    if persist:
        save_json("BENCH_ablation", out.payload())
    return out

#!/usr/bin/env python
"""True parallelism: AsyRGS on real worker threads sharing one iterate.

Everything else in this library *simulates* the paper's asynchronous
model. This example runs the genuine article:

1. build a sparse SPD system,
2. solve it with :class:`~repro.execution.ProcessAsyRGS` — worker
   threads update one iterate in one address space, each running the
   native segment kernel with the interpreter lock released, and race
   for real,
3. read the measured delay statistics (``tau_observed``) recovered from
   the shared write-log and compare them against the theory's ``2ρτ < 1``
   hypothesis,
4. time a fixed update budget on 1 and 2 workers (strong scaling),
5. replay the paper's headline regime: the social-media Gram system
   solved for 51 label right-hand sides *simultaneously* on a
   persistent worker pool — one row gather per update serves all 51
   columns, convergence is judged per column and easy labels are
   *retired* early (the shared active-column mask shrinks, so the
   remaining row gathers only refresh the hard labels), and a second
   solve reuses the pool without respawning.

Run:  python examples/true_parallel.py
"""

import numpy as np

from repro import laplacian_2d
from repro.bench import run_speedup
from repro.core import rho_infinity
from repro.execution import ProcessAsyRGS, available_cpus
from repro.sparse import symmetric_rescale
from repro.workloads import get_problem


def main() -> None:
    # -- 1. A sparse SPD system with a known solution. -----------------
    A = laplacian_2d(16, 16)  # 5-point Laplacian, n = 256
    n = A.shape[0]
    x_star = np.sin(np.linspace(0.0, 3.0 * np.pi, n))
    b = A.matvec(x_star)
    print(f"system: n = {n}, nnz = {A.nnz}, CPUs available: {available_cpus()}")

    # -- 2. Solve on real workers (epoch scheme of Theorem 2). ---------
    solver = ProcessAsyRGS(A, b, nproc=2)
    result = solver.solve(tol=1e-6, max_sweeps=1500, sync_every_sweeps=25)
    print(
        f"AsyRGS[processes]: {result.sweeps_done:4d} sweeps on 2 workers, "
        f"residual {result.checkpoints[-1][1]:.2e}, "
        f"error {np.abs(result.x - x_star).max():.2e}, "
        f"{result.sync_points} synchronization points, "
        f"{result.wall_time:.3f}s wall"
    )

    # -- 3. Measured delays vs the theory's hypothesis. ----------------
    delays = result.tau_observed
    A_unit, _ = symmetric_rescale(A)
    rho = rho_infinity(A_unit)
    print(
        f"write-log delays: tau_observed = {delays.max}, "
        f"mean = {delays.mean:.3f} over {delays.count} updates"
    )
    product = 2.0 * rho * delays.max
    verdict = "holds" if product < 1.0 else "violated (yet it converged)"
    print(
        f"Theorem 2 hypothesis 2*rho*tau = {product:.3f} with measured tau: "
        f"{verdict}"
    )

    # -- 4. Strong scaling: the same update budget on 1 and 2 workers. -
    scaling = run_speedup("laplace2d", nprocs=[1, 2], sweeps=10, persist=False)
    print()
    print(scaling.table())

    # -- 5. The paper's headline regime: a 51-label social-media block. -
    # One Gram system, 51 right-hand sides solved simultaneously: every
    # coordinate update gathers its row once and refreshes all 51 label
    # columns (Section 9's amortization). Convergence is judged per
    # column, and a column that reaches the tolerance *retires* — the
    # shared active-column mask shrinks at that epoch boundary and the
    # remaining row gathers only refresh the still-active labels
    # (result.converged_columns / column_sweeps record who finished
    # when). The pool is persistent: the second solve reuses the live
    # workers.
    prob = get_problem("social-labels")
    k = prob.B.shape[1]
    print()
    print(f"social-media block: n = {prob.n}, nnz = {prob.A.nnz}, {k} labels")
    with ProcessAsyRGS(prob.A, prob.B, nproc=2) as block_solver:
        first = block_solver.solve(tol=1e-3, max_sweeps=600, sync_every_sweeps=25)
        again = block_solver.solve(tol=1e-3, max_sweeps=600, sync_every_sweeps=25)
        print(
            f"block solve ({k} labels at once): {first.sweeps_done} sweeps, "
            f"block residual {first.checkpoints[-1][1]:.2e}, "
            f"converged={first.converged}, {first.wall_time:.3f}s wall"
        )
        retired = first.column_sweeps[first.column_sweeps >= 0]
        print(
            f"per-column retirement: {int(first.converged_columns.sum())}/{k} "
            f"labels converged; easiest retired at sweep {int(retired.min())}, "
            f"hardest at sweep {int(retired.max())} (skewed label difficulty)"
        )
        print(
            f"update-count savings: {first.column_updates} column updates vs "
            f"{first.iterations * k} without retirement "
            f"({100.0 * (1.0 - first.column_updates / (first.iterations * k)):.0f}% saved)"
        )
        print(
            f"pool reuse: second solve served by the same {block_solver.nproc} "
            f"worker(s) ({block_solver.spawn_count} pool spawn(s)), "
            f"{again.wall_time:.3f}s wall"
        )


if __name__ == "__main__":
    main()

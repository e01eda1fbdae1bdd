#!/usr/bin/env python
"""Least squares with asynchronous randomized Kaczmarz (AsyRK).

The square AsyRGS story carries over to rectangles: the same persistent
worker pool, the same direction streams, a different update method.
This example walks the rectangular path end to end:

1. generate a sparse, overdetermined, *inconsistent* system
   (``Ax = b`` has no solution — only a least-squares minimizer),
2. serial baseline: randomized coordinate descent on the columns,
3. AsyRK on real worker threads: row projections from every worker into
   one shared iterate, convergence judged by the normal-equations
   residual (the plain residual plateaus at the noise floor and can
   never pass a tolerance),
4. residual-adaptive direction sampling vs the uniform control on the
   skewed multi-label workload — steering draws toward the rows with
   residual mass left saves a measurable fraction of column updates.

Run:  python examples/least_squares.py
"""

import numpy as np

from repro.bench import run_sampling_ablation
from repro.core.least_squares import rcd_least_squares
from repro.execution import AsyRK
from repro.rng import DirectionStream
from repro.workloads import random_least_squares


def normal_equations_residual(A, x, b) -> float:
    """``‖Aᵀ(b − Ax)‖ / ‖Aᵀb‖`` — zero exactly at the minimizer."""
    At = A.transpose()
    return float(
        np.linalg.norm(At.matvec(b - A.matvec(x)))
        / np.linalg.norm(At.matvec(b))
    )


def main() -> None:
    # -- 1. An inconsistent least-squares system. -----------------------
    prob = random_least_squares(400, 100, nnz_per_row=6, noise_scale=0.01, seed=1)
    A, b = prob.A, prob.b
    m, n = A.shape
    noise_floor = float(np.linalg.norm(prob.noise))
    print(f"system: {m} equations, {n} unknowns, nnz = {A.nnz}")
    print(f"inconsistent: ||noise|| = {noise_floor:.3f}, so Ax = b has no solution")

    x_ls, *_ = np.linalg.lstsq(A.to_dense(), b, rcond=None)

    # -- 2. Serial baseline: randomized coordinate descent. -------------
    rcd = rcd_least_squares(A, b, sweeps=200, tol=1e-2, record_history=False)
    print(
        f"RCD     : {rcd.iterations // n:4d} sweeps, "
        f"normal-equations residual {normal_equations_residual(A, rcd.x, b):.2e}"
    )

    # -- 3. AsyRK: real worker threads sharing one iterate. -------------
    tol = 2e-2
    solver = AsyRK(A, b, nproc=2, beta=0.8, directions=DirectionStream(m, seed=0))
    res = solver.solve(tol=tol, max_sweeps=200)
    plain = float(np.linalg.norm(b - A.matvec(res.x)))
    print(
        f"AsyRK   : {res.sweeps_done:4d} sweeps on {solver.nproc} processes, "
        f"normal-equations residual "
        f"{normal_equations_residual(A, res.x, b):.2e} < {tol:g}, "
        f"converged={res.converged}"
    )
    print(
        f"          plain residual {plain:.3f} sits at the noise floor "
        f"{noise_floor:.3f} — the tolerance must be on the normal equations"
    )
    print(
        f"          distance to the dense lstsq minimizer: "
        f"{np.abs(res.x - x_ls).max():.2e}"
    )

    # -- 4. Adaptive direction sampling vs the uniform control. ---------
    # The skewed multi-label block: a few hard labels keep most of the
    # residual mass, so residual-weighted draws (refreshed at every
    # synchronization point) retire the easy columns sooner.
    abl = run_sampling_ablation(labels=8, persist=False)
    print(
        f"sampling ablation ({abl.problem}, {abl.labels} labels, "
        f"tol {abl.tol:g}):"
    )
    print(
        f"  uniform : {abl.sweeps_uniform:4d} sweeps, "
        f"{abl.col_updates_uniform:>9,} column updates, "
        f"converged={abl.converged_uniform}"
    )
    print(
        f"  adaptive: {abl.sweeps_adaptive:4d} sweeps, "
        f"{abl.col_updates_adaptive:>9,} column updates, "
        f"converged={abl.converged_adaptive}"
    )
    print(
        f"  adaptive sampling saved {100.0 * abl.reduction:.1f}% "
        f"of the column updates"
    )


if __name__ == "__main__":
    main()

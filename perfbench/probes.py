"""Fixed-work kernel and epoch probes for the traced run.

Each probe opens its own single-worker pool on the workload's matrix at
the workload's batch width (every column active), outside the serving
stack:

* ``run(None, N)`` for a fixed ``N`` of updates gives the per-update
  kernel cost; ``run(None, 1)`` gives the fixed cost of one epoch (two
  gate crossings around a single update), which is subtracted.
* A scipy CSR product ``A @ X`` at the same width is the reference:
  its time per row is what one update would cost at compiled speed.

Bytes and flops per update are computed from the row length and the
width, not measured (no hardware counters here).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Sweeps of updates in one kernel probe call and repeats of each probe.
PROBE_SWEEPS = 8
PROBE_REPEATS = 5
EPOCH_REPEATS = 40


def computed_per_update(method: str, row_nnz: float, k: int) -> tuple[float, float]:
    """``(bytes, flops)`` one update moves and performs, computed.

    AsyRGS gathers the row (value + index, 16 B per entry), the ``k``
    iterate entries of each column it touches, reads ``b`` and the
    diagonal, and writes one iterate row. Kaczmarz gathers the same and
    scatters back into every touched iterate entry (read + write).
    """
    z = float(row_nnz)
    gather = z * (16.0 + 8.0 * k) + 8.0 * k + 8.0
    if method == "asyrk":
        return gather + 16.0 * z * k, 4.0 * z * k + 2.0 * k + z
    return gather + 16.0 * k, 2.0 * z * k + 4.0 * k


def kernel_probe(spec, A, B: np.ndarray) -> dict:
    """Per-update and per-epoch costs of the pool at ``B``'s width."""
    from repro.execution import make_solver

    k = int(B.shape[1])
    with make_solver(spec.method, A, B, nproc=1, capacity_k=k) as solver:
        n_rows = solver.n_rows
        updates = PROBE_SWEEPS * n_rows
        solver.run(None, updates)  # warm the worker's code paths
        long = [solver.run(None, updates) for _ in range(PROBE_REPEATS)]
        short = [solver.run(None, 1).wall_time for _ in range(EPOCH_REPEATS)]
    epoch = float(np.median(short))
    per_update = (float(np.median([r.wall_time for r in long])) - epoch) / (
        updates - 1
    )
    row_nnz = long[0].total_row_nnz / long[0].iterations
    return {
        "ns_per_update": per_update * 1e9,
        "epoch_fixed_s": epoch,
        "row_nnz_per_update": row_nnz,
        "n_rows": n_rows,
        "k": k,
    }


def scipy_probe(S, k: int, seed: int) -> float:
    """Nanoseconds per row of a scipy CSR product at width ``k``."""
    X = np.random.default_rng(seed).standard_normal((S.shape[1], k))
    if k == 1:
        X = X[:, 0]
    S @ X
    reps = max(1, int(2e6 // max(S.nnz * k, 1)))
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        for _ in range(reps):
            S @ X
        times.append((perf_counter() - t0) / reps)
    return float(np.median(times)) / S.shape[0] * 1e9

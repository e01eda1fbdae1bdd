"""Benchmark: the CSR × dense block product and the pool's row update,
each on both paths, plus scipy.

Writes ``results/BENCH_kernel.json`` (committed: it is the per-kernel
trajectory the native-module work is measured by). The assertions are
hardware-independent except two, where the native module builds: the
product must beat the NumPy path on the 51-column label block, the
regime that kernel exists for (measured at >10x), and the segment
kernel must beat the NumPy row update on the sparse single right-hand
side, where interpreter overhead is the whole cost (measured at >100x).
"""

import pytest

from repro.bench import KERNEL_MATRICES, run_kernel

from conftest import persist_and_print


def test_kernel_smoke(benchmark):
    pytest.importorskip("scipy")
    result = benchmark.pedantic(run_kernel, rounds=1, iterations=1)
    persist_and_print("fig_kernel", result.table())

    paths = ["native", "numpy", "scipy"] if result.native else ["numpy", "scipy"]
    assert len(result.rows) == len(KERNEL_MATRICES) * 3 * len(paths)
    assert len(result.updates) == len(KERNEL_MATRICES) * 3 * len(paths)
    assert all(row["ns"] > 0 for row in result.rows)
    assert all(row["ns"] >= 0 for row in result.updates)
    if result.native:
        assert (result.ns("labels-block", 51, "native")
                < result.ns("labels-block", 51, "numpy"))
        assert (result.ns("sparse-singles", 1, "native", kernel="updates")
                < result.ns("sparse-singles", 1, "numpy", kernel="updates"))

"""Benchmark: the CSR × dense block product on both paths, and the
pool's row update with plain and atomic writes, plus scipy.

Writes ``results/BENCH_kernel.json`` (committed: it is the per-kernel
trajectory the native-module work is measured by). The assertions are
hardware-independent except one, where the native module builds: the
product must beat the NumPy path on the 51-column label block, the
regime that kernel exists for (measured at >10x). Every pool cell on a
square matrix must also carry its ``atomic`` row: the segment kernel
with ``atomic=True``, the only path atomic pools have (AsyRK, on the
rectangular matrix, has no atomic mode).
"""

import pytest

from repro.bench import KERNEL_MATRICES, run_kernel
from repro.bench.fig_kernel import WIDTHS

from conftest import persist_and_print


def test_kernel_smoke(benchmark):
    pytest.importorskip("scipy")
    result = benchmark.pedantic(run_kernel, rounds=1, iterations=1)
    persist_and_print("fig_kernel", result.table())

    paths = ["native", "numpy", "scipy"] if result.native else ["numpy", "scipy"]
    assert len(result.rows) == len(KERNEL_MATRICES) * len(WIDTHS) * len(paths)
    assert all(row["ns"] > 0 for row in result.rows)
    assert all(row["ns"] >= 0 for row in result.updates)
    if result.native:
        assert (result.ns("labels-block", 51, "native")
                < result.ns("labels-block", 51, "numpy"))
        for name, build in KERNEL_MATRICES.items():
            A = build()
            pool_paths = ["native", "atomic"] if A.shape[0] == A.shape[1] else ["native"]
            for k in WIDTHS:
                for path in pool_paths:
                    assert result.ns(name, k, path, kernel="updates") >= 0
        assert result.ns("labels-block", 51, "native-stride2", kernel="updates") >= 0

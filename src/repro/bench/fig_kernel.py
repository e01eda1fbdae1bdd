"""Benchmark: the CSR × dense block product, by matrix, width and path.

Every residual check of the epoch scheme is one ``B − A·X``, so this is
the product behind each synchronization point. It is timed on the
matrices of the four ``perfbench/`` workloads (built with the same
arguments as ``perfbench/workloads.py``), on ``social-small`` and on
``laplace2d``, at widths 1, 8 and 51 (the paper's label-block width),
on both paths of :meth:`~repro.sparse.CSRMatrix.matmat` (the native C
kernel and the NumPy oracle) and on scipy's CSR product as a reference,
where scipy is installed. Each cell is the best of 20 timed products,
in nanoseconds.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import _native
from ..execution import available_cpus
from ..sparse import CSRMatrix
from ..workloads import (
    diagonally_dominant,
    get_problem,
    random_least_squares,
    social_media_problem,
)
from .reporting import render_table, save_json

__all__ = ["KERNEL_MATRICES", "KernelResult", "run_kernel"]

#: The benchmarked matrices by name; the first four are the served
#: matrices of the ``perfbench/`` workloads of the same name.
KERNEL_MATRICES: dict[str, Callable[[], CSRMatrix]] = {
    "labels-block": lambda: social_media_problem(
        n_terms=400, n_docs=1600, n_labels=1, seed=13
    ).G,
    "sparse-singles": lambda: diagonally_dominant(
        300, nnz_per_row=6, margin=0.2, seed=31
    ),
    "lsq-kaczmarz": lambda: random_least_squares(
        2000, 500, nnz_per_row=5, seed=7
    ).A,
    "repeat-cache": lambda: social_media_problem(
        n_terms=300, n_docs=1200, n_labels=1, seed=11
    ).G,
    "social-small": lambda: get_problem("social-small").A,
    "laplace2d": lambda: get_problem("laplace2d").A,
}

#: Operand widths: a single right-hand side, a serving batch, and the
#: paper's 51-label block.
WIDTHS = (1, 8, 51)
#: Each cell is the best of this many products.
REPEATS = 20


@dataclass
class KernelResult:
    """Best-of-``repeats`` product times; one row per matrix × k × path."""

    repeats: int
    cpus: int
    machine: str
    native: bool
    rows: list[dict]

    def ns(self, matrix: str, k: int, path: str) -> int:
        for row in self.rows:
            if (row["matrix"], row["k"], row["path"]) == (matrix, k, path):
                return row["ns"]
        raise KeyError((matrix, k, path))

    def table(self) -> str:
        title = (
            f"CSR x dense product, best of {self.repeats} [ns] "
            f"({self.machine}, {self.cpus} CPU(s) available)"
        )
        return render_table(
            ["matrix", "rows", "nnz", "k", "path", "ns"],
            [[r["matrix"], r["rows"], r["nnz"], r["k"], r["path"], r["ns"]]
             for r in self.rows],
            title=title,
        )

    def payload(self) -> dict:
        return {
            "repeats": self.repeats,
            "cpus": self.cpus,
            "machine": self.machine,
            "native": self.native,
            "rows": self.rows,
        }


def _best_ns(product: Callable[[np.ndarray], np.ndarray], X, repeats: int) -> int:
    best = None
    for _ in range(repeats):
        started = time.perf_counter_ns()
        product(X)
        elapsed = time.perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return int(best)


def run_kernel(*, persist: bool = True) -> KernelResult:
    """Time ``A.matmat(X)`` on both paths, and scipy's product, for
    every matrix and width.

    The native rows are left out where the kernel cannot be built
    (``native`` is then ``False`` in the payload), the scipy rows where
    scipy is not installed.
    """
    native = _native.loaded()
    try:
        import scipy.sparse as sp
    except ImportError:
        sp = None
    rng = np.random.default_rng(0)
    rows = []
    for name in KERNEL_MATRICES:
        A = KERNEL_MATRICES[name]()
        paths = {}
        if native:
            paths["native"] = (True, A.matmat)
        paths["numpy"] = (False, A.matmat)
        if sp is not None:
            S = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
            paths["scipy"] = (True, S.dot)
        for k in WIDTHS:
            X = rng.standard_normal((A.shape[1], k))
            for path, (native_path, product) in paths.items():
                with _native.forced(native_path):
                    ns = _best_ns(product, X, REPEATS)
                rows.append({
                    "matrix": name, "rows": A.shape[0], "nnz": A.nnz,
                    "k": int(k), "path": path, "ns": ns,
                })
    out = KernelResult(
        repeats=REPEATS,
        cpus=available_cpus(),
        machine=platform.machine(),
        native=native,
        rows=rows,
    )
    if persist:
        save_json("BENCH_kernel", out.payload())
    return out

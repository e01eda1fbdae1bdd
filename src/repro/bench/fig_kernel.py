"""Benchmark: the two native kernels, by matrix, width and path.

Both are timed on the matrices of the four ``perfbench/`` workloads
(built with the same arguments as ``perfbench/workloads.py``), on
``social-small`` and on ``laplace2d``, at widths 1, 8 and 51 (the
paper's label-block width), with scipy's CSR product as the reference
where scipy is installed.

* **The CSR × dense block product** (``rows``). Every residual check of
  the epoch scheme is one ``B − A·X``, so this is the product behind
  each synchronization point. Paths: both paths of
  :meth:`~repro.sparse.CSRMatrix.matmat` (the native C kernel and the
  NumPy oracle) and scipy. Each cell is the best of 20 timed products,
  in nanoseconds.
* **The row update** (``updates``), the per-draw step of every pool
  worker: draw, gather, ``γ``, scatter, ticket and write-log. Paths: the
  native segment kernel and the NumPy ``RowUpdate`` loop, each in a
  real one-worker pool (AsyRGS on the square matrices, AsyRK on the
  rectangular one) at full width, and a scipy row (a scipy product's
  time divided by its rows: what one update would cost at compiled
  speed). A pool cell is the best of 5 runs of a fixed number of
  updates, less the best of 20 one-update runs (the fixed cost of an
  epoch), per update; in nanoseconds.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import _native
from ..execution import available_cpus, make_solver
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
#: Sweeps of updates per timed pool run, by path: on the cheapest matrix
#: a native run still lasts several times an epoch's fixed cost (~0.1
#: ms), and the NumPy loop, ~200x slower per update, stays a short wait.
UPDATE_SWEEPS = {"native": 50, "numpy": 2}
#: Timed pool runs per update cell, and one-update runs per epoch cost.
UPDATE_REPEATS = 5
EPOCH_REPEATS = 20


@dataclass
class KernelResult:
    """Best-of-``repeats`` product times (``rows``) and per-update pool
    costs (``updates``); one row per matrix × k × path in each."""

    repeats: int
    cpus: int
    machine: str
    native: bool
    rows: list[dict]
    updates: list[dict]

    def ns(self, matrix: str, k: int, path: str, *, kernel: str = "rows") -> int:
        """A product time, or a per-update cost with ``kernel="updates"``."""
        for row in getattr(self, kernel):
            if (row["matrix"], row["k"], row["path"]) == (matrix, k, path):
                return row["ns"]
        raise KeyError((kernel, matrix, k, path))

    def table(self) -> str:
        where = f"({self.machine}, {self.cpus} CPU(s) available)"
        columns = ["matrix", "rows", "nnz", "k", "path", "ns"]
        return "\n\n".join(
            render_table(
                columns,
                [[r[c] for c in columns] for r in rows],
                title=title,
            )
            for title, rows in (
                (f"CSR x dense product, best of {self.repeats} [ns] {where}",
                 self.rows),
                (f"Row update, per update [ns] {where}", self.updates),
            )
        )

    def payload(self) -> dict:
        return {
            "repeats": self.repeats,
            "cpus": self.cpus,
            "machine": self.machine,
            "native": self.native,
            "rows": self.rows,
            "updates": self.updates,
        }


def _best_ns(product: Callable[[np.ndarray], np.ndarray], X, repeats: int) -> int:
    best = None
    for _ in range(repeats):
        started = time.perf_counter_ns()
        product(X)
        elapsed = time.perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return int(best)


def _update_ns(A: CSRMatrix, k: int, native: bool) -> int:
    """Nanoseconds per update of a one-worker pool on ``A`` at width
    ``k``, on the native kernel or the NumPy loop."""
    method = "asyrgs" if A.shape[0] == A.shape[1] else "asyrk"
    B = A.matmat(np.ones((A.shape[1], k)))
    # The pool reads the switch when it spawns its worker.
    with _native.forced(native), make_solver(method, A, B, nproc=1) as solver:
        updates = UPDATE_SWEEPS["native" if native else "numpy"] * solver.n_rows
        solver.run(None, updates)  # warm the worker's code paths
        run = min(solver.run(None, updates).wall_time for _ in range(UPDATE_REPEATS))
        epoch = min(solver.run(None, 1).wall_time for _ in range(EPOCH_REPEATS))
    return int(round(max(run - epoch, 0.0) / (updates - 1) * 1e9))


def run_kernel(*, persist: bool = True) -> KernelResult:
    """Time ``A.matmat(X)`` on both paths, and scipy's product, for
    every matrix and width; then the pool's row update on both paths,
    and a scipy row.

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
    rows, updates = [], []
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
            cell = {"matrix": name, "rows": A.shape[0], "nnz": A.nnz, "k": int(k)}
            for path in ("native", "numpy") if native else ("numpy",):
                ns = _update_ns(A, k, path == "native")
                updates.append(dict(cell, path=path, ns=ns))
            if sp is not None:  # the scipy product just timed, per row
                ns = rows[-1]["ns"] / A.shape[0]
                updates.append(dict(cell, path="scipy", ns=int(round(ns))))
    out = KernelResult(
        repeats=REPEATS,
        cpus=available_cpus(),
        machine=platform.machine(),
        native=native,
        rows=rows,
        updates=updates,
    )
    if persist:
        save_json("BENCH_kernel", out.payload())
    return out

"""Machine timing model for scaling experiments.

The paper reports wall-clock times measured on one BlueGene/Q node (16
cores × 4-way SMT, up to 64 hardware threads). A Python reproduction
cannot re-measure that silicon, so every "time" the experiment drivers
report (the README's "CLI" section, ``repro experiment``) is produced by
an explicit, documented machine model that converts *operation counts
measured from the actual runs* into modeled seconds. The claims the benches make against the
paper are therefore about **shape**: speedup curves, serial ratios,
crossovers — never absolute seconds.

Model structure (one node, P threads):

* A coordinate update on row r costs ``t_iter + t_nnz · nnz(r)`` —
  per-iteration overhead (RNG draw, index arithmetic) plus the row
  traversal. AsyRGS runs these embarrassingly parallel; its only
  efficiency loss is memory-system contention, modeled as
  ``eff(P) = 1 / (1 + c_mem · (P − 1))``.
* A CG iteration costs a matvec (``t_nnz · nnz / P``, inflated by the
  load imbalance of the round-robin row distribution actually computed
  from the matrix), vector operations (``c_vec · n · nrhs / P``), and two
  global reductions costing ``t_sync(P) = σ_lat · log₂(P) + σ_ser · P``
  each. The synchronization term is what bends CG's speedup curve — the
  physical effect the paper attributes its results to.
* Occasional synchronization of AsyRGS (the epoch scheme of Theorem 2's
  discussion) adds one ``t_sync(P)`` barrier per epoch.

The defaults (:meth:`MachineModel.bgq_like`) are calibrated to the paper's
two serial anchors (10 RGS sweeps ≈ 1220 s vs 10 CG iterations ≈ 1330 s on
the 120k social matrix, i.e. CG ≈ 9% slower serially) and to the 64-thread
speedups (AsyRGS ≈ 48×, CG < 29×).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError
from ..sparse import CSRMatrix

__all__ = ["MachineModel"]


@dataclass(frozen=True)
class MachineModel:
    """Explicit cost model converting operation counts to modeled seconds.

    Attributes
    ----------
    t_nnz:
        Seconds per stored-entry touch (fused multiply-add + gather).
    t_iter:
        Per-coordinate-update overhead (RNG, index arithmetic, the
        atomic-write instruction).
    c_vec:
        Seconds per vector-element operation (axpy/dot element) in the
        Krylov kernels.
    sigma_lat:
        Reduction/barrier latency coefficient (× log₂ P).
    sigma_ser:
        Reduction/barrier serialization coefficient (× P).
    c_mem:
        Memory-contention efficiency loss per extra thread for
        matrix-streaming kernels (sweeps and matvecs).
    i_half:
        Arithmetic-intensity knee: streaming a matrix row updates
        ``nrhs`` right-hand sides per gathered entry, so the flop/byte
        ratio — and with it the multi-thread efficiency — grows with
        ``nrhs``. The contention term is scaled by ``1 + i_half/nrhs``:
        single-RHS kernels are maximally bandwidth-bound, the paper's
        51-RHS kernels nearly compute-bound. This reproduces the paper's
        observation that the same sweep scales ≈48× with 51 RHS but only
        ≈12× inside the single-RHS preconditioner.
    p_bandwidth:
        Thread count at which pure streaming vector operations (axpy,
        dot) saturate memory bandwidth and stop scaling.
    """

    t_nnz: float = 1.0e-9
    t_iter: float = 2.0e-9
    c_vec: float = 1.0e-9
    sigma_lat: float = 0.0
    sigma_ser: float = 0.0
    c_mem: float = 0.0
    i_half: float = 0.0
    p_bandwidth: int = 1_000_000

    def __post_init__(self):
        for name in (
            "t_nnz", "t_iter", "c_vec", "sigma_lat", "sigma_ser", "c_mem", "i_half",
        ):
            if getattr(self, name) < 0:
                raise ModelError(f"cost-model parameter {name} must be non-negative")
        if self.t_nnz == 0:
            raise ModelError("t_nnz must be positive")
        if self.p_bandwidth < 1:
            raise ModelError("p_bandwidth must be at least 1")

    # ------------------------------------------------------------------

    @classmethod
    def bgq_like(cls) -> "MachineModel":
        """Constants calibrated to the paper's BlueGene/Q anchors.

        With the paper's matrix (nnz/n ≈ 1439, 51 RHS): 10 RGS sweeps
        touch ``10·nnz·51 ≈ 8.8e10`` rhs-entries in 1220 s →
        ``t_nnz ≈ 1.4e-8`` s per entry-touch (BG/Q cores are slow and the
        access pattern is random). ``t_iter`` charges ≈ two entry-touches
        of per-update overhead (RNG, indexing, the atomic). ``c_vec``
        makes CG's five n-vector operations per iteration cost more than
        RGS's per-update overhead — the source of the serial "RGS ≈ 10%
        faster" anchor.

        The bandwidth constants are fit to two scaling anchors at 64
        threads: the 51-RHS sweep reaches efficiency ≈ 0.75 (speedup ≈ 48,
        Figure 2 left) while the single-RHS sweep inside the FCG
        preconditioner reaches only ≈ 0.35 (the paper's ≈ 0.2 s/sweep vs
        the ideal ≈ 0.05 s, Table 1) — giving ``i_half = 5`` and
        ``c_mem ≈ 0.0049``. Reductions cost ``1.5 µs·log₂P + 90 ns·P``,
        and streaming vector operations stop scaling past
        ``p_bandwidth = 6`` threads.
        """
        return cls(
            t_nnz=1.4e-8,
            t_iter=3.0e-8,
            c_vec=4.0e-8,
            sigma_lat=1.5e-6,
            sigma_ser=9.0e-8,
            c_mem=0.0049,
            i_half=5.0,
            p_bandwidth=6,
        )

    # ------------------------------------------------------------------
    # Primitive costs
    # ------------------------------------------------------------------

    def sync_time(self, nproc: int) -> float:
        """One global reduction / barrier across ``nproc`` threads."""
        nproc = int(nproc)
        if nproc <= 1:
            return 0.0
        return self.sigma_lat * float(np.log2(nproc)) + self.sigma_ser * nproc

    def async_efficiency(self, nproc: int, nrhs: int = 1) -> float:
        """Parallel efficiency of matrix-streaming kernels.

        Contention grows with thread count and shrinks with arithmetic
        intensity (``nrhs`` right-hand sides amortize each gathered
        entry): ``1 / (1 + c_mem · (1 + i_half/nrhs) · (P − 1))``.
        """
        nproc = int(nproc)
        nrhs = max(1, int(nrhs))
        intensity = 1.0 + self.i_half / nrhs
        return 1.0 / (1.0 + self.c_mem * intensity * (nproc - 1))

    def streaming_speedup(self, nproc: int) -> float:
        """Scaling of pure vector (axpy/dot) operations: linear until the
        memory bus saturates at ``p_bandwidth`` threads."""
        return float(min(int(nproc), self.p_bandwidth))

    # ------------------------------------------------------------------
    # Method-level times
    # ------------------------------------------------------------------

    def asyrgs_time(
        self,
        total_row_nnz: int,
        iterations: int,
        nproc: int,
        *,
        nrhs: int = 1,
        sync_points: int = 0,
    ) -> float:
        """Modeled seconds for an asynchronous run.

        Parameters
        ----------
        total_row_nnz:
            Σ over updates of ``nnz(row)`` — reported by the simulators.
        iterations:
            Number of coordinate updates.
        nproc:
            Thread count.
        nrhs:
            Right-hand sides updated per coordinate touch (the paper's
            row-major 51-RHS scheme: one row traversal updates all RHS).
        sync_points:
            Number of barrier synchronizations (the epoch scheme).
        """
        work = (
            self.t_nnz * float(total_row_nnz) * max(1, int(nrhs))
            + self.t_iter * float(iterations)
        )
        t = work / (int(nproc) * self.async_efficiency(nproc, nrhs))
        return t + int(sync_points) * self.sync_time(nproc)

    def cg_iteration_time(
        self,
        A: CSRMatrix,
        nproc: int,
        *,
        nrhs: int = 1,
        reductions: int = 2,
        vector_ops: int = 5,
    ) -> float:
        """Modeled seconds for one CG iteration on ``nproc`` threads.

        The matvec is distributed round-robin (imbalance measured from
        the actual matrix) and — like the asynchronous sweep — streams
        the matrix, so it pays the same intensity-dependent bandwidth
        efficiency. Each iteration performs ``vector_ops`` n-vector
        operations (bandwidth-saturating) and ``reductions`` global
        reductions.
        """
        nproc = int(nproc)
        if nproc < 1:
            raise ModelError(f"nproc must be at least 1, got {nproc}")
        # Round-robin rows, as the paper's SIMD CG assigns them: the
        # thread holding the heaviest rows (in nnz) paces each matvec.
        counts = A.row_nnz().astype(np.float64)
        loads = np.array([counts[p::nproc].sum() for p in range(nproc)])
        imbalance = float(loads.max() / loads.mean()) if loads.any() else 1.0
        matvec = (
            self.t_nnz * A.nnz * max(1, int(nrhs))
            / (nproc * self.async_efficiency(nproc, nrhs))
            * imbalance
        )
        vec = (
            self.c_vec * A.shape[0] * max(1, int(nrhs)) * vector_ops
            / self.streaming_speedup(nproc)
        )
        return matvec + vec + reductions * self.sync_time(nproc)

    def cg_time(self, A: CSRMatrix, iterations: int, nproc: int, *, nrhs: int = 1) -> float:
        """Modeled seconds for ``iterations`` CG iterations."""
        return int(iterations) * self.cg_iteration_time(A, nproc, nrhs=nrhs)

    def fcg_time(
        self,
        A: CSRMatrix,
        outer_iterations: int,
        nproc: int,
        *,
        precond_row_nnz_per_apply: int,
        precond_iterations_per_apply: int,
        nrhs: int = 1,
    ) -> float:
        """Modeled seconds for a Flexible-CG solve with an AsyRGS
        preconditioner: each outer iteration pays one (slightly heavier)
        CG-like iteration plus one asynchronous preconditioner application
        bracketed by two barriers (threads fork/join around the
        asynchronous phase)."""
        outer = int(outer_iterations)
        # FCG performs one extra dot (the A-orthogonalization) per iteration.
        base = self.cg_iteration_time(A, nproc, nrhs=nrhs, reductions=3, vector_ops=6)
        pre = self.asyrgs_time(
            precond_row_nnz_per_apply,
            precond_iterations_per_apply,
            nproc,
            nrhs=nrhs,
            sync_points=2,
        )
        return outer * (base + pre)

    def speedup(self, serial_time: float, parallel_time: float) -> float:
        """Convenience: serial / parallel, guarded against zero."""
        if parallel_time <= 0:
            raise ModelError("parallel time must be positive")
        return float(serial_time) / float(parallel_time)

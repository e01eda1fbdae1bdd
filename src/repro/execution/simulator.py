"""Bounded-delay simulation of asynchronous randomized Gauss-Seidel.

Real runs cannot choose their delays, so this library also reproduces
the paper's asynchronous executions by *simulating the formal model
directly*: the objects analyzed in the paper are the update
sequences of iterations (8) and (9), and those sequences are exactly what
the simulators generate.

Two engines are provided:

:class:`AsyncSimulator`
    The general engine. One update at a time, arbitrary
    :class:`~repro.execution.delays.DelayModel` (consistent or
    inconsistent), arbitrary :class:`~repro.execution.shared_memory.WriteModel`,
    optional execution trace. The stale view ``x_{k(j)}`` / ``x_{K(j)}`` is
    never materialized: the engine keeps a ring buffer of the last τ writes
    ``(coordinate, δ)`` and corrects the fresh residual entry,

    ``γ_j = (b − A x)_{r_j} + Σ_{t ∈ missed(j)} A[r_j, c_t] · δ_t``,

    which costs ``O(nnz(row) + |missed| · log nnz(row))`` per update —
    the same asymptotics the paper quotes for the real machine.

:class:`PhasedSimulator`
    The vectorized engine for P-processor scaling experiments. Updates are
    processed in *rounds* of P: every update in a round computes its step
    from the round-start state and the P writes then land sequentially.
    Within the paper's formalism this is precisely iteration (8) with
    ``k(j) = round_start(j)`` — lags are ``j mod P ∈ {0, …, P−1}``, so the
    delay bound is ``τ = P − 1``, the paper's reference scenario
    ``τ = O(P)``. A whole round is evaluated with one gathered
    segmented-dot, so large benchmark runs are NumPy-speed. Optional round
    -size jitter models run-to-run scheduling variation, and a non-atomic
    mode resolves same-coordinate collisions within a round by overwrite
    (last write wins) instead of accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError, NotPositiveDefiniteError, ShapeError
from ..rng import CounterRNG, DirectionStream
from ..sparse import CSRMatrix
from ..validation import check_rhs
from .delays import DelayModel, ZeroDelay
from .shared_memory import AtomicWrites, WriteModel
from .trace import ExecutionTrace

__all__ = ["AsyncSimulator", "PhasedSimulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of a simulated asynchronous run.

    Attributes
    ----------
    x:
        Final iterate (shape ``(n,)`` or ``(n, k)`` for multi-RHS).
    iterations:
        Number of coordinate updates applied (across all RHS columns a
        single update counts once, as in the paper's row-major multi-RHS
        scheme).
    total_row_nnz:
        Σ over updates of ``nnz(A_{r_j})`` — the operation count the cost
        model converts into modeled wall-clock time.
    lost_writes:
        Number of updates destroyed by write races.
    trace:
        The :class:`ExecutionTrace`, when recording was requested.
    checkpoints:
        ``(iteration, metric)`` pairs recorded by the caller's callback.
    """

    x: np.ndarray
    iterations: int
    total_row_nnz: int
    lost_writes: int = 0
    trace: ExecutionTrace | None = None
    checkpoints: list[tuple[int, float]] = field(default_factory=list)


def _prepare_system(A: CSRMatrix, b: np.ndarray):
    """Validate shapes, extract the diagonal, and normalize b's shape.

    The b checks (dtype, ndim, row count) come from the shared wording
    table in :mod:`repro.validation`, so every engine rejects a
    malformed right-hand side with the same :class:`ShapeError` text.
    """
    if not A.is_square():
        raise ShapeError(f"asynchronous Gauss-Seidel needs a square matrix, got {A.shape}")
    n = A.shape[0]
    b = check_rhs(b, n)
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise NotPositiveDefiniteError(
            f"A[{bad},{bad}] = {diag[bad]:g} is not positive; Gauss-Seidel "
            "requires a positive diagonal"
        )
    return b, diag, n


def serial_updates(A, b, x, diag, beta, directions, start, count) -> int:
    """Apply ``count`` sequential RGS updates to ``x`` in place, drawing
    rows ``start, start + 1, …`` of ``directions``; returns Σ nnz(row).

    The one serial loop: synchronous RGS (:mod:`repro.core.rgs`) and
    :class:`PhasedSimulator` at ``P = 1`` both run it."""
    indptr, indices, data = A.indptr, A.indices, A.data
    multi = x.ndim == 2
    total_nnz = 0
    done = 0
    while done < count:
        take = min(8192, count - done)
        rows = directions.directions(start + done, take)
        for r in rows:
            r = int(r)
            s, e = indptr[r], indptr[r + 1]
            cols = indices[s:e]
            vals = data[s:e]
            total_nnz += e - s
            if multi:
                gamma = (b[r] - vals @ x[cols]) / diag[r]
            else:
                gamma = (b[r] - float(vals @ x[cols])) / diag[r]
            x[r] += beta * gamma
        done += take
    return total_nnz


class AsyncSimulator:
    """General per-update simulator of iterations (8) and (9).

    Parameters
    ----------
    A:
        SPD system matrix (unit diagonal not required: the general
        iteration (3) with ``γ̃ = (b − Ax)_r / A_rr`` is used).
    b:
        Right-hand side, shape ``(n,)`` or ``(n, k)``.
    delay_model:
        The ``k(j)``/``K(j)`` schedule (Assumptions A-3/A-4).
    directions:
        The shared coordinate stream (Assumption: i.i.d. uniform).
    beta:
        Step size ``β``; the admissible range depends on the delay model
        and is *not* enforced here (the theory module provides the bounds;
        experiments intentionally explore divergence).
    write_model:
        Atomic (default) or lossy writes (Assumption A-1 relaxation).
    record_trace:
        Keep a full :class:`ExecutionTrace` (single-RHS only).
    """

    def __init__(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        delay_model: DelayModel | None = None,
        directions: DirectionStream | None = None,
        beta: float = 1.0,
        write_model: WriteModel | None = None,
        record_trace: bool = False,
    ):
        b, diag, n = _prepare_system(A, b)
        self.A = A
        self.b = b
        self.n = n
        self._diag = diag
        self.delay_model = delay_model if delay_model is not None else ZeroDelay()
        self.directions = directions if directions is not None else DirectionStream(n, seed=0)
        if self.directions.n != n:
            raise ModelError(
                f"direction stream dimension {self.directions.n} != matrix dimension {n}"
            )
        self.beta = float(beta)
        if not 0.0 < self.beta < 2.0:
            raise ModelError(f"step size beta must lie in (0, 2), got {self.beta}")
        self.write_model = write_model if write_model is not None else AtomicWrites()
        self._multi = b.ndim == 2
        self._record_trace = bool(record_trace)
        if self._record_trace and self._multi:
            raise ModelError("execution traces are supported for single-RHS runs only")

    # ------------------------------------------------------------------

    def _lookup(self, row: int, col: int) -> float:
        """A[row, col] by binary search within the row (0.0 when absent)."""
        A = self.A
        s, e = A.indptr[row], A.indptr[row + 1]
        pos = s + np.searchsorted(A.indices[s:e], col)
        if pos < e and A.indices[pos] == col:
            return float(A.data[pos])
        return 0.0

    def run(
        self,
        x0: np.ndarray,
        num_iterations: int,
        *,
        start_iteration: int = 0,
        checkpoint_every: int | None = None,
        checkpoint_metric=None,
    ) -> SimulationResult:
        """Apply ``num_iterations`` asynchronous updates starting from ``x0``.

        Parameters
        ----------
        start_iteration:
            Global index of the first update — positions the direction
            stream and the delay schedule, so a run can be split into
            segments without changing the realized execution.
        checkpoint_every / checkpoint_metric:
            Record ``checkpoint_metric(x)`` every that-many updates (the
            metric is computed on the *current* shared state, which is what
            a monitoring thread would observe).
        """
        num_iterations = int(num_iterations)
        if num_iterations < 0:
            raise ModelError("num_iterations must be non-negative")
        x = np.array(x0, dtype=np.float64)
        if x.shape != self.b.shape:
            raise ShapeError(f"x0 has shape {x.shape}, expected {self.b.shape}")
        A, b, beta = self.A, self.b, self.beta
        model = self.delay_model
        tau = model.tau
        ring = max(tau, 1)
        ring_coord = np.full(ring, -1, dtype=np.int64)
        if self._multi:
            ring_delta = np.zeros((ring, b.shape[1]), dtype=np.float64)
        else:
            ring_delta = np.zeros(ring, dtype=np.float64)
        ring_alive = np.zeros(ring, dtype=bool)
        trace = ExecutionTrace() if self._record_trace else None
        lost_total = 0
        total_row_nnz = 0
        checkpoints: list[tuple[int, float]] = []

        # Prefetch directions in blocks to amortize Philox calls.
        block = 4096
        dirs = np.empty(0, dtype=np.int64)
        dirs_base = start_iteration

        end = start_iteration + num_iterations
        for j in range(start_iteration, end):
            local = j - dirs_base
            if local >= dirs.size:
                dirs = self.directions.directions(j, min(block, end - j))
                dirs_base = j
                local = 0
            r = int(dirs[local])
            s, e = A.indptr[r], A.indptr[r + 1]
            cols = A.indices[s:e]
            vals = A.data[s:e]
            total_row_nnz += e - s
            if self._multi:
                fresh = b[r] - (vals @ x[cols] if e > s else 0.0)
            else:
                fresh = b[r] - (float(vals @ x[cols]) if e > s else 0.0)
            missed = model.missed(j)
            n_missed = int(missed.size)
            gamma = fresh
            for t in missed:
                t = int(t)
                slot = t % ring
                if not ring_alive[slot] or ring_coord[slot] < 0:
                    # Update t predates this run segment (segment boundaries
                    # act as synchronization points) or was destroyed.
                    continue
                c_t = int(ring_coord[slot])
                coeff = self._lookup(r, c_t)
                if coeff != 0.0:
                    gamma = gamma + coeff * ring_delta[slot]
                # Write-race resolution: update j raced with t on the same
                # coordinate; the write model may destroy t's delta.
                if c_t == r and self.write_model.lost(j, t):
                    x[c_t] = x[c_t] - ring_delta[slot]
                    ring_alive[slot] = False
                    lost_total += 1
                    if trace is not None and t >= start_iteration:
                        trace.mark_lost(t - start_iteration)
            gamma = gamma / self._diag[r]
            delta = beta * gamma
            x[r] = x[r] + delta
            slot = j % ring
            ring_coord[slot] = r
            ring_delta[slot] = delta
            ring_alive[slot] = True
            if trace is not None:
                g_scalar = float(gamma) if not self._multi else float(np.linalg.norm(gamma))
                trace.append(r, n_missed, g_scalar, False)
            if (
                checkpoint_every
                and checkpoint_metric is not None
                and (j - start_iteration + 1) % checkpoint_every == 0
            ):
                checkpoints.append((j + 1, float(checkpoint_metric(x))))
        return SimulationResult(
            x=x,
            iterations=num_iterations,
            total_row_nnz=total_row_nnz,
            lost_writes=lost_total,
            trace=trace,
            checkpoints=checkpoints,
        )


class PhasedSimulator:
    """Vectorized round-based simulator of P equal-speed processors.

    Round ``t`` takes a snapshot ``x^{(t)}``, draws the next ``B_t ≈ P``
    directions, computes every step ``γ`` from the snapshot with one
    segmented gather-dot, and lands the writes. Update ``j`` in the round
    misses exactly the earlier updates of its own round — the consistent-
    read model (8) with ``τ = max round size − 1``.

    Parameters
    ----------
    A, b, beta, directions:
        As in :class:`AsyncSimulator`.
    nproc:
        Round size P (``nproc = 1`` reproduces synchronous RGS exactly).
    atomic:
        ``True`` accumulates same-coordinate collisions within a round
        (atomic fetch-add semantics); ``False`` resolves them by overwrite
        — only the last colliding write survives, the non-atomic variant
        of the paper's Figure 2 experiment.
    jitter:
        Maximum round-size deviation; round sizes are drawn uniformly from
        ``{P−jitter, …, P+jitter}`` (clamped to ≥1) using ``seed``. This
        models run-to-run scheduling variation while keeping the direction
        sequence fixed.
    """

    def __init__(
        self,
        A: CSRMatrix,
        b: np.ndarray,
        *,
        nproc: int,
        directions: DirectionStream | None = None,
        beta: float = 1.0,
        atomic: bool = True,
        jitter: int = 0,
        seed: int = 0,
    ):
        b, diag, n = _prepare_system(A, b)
        nproc = int(nproc)
        if nproc < 1:
            raise ModelError(f"nproc must be at least 1, got {nproc}")
        jitter = int(jitter)
        if jitter != 0 and not 0 <= jitter < nproc:
            raise ModelError(f"jitter must lie in [0, nproc), got {jitter}")
        self.A = A
        self.b = b
        self.n = n
        self._diag = diag
        self.nproc = nproc
        self.beta = float(beta)
        if not 0.0 < self.beta < 2.0:
            raise ModelError(f"step size beta must lie in (0, 2), got {self.beta}")
        self.atomic = bool(atomic)
        self.jitter = jitter
        self.directions = directions if directions is not None else DirectionStream(n, seed=0)
        if self.directions.n != n:
            raise ModelError(
                f"direction stream dimension {self.directions.n} != matrix dimension {n}"
            )
        self._round_rng = CounterRNG(seed, stream=0x70A5)
        self._multi = b.ndim == 2

    @property
    def tau(self) -> int:
        """The delay bound realized by this engine: max round size − 1."""
        return self.nproc + self.jitter - 1

    def run(
        self,
        x0: np.ndarray,
        num_iterations: int,
        *,
        start_iteration: int = 0,
        checkpoint_every: int | None = None,
        checkpoint_metric=None,
    ) -> SimulationResult:
        """Apply ``num_iterations`` updates in rounds of ≈ ``nproc``."""
        num_iterations = int(num_iterations)
        if num_iterations < 0:
            raise ModelError("num_iterations must be non-negative")
        x = np.array(x0, dtype=np.float64)
        if x.shape != self.b.shape:
            raise ShapeError(f"x0 has shape {x.shape}, expected {self.b.shape}")
        A, b, beta, P = self.A, self.b, self.beta, self.nproc
        if (
            P == 1
            and self.jitter == 0
            and checkpoint_every is None
        ):
            # A round of size 1 is exactly one synchronous update; the
            # serial loop (synchronous RGS's own) avoids per-round NumPy
            # overhead.
            total = serial_updates(
                A, b, x, self._diag, beta, self.directions,
                int(start_iteration), num_iterations,
            )
            return SimulationResult(
                x=x, iterations=num_iterations, total_row_nnz=total,
                lost_writes=0, checkpoints=[],
            )
        lost_total = 0
        total_row_nnz = 0
        checkpoints: list[tuple[int, float]] = []
        done = 0
        j = int(start_iteration)
        round_index = 0
        next_checkpoint = checkpoint_every if checkpoint_every else None
        # Prefetch directions in large blocks; rounds slice from the
        # buffer, amortizing the Philox calls for small round sizes.
        buf = np.empty(0, dtype=np.int64)
        buf_base = j
        while done < num_iterations:
            size = P
            if self.jitter:
                size = P - self.jitter + int(
                    self._round_rng.randint(round_index, 1, 2 * self.jitter + 1)[0]
                )
                size = max(1, size)
            size = min(size, num_iterations - done)
            local = j - buf_base
            if local + size > buf.size:
                take = max(4096, size)
                buf = self.directions.directions(j, min(take, num_iterations - done))
                buf_base = j
                local = 0
            rows = buf[local : local + size]
            gammas = (b[rows] - A.rows_dot(rows, x))
            if self._multi:
                gammas = gammas / self._diag[rows][:, None]
            else:
                gammas = gammas / self._diag[rows]
            deltas = beta * gammas
            total_row_nnz += int((A.indptr[rows + 1] - A.indptr[rows]).sum())
            if self.atomic:
                np.add.at(x, rows, deltas)
            else:
                # Overwrite race: within the round, only the LAST write to
                # each coordinate survives (the others computed from the
                # same snapshot and were clobbered).
                last_pos = {}
                for p in range(rows.size):
                    last_pos[int(rows[p])] = p
                survivors = np.fromiter(last_pos.values(), dtype=np.int64, count=len(last_pos))
                lost_total += rows.size - survivors.size
                x[rows[survivors]] = x[rows[survivors]] + deltas[survivors]
            done += size
            j += size
            round_index += 1
            if (
                next_checkpoint is not None
                and checkpoint_metric is not None
                and done >= next_checkpoint
            ):
                checkpoints.append((int(start_iteration) + done, float(checkpoint_metric(x))))
                next_checkpoint += checkpoint_every
        return SimulationResult(
            x=x,
            iterations=num_iterations,
            total_row_nnz=total_row_nnz,
            lost_writes=lost_total,
            checkpoints=checkpoints,
        )

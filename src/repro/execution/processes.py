"""True shared-memory multiprocess backend for AsyRGS.

This executes Algorithm 1 of the paper on genuine OS *processes* — each
with its own CPython interpreter and therefore its own GIL — sharing one
iterate through :mod:`multiprocessing.shared_memory`. It is the backend
the simulators structurally cannot replace: they model delays instead of
incurring them, and CPython threads would be serialized by the GIL. Here
delays are real, reads are genuinely inconsistent, and wall-clock
speedup is measurable.

The machinery that is *not* specific to Gauss-Seidel — the one-segment
``SharedMemory`` layout, the worker lifecycle (control word,
generations, the epoch gates, crash attribution), the per-worker Philox
direction streams, per-column retirement, and the persistent-pool
plumbing — lives in :mod:`repro.execution.pool`, and so does the per-draw
step, which every pool runs in the native segment kernel. This module
contributes only the system preparation (:class:`ProcessAsyRGS`), which
keeps the step's default coordinate scatter, ``x[r] += β·γ``. The
asynchronous Kaczmarz method for rectangular least-squares systems
(:class:`~repro.execution.kaczmarz.AsyRK`) is a sibling on the same core
with the projection scatter.

Per-column convergence and retirement
-------------------------------------
:meth:`ProcessAsyRGS.solve` judges convergence per column: at every
epoch boundary the parent measures each column's relative residual and
the run finishes only when all of them sit below ``tol`` — a single
Frobenius aggregate can pass while one hard label is still far off.
Columns that reach ``tol`` are *retired* (``retire=True``, the
default): the parent clears their slot in the shared active-column
mask while it owns the segment, and from the next epoch on every
worker's row gather scatters only into the surviving columns. The
direction sequence, the epoch structure, and the delay measurement are
unchanged — segments just narrow — so the Theorem 2 synchronization
story is preserved while a skewed block (the 51-label social workload)
stops paying for its easy labels.

Block right-hand sides
----------------------
The paper's headline experiment (Section 9) solves the social-media Gram
system for 51 label right-hand sides *simultaneously*: one traversal of
row ``r`` updates every column of the iterate block, amortizing the
matrix access across the labels. A worker that draws coordinate ``r``
gathers the row once and computes all ``k`` corrections with a single
``(nnz_r,) @ (nnz_r, k)`` product; ``iterations``, the write-log, and
the τ statistics count *row updates* (one per draw, across all columns),
matching the simulators' multi-RHS accounting.

Pool lifecycle
--------------
The worker pool is persistent. Used as a context manager::

    with ProcessAsyRGS(A, B, nproc=4) as solver:
        first = solver.solve(tol=1e-6, max_sweeps=200)
        again = solver.solve(tol=1e-6, max_sweeps=200)       # no respawn
        other = solver.solve(tol=1e-6, max_sweeps=200, b=B2)  # same A, new b

the processes are spawned once and the CSR is copied into shared memory
once; each call resets the iterate, the counters, and a *generation*
stamp in the control word that tells workers to rewind their direction
streams. Outside a ``with`` block every ``run()``/``solve()`` call
spawns and tears down its own pool (the original one-shot behavior).

Capacity-k layouts
------------------
The shared block is allocated at ``capacity_k`` columns (default: the
constructor ``b``'s width). Any later ``run()``/``solve()`` call may
pass a ``b=`` of *any* width ``k ≤ capacity_k`` — a vector, a narrower
block, or the full block — and the live pool serves it without
respawning workers or re-copying the CSR: the parent writes the request
into the first ``k`` columns and clears the remaining slots of the
shared active-column mask, so workers simply never touch the spare
columns. This is the serving regime (one resident matrix, varying RHS
traffic)::

    with ProcessAsyRGS(A, np.zeros((n, 51)), nproc=4, capacity_k=51) as s:
        s.solve(tol=1e-6, max_sweeps=200, b=B51)        # full block
        s.solve(tol=1e-6, max_sweeps=200, b=b_single)   # k=1, same pool
        assert s.spawn_count == 1

A request wider than ``capacity_k`` raises :class:`ShapeError` — the
segment cannot grow without a respawn, and growing silently would hide
the cost.

Randomness
----------
Worker ``p`` of ``P`` draws its coordinates from
``DirectionStream.for_processor(p, P)`` — the strided view
``r_p, r_{p+P}, …`` of one global Philox stream — so the union of
directions consumed by ``P`` processes equals the serial sequence
exactly (the paper's Random123 technique, Section 9). Per-epoch shares
are cut with :func:`~repro.rng.interleave_counts` of the *cumulative*
update budget, which keeps the union property across epoch boundaries.
Every call served by one pool restarts the stream from position 0, so a
reused pool answers exactly like a fresh one. ``adaptive=True`` keeps
the stream identical and reinterprets each draw through the
residual-weighted CDF the parent republishes at every epoch boundary
(see :mod:`repro.execution.pool`); the default uniform mode is bit-for-
bit the paper's sampling.

Epochs
------
:meth:`ProcessAsyRGS.solve` runs the synchronization scheme of
Theorem 2's discussion through the shared epoch driver
(:mod:`repro.execution.epochs`): run asynchronously for ``sync_every_sweeps · n``
updates, meet at the end gate (every worker's writes are visible — a
segment boundary in the paper's sense), let the parent evaluate the
residual on the shared iterate, and either continue or open the start
gate again. The gates are words of the shared segment that the parent
and the workers wait on with a futex (see :mod:`repro.execution.pool`);
the residual check is one native pass over the live iterate block
(:class:`~repro.core.residuals.ColumnTracker`). The number of epochs
is reported as ``sync_points``.

Delay measurement
-----------------
Each update records how many *foreign* commits landed between its read
of the shared iterate and its own commit — an empirical staleness sample
recovered from the shared write-log (per-worker progress counters plus a
bounded sample log). The maximum over samples is ``tau_observed``, the
empirical counterpart of the paper's delay bound ``τ``, and is exactly
what the theory's ``ρ·τ`` products (:func:`~repro.core.theory.nu_tau`,
``rho_infinity``) should be evaluated against when checking a real run
against the proven rate.

Atomicity
---------
Cross-process ``x[r] += δ`` is *not* atomic. By default the backend
writes plainly — the non-atomic regime the paper tests experimentally
in Section 9 and finds indistinguishable. ``atomic=True`` adds each
written element with a 64-bit compare-exchange loop, retried while
another worker wrote it in between (Assumption A-1); in block mode
each active column of row ``r`` is one exchange. The row gather stays
unlocked either way: atomicity is about lost writes, not stale reads.
At one worker an exchange always succeeds at once, so an atomic pool
gives the non-atomic pool's bits.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix
from .pool import (  # noqa: F401  (re-exported: the public result types live here)
    DelayStats,
    PoolSolver,
    ProcessRunResult,
    available_cpus,
)
from .simulator import _prepare_system

__all__ = ["ProcessAsyRGS", "ProcessRunResult", "DelayStats"]


class ProcessAsyRGS(PoolSolver):
    """Asynchronous randomized Gauss-Seidel on real OS processes.

    Parameters
    ----------
    A, b:
        The system (positive diagonal required). ``b`` may be a vector
        ``(n,)`` or a block of right-hand sides ``(n, k)`` — the block
        is solved simultaneously, one row gather serving all columns.
    nproc, beta, atomic, directions, adaptive, start_method,
    barrier_timeout, capacity_k:
        The pool options, declared and documented on
        :class:`~repro.execution.pool.PoolSolver` and forwarded
        unchanged.

    Used as a context manager, the worker pool persists across calls:
    processes are spawned once and the CSR is copied into shared memory
    once, then every ``run()``/``solve()`` (optionally with a different
    ``b=`` of the same shape) reuses them. Outside a ``with`` block each
    call manages its own short-lived pool.
    """

    method_name = "asyrgs"

    def __init__(self, A: CSRMatrix, b: np.ndarray, **pool):
        b, diag, n = _prepare_system(A, b)
        super().__init__(A, b, diag, n_rows=n, x_rows=n, b_rows=n, **pool)
        self.n = n
        self._diag = diag

    def _tracker(self, x0: np.ndarray, b: np.ndarray, tol: float):
        # Deferred import: repro.core imports repro.execution at package
        # init, so a module-level import here would be circular.
        from ..core.residuals import ColumnTracker

        return ColumnTracker(self.A, x0, b, tol)

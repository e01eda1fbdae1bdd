"""Block-partitioned (owner-computes) randomization — Section 10 future work.

The paper notes its algorithm lets *every* processor update *every* entry,
which is wrong for distributed memory: there "it is desirable that each
processor owns and be the sole updater of only a subset of the entries.
To allow this, a more limited form of randomization should be used, and
this is not explored in the paper."

This module explores it. Coordinates are partitioned into P owner blocks;
processor p draws its updates uniformly *from its own block only*. The
resulting direction distribution over one round is still uniform over all
coordinates (each block is sampled at rate proportional to its size when
blocks are balanced), so Lemma 1's expectation argument survives — but
updates to a coordinate now always come from the same processor, which is
exactly the property a distributed implementation needs (no write
conflicts across owners, delay bound decoupled from remote writes).

Two pieces:

* :class:`BlockPartitionedDirections` — the restricted direction
  strategy: position ``j`` belongs to processor ``j mod P``, which draws
  uniformly from its block. A pure function of ``(key, j)``, so it plugs
  into every solver and simulator in the library.
* :func:`owner_computes_solve` — AsyRGS under owner-computes
  randomization on the phased engine: rounds of P updates, one per owner,
  each computed from the round snapshot — a faithful single-program
  model of P distributed workers exchanging halo updates once per round.

The ablation bench compares convergence against unrestricted
randomization at matched budgets; the expected finding (confirmed
experimentally) is that balanced partitions pay little, while imbalanced
partitions slow convergence on the starved coordinates — quantifying the
trade-off the paper deferred.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..core.residuals import ConvergenceHistory, relative_residual
from ..exceptions import ModelError, ShapeError
from ..execution import PhasedSimulator, balanced_partition, contiguous_partition
from ..execution.epochs import SimulatorEngine, solve_epochs
from ..rng import CounterRNG
from ..sparse import CSRMatrix

__all__ = [
    "BlockPartitionedDirections",
    "OwnerComputesResult",
    "owner_computes_solve",
]


class BlockPartitionedDirections:
    """Owner-computes direction strategy.

    Stream position ``j`` is served by owner ``j mod P``, who samples
    uniformly from its own coordinate block. With balanced blocks the
    marginal distribution of each ``r_j`` is uniform over all coordinates
    — the Leventhal–Lewis requirement — while the *writer* of every
    coordinate is fixed, the distributed-memory property.

    Parameters
    ----------
    blocks:
        List of P disjoint int64 index arrays covering ``0..n-1``.
    seed:
        Philox key for the within-block draws.
    """

    def __init__(self, blocks: list[np.ndarray], seed: int = 0):
        if not blocks:
            raise ModelError("need at least one owner block")
        cleaned = []
        total = 0
        for b in blocks:
            arr = np.asarray(b, dtype=np.int64)
            if arr.ndim != 1 or arr.size == 0:
                raise ModelError("every owner block must be a non-empty 1-D array")
            cleaned.append(arr)
            total += arr.size
        self.blocks = cleaned
        all_idx = np.concatenate(cleaned)
        n = int(all_idx.max()) + 1
        if total != n or not np.array_equal(np.sort(all_idx), np.arange(n)):
            raise ModelError("owner blocks must partition 0..n-1 exactly")
        self.n = n
        self.nproc = len(cleaned)
        self._rng = CounterRNG(seed, stream=0xB10C)

    def owner(self, j: int) -> int:
        """The processor serving stream position ``j``."""
        return int(j) % self.nproc

    def direction(self, j: int) -> int:
        j = int(j)
        block = self.blocks[j % self.nproc]
        # Same draw formula as the batched path so the two agree exactly.
        pick = int(self._rng.randint(j, 1, 0x7FFFFFFF)[0] % np.uint64(block.size))
        return int(block[pick])

    def directions(self, start: int, count: int) -> np.ndarray:
        start = int(start)
        count = int(count)
        out = np.empty(count, dtype=np.int64)
        js = np.arange(start, start + count, dtype=np.int64)
        owners = (js % self.nproc).astype(np.int64)
        picks = self._rng.randint(start, count, 0x7FFFFFFF)
        for k in range(count):
            block = self.blocks[owners[k]]
            out[k] = block[int(picks[k] % np.uint64(block.size))]
        return out

    def __repr__(self) -> str:
        sizes = [b.size for b in self.blocks]
        return f"BlockPartitionedDirections(n={self.n}, nproc={self.nproc}, sizes={sizes})"


@dataclass
class OwnerComputesResult:
    """Outcome of an owner-computes asynchronous solve."""

    x: np.ndarray
    sweeps: int
    converged: bool
    history: ConvergenceHistory | None


def owner_computes_solve(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    nproc: int,
    partition: str = "balanced",
    beta: float = 1.0,
    tol: float = 1e-8,
    max_sweeps: int = 1000,
    seed: int = 0,
    record_history: bool = True,
) -> OwnerComputesResult:
    """AsyRGS under owner-computes randomization.

    Each round of the phased engine performs one update per owner from the
    round-start snapshot — P distributed workers that exchange updates
    once per round (halo exchange), each randomizing within its own block.

    Parameters
    ----------
    partition:
        ``"balanced"`` (round-robin) or ``"contiguous"`` owner blocks.
    """
    if not A.is_square():
        raise ShapeError(f"owner_computes_solve needs a square matrix, got {A.shape}")
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ShapeError(f"b has shape {b.shape}, expected ({n},)")
    if partition == "balanced":
        blocks = balanced_partition(n, nproc)
    elif partition == "contiguous":
        blocks = contiguous_partition(n, nproc)
    else:
        raise ModelError(f"unknown partition {partition!r}")
    directions = BlockPartitionedDirections(blocks, seed=seed)
    sim = PhasedSimulator(A, b, nproc=int(nproc), directions=directions, beta=beta)
    # One epoch per sweep; the residual is judged as a single aggregate.
    result = solve_epochs(
        nullcontext(SimulatorEngine(sim)),
        None,
        np.zeros(n),
        b,
        tol=tol,
        max_sweeps=max_sweeps,
        metric=lambda x: relative_residual(A, x, b),
        n_rows=n,
    )
    history = None
    if record_history:
        history = ConvergenceHistory(
            label="owner-computes", unit="sweep", metric="relative_residual"
        )
        for it, value in result.checkpoints:
            history.record(it // n, value)
    return OwnerComputesResult(
        x=result.x,
        sweeps=result.sweeps_done,
        converged=result.converged,
        history=history,
    )

"""Fault injection: slow/dead processors and the value of randomization.

The paper's related-work discussion (Section 2, on Hook & Dingle) points
at the single-point-of-failure weakness of classical asynchronous
schemes: "performance can suffer if an entry of the iterate is repeatedly
updated using stale data because of a slow communication link, or fails
to be updated at all because of a slow processor. This indicates the
potential of using randomization to obtain robust performance in the face
of such single-point-of-failure vulnerabilities."

This module injects exactly that fault and measures the claim:

* :class:`DeadProcessorDirections` — wraps any direction strategy in a
  P-processor round-robin schedule where a subset of processors is dead
  (contributes no updates). With *unrestricted* randomization the
  surviving processors still sample every coordinate, so convergence
  degrades only by the lost throughput. With *owner-computes* restricted
  randomization, a dead owner's coordinates are never updated again and
  the solve stalls at a residual floor.
* :func:`dead_processor_study` — runs both configurations side by side
  and reports the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.residuals import relative_residual
from ..exceptions import ModelError, ShapeError
from ..execution import PhasedSimulator, balanced_partition
from ..rng import DirectionStream
from ..sparse import CSRMatrix
from .block_partitioned import BlockPartitionedDirections

__all__ = ["DeadProcessorDirections", "DeadProcessorStudy", "dead_processor_study"]


class DeadProcessorDirections:
    """Round-robin processor schedule with dead slots removed.

    Global update stream positions are served by the *surviving*
    processors only: position ``j`` maps to the ``j``-th element of the
    schedule obtained by deleting dead processors from the round-robin
    order. The wrapped strategy is consulted at the original (pre-fault)
    stream positions of the surviving processors, so a run with faults is
    comparable update-for-update with the healthy run restricted to the
    survivors.
    """

    def __init__(self, base, nproc: int, dead: set[int] | list[int]):
        nproc = int(nproc)
        dead_set = {int(d) for d in dead}
        if nproc < 1:
            raise ModelError(f"need at least one processor, got {nproc}")
        if not all(0 <= d < nproc for d in dead_set):
            raise ModelError("dead processor index out of range")
        if len(dead_set) >= nproc:
            raise ModelError("at least one processor must survive")
        self.base = base
        self.nproc = nproc
        self.dead = frozenset(dead_set)
        self._alive = np.array(
            [p for p in range(nproc) if p not in dead_set], dtype=np.int64
        )
        self.n = base.n

    def _map_position(self, j: int) -> int:
        """Pre-fault stream position of the j-th surviving update."""
        k = len(self._alive)
        round_idx, slot = divmod(int(j), k)
        return round_idx * self.nproc + int(self._alive[slot])

    def direction(self, j: int) -> int:
        return self.base.direction(self._map_position(j))

    def directions(self, start: int, count: int) -> np.ndarray:
        out = np.empty(int(count), dtype=np.int64)
        for k in range(int(count)):
            out[k] = self.base.direction(self._map_position(int(start) + k))
        return out

    def __repr__(self) -> str:
        return (
            f"DeadProcessorDirections(nproc={self.nproc}, "
            f"dead={sorted(self.dead)}, base={self.base!r})"
        )


@dataclass
class DeadProcessorStudy:
    """Outcome of the single-point-of-failure experiment."""

    uniform_residual: float
    uniform_converged: bool
    owner_residual: float
    owner_converged: bool
    starved_coordinates: int

    def summary(self) -> str:
        return (
            f"uniform randomization: residual {self.uniform_residual:.3e} "
            f"(converged={self.uniform_converged}); owner-computes: residual "
            f"{self.owner_residual:.3e} (converged={self.owner_converged}, "
            f"{self.starved_coordinates} coordinates starved)"
        )


def dead_processor_study(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    nproc: int = 8,
    dead: tuple[int, ...] = (0,),
    sweeps: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
) -> DeadProcessorStudy:
    """Kill processors and compare unrestricted vs owner-computes solves.

    Both runs get the same surviving update throughput (``sweeps`` worth
    of updates executed by the survivors); the difference is purely in
    *which coordinates* the survivors may touch.
    """
    if not A.is_square():
        raise ShapeError(f"need a square matrix, got {A.shape}")
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ShapeError(f"b has shape {b.shape}, expected ({n},)")
    survivors = int(nproc) - len(set(int(d) for d in dead))
    budget = int(sweeps) * n

    # Unrestricted randomization with dead processors.
    uniform = DeadProcessorDirections(
        DirectionStream(n, seed=seed), nproc=nproc, dead=set(dead)
    )
    sim_u = PhasedSimulator(A, b, nproc=survivors, directions=uniform)
    x_u = sim_u.run(np.zeros(n), budget).x
    res_u = relative_residual(A, x_u, b)

    # Owner-computes randomization with the same dead processors: the
    # dead owners' blocks are never touched.
    blocks = balanced_partition(n, nproc)
    owner = DeadProcessorDirections(
        BlockPartitionedDirections(blocks, seed=seed), nproc=nproc, dead=set(dead)
    )
    sim_o = PhasedSimulator(A, b, nproc=survivors, directions=owner)
    x_o = sim_o.run(np.zeros(n), budget).x
    res_o = relative_residual(A, x_o, b)
    starved = int(sum(blocks[int(d)].size for d in set(dead)))

    return DeadProcessorStudy(
        uniform_residual=res_u,
        uniform_converged=res_u < tol,
        owner_residual=res_o,
        owner_converged=res_o < tol,
        starved_coordinates=starved,
    )

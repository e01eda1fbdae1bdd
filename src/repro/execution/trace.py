"""Execution traces: a compact record of an asynchronous run.

A trace stores, for every update ``j``: the coordinate ``r_j``, the number
of missed window updates and the computed step ``γ_j``. Traces make asynchronous executions
*replayable* — applying a trace to the same initial vector reproduces the
final iterate bit-for-bit — and are the raw material for delay-distribution
diagnostics.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError

__all__ = ["ExecutionTrace", "replay_trace"]

_GROW = 1024


class ExecutionTrace:
    """Append-only per-iteration record of an asynchronous execution."""

    def __init__(self):
        self._coord = np.empty(_GROW, dtype=np.int64)
        self._missed = np.empty(_GROW, dtype=np.int32)
        self._gamma = np.empty(_GROW, dtype=np.float64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self) -> None:
        if self._n == self._coord.shape[0]:
            cap = self._coord.shape[0] * 2
            self._coord = np.resize(self._coord, cap)
            self._missed = np.resize(self._missed, cap)
            self._gamma = np.resize(self._gamma, cap)

    def append(self, coord: int, missed: int, gamma: float) -> None:
        self._reserve()
        self._coord[self._n] = coord
        self._missed[self._n] = missed
        self._gamma[self._n] = gamma
        self._n += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def coords(self) -> np.ndarray:
        """Coordinate ``r_j`` per iteration."""
        return self._coord[: self._n]

    @property
    def missed_counts(self) -> np.ndarray:
        """``|missed(j)|`` per iteration (consistent models: the lag)."""
        return self._missed[: self._n]

    @property
    def gammas(self) -> np.ndarray:
        """Computed step ``γ_j`` per iteration (pre step-size)."""
        return self._gamma[: self._n]

    def delay_histogram(self) -> dict[int, int]:
        """Counts of observed missed-update counts across the run."""
        values, counts = np.unique(self.missed_counts, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def coordinate_touch_counts(self, n: int) -> np.ndarray:
        """How many times each coordinate was updated."""
        return np.bincount(self.coords, minlength=int(n))


def replay_trace(trace: ExecutionTrace, x0: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Re-apply a recorded execution to ``x0`` and return the final iterate.

    Every update ``j`` contributes ``β·γ_j`` to coordinate ``r_j``.
    Because γ values were recorded
    *after* the stale-view computation, the replay is exact regardless of
    the delay model that produced the trace.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1:
        raise ShapeError("replay_trace currently replays single-RHS traces")
    x = x0.copy()
    np.add.at(x, trace.coords, beta * trace.gammas)
    return x

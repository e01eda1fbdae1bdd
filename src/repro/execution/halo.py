"""The halo board: how shards exchange iterate rows.

:class:`~repro.execution.sharded.ShardedSolver` runs one pool per row
shard, and the shards exchange the rows of the iterate they own
through one :class:`LocalBoard` — an ``(n, k)`` array of the most
recently published owned block of every shard:

``publish(shard, rows, generation)``
    Shard ``shard`` has finished a local epoch; ``rows`` is its owned
    ``(n_s, k)`` block of the iterate and ``generation`` its completed
    local sweep count. A publish is a memcpy under a short mutex and
    **never waits on another shard's epoch** — the no-global-barrier
    property the source paper's inconsistent-read analysis (arXiv
    1304.6475; Liu/Wright arXiv 1401.4780) rests on.
``pull(halo_rows) -> (values, ages)``
    The most recently published values of the requested global rows,
    plus the *generation stamp* each returned row was published at
    (``0`` for never-published rows). Pulls are **deliberately
    unlocked**: a pull racing a foreign publish can observe a torn mix
    of that shard's epochs ``t`` and ``t+1``.
``snapshot()``
    A per-shard-consistent copy of the whole board (publishes excluded
    while it is taken) — what the coordinator assembles the global
    residual from.
"""

from __future__ import annotations

import threading

import numpy as np

from ..exceptions import ModelError

__all__ = ["LocalBoard"]


def _owner_map(bounds: list[tuple[int, int]], n: int) -> np.ndarray:
    """Global row → owning shard index (the ages lookup table)."""
    owner = np.zeros(n, dtype=np.int64)
    for s, (r0, r1) in enumerate(bounds):
        owner[r0:r1] = s
    return owner


class LocalBoard:
    """The in-process board, extracted from ``ShardedSolver.solve``.

    Publishes copy the owned block under a short mutex; pulls fancy-
    index the board **without the lock** — a pull racing a foreign
    publish yields a torn, stale mix of that shard's epochs, exactly
    the inconsistent-read regime the paper proves convergent. The
    coordinator's :meth:`snapshot` takes the mutex so the residual is
    judged on a per-shard-consistent mixture of epochs.
    """

    def __init__(self, x0: np.ndarray, bounds: list[tuple[int, int]]):
        board = np.array(x0, dtype=np.float64, copy=True)
        if board.ndim != 2:
            raise ModelError(
                f"a halo board is (n, k)-shaped, got ndim={board.ndim}"
            )
        self._board = board
        self._bounds = [(int(r0), int(r1)) for r0, r1 in bounds]
        self._gen = np.zeros(len(self._bounds), dtype=np.int64)
        self._owner = _owner_map(self._bounds, board.shape[0])
        self._lock = threading.Lock()

    def publish(
        self, shard: int, rows: np.ndarray, generation: int
    ) -> None:
        r0, r1 = self._bounds[shard]
        with self._lock:
            self._board[r0:r1] = rows
            self._gen[shard] = generation

    def pull(self, halo_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Deliberately unlocked: torn reads by design.
        return self._board[halo_rows], self._gen[self._owner[halo_rows]]

    def snapshot(self) -> np.ndarray:
        with self._lock:
            return self._board.copy()

    def generations(self) -> np.ndarray:
        """Per-shard published generation stamps (a copy)."""
        with self._lock:
            return self._gen.copy()

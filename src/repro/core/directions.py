"""Direction-selection strategies for coordinate-descent style iterations.

The iteration ``x_{j+1} = x_j + βγ_j d_j`` is parameterized by the choice
of direction vectors ``d_j = e^{(r_j)}``. The paper's method draws ``r_j``
i.i.d. uniform (Section 3, Leventhal–Lewis); classical Gauss-Seidel cycles
through coordinates, in a fixed or a per-sweep random order. All are provided
behind one protocol so solvers and simulators are strategy-agnostic:

``direction(j) -> int`` and ``directions(start, count) -> int64 array``,
with the sequence a pure function of ``j`` (random access — required by
the delay-independence assumption A-4 and by trace replay).
"""

from __future__ import annotations

import numpy as np

from ..rng import CounterRNG, DirectionStream

__all__ = [
    "UniformDirections",
    "CyclicDirections",
    "PermutedCyclicDirections",
]


# The uniform strategy is the DirectionStream itself; the alias documents
# the role it plays in the strategy family.
UniformDirections = DirectionStream


class CyclicDirections:
    """Deterministic sweep order ``r_j = j mod n`` — classical Gauss-Seidel.

    Matches the paper's remark that ``d_i = e^{((i mod n)+1)}`` recovers a
    standard Gauss-Seidel sweep every ``n`` iterations.
    """

    def __init__(self, n: int):
        n = int(n)
        if n <= 0:
            raise ValueError(f"dimension must be positive, got {n}")
        self.n = n

    def direction(self, j: int) -> int:
        return int(j) % self.n

    def directions(self, start: int, count: int) -> np.ndarray:
        return (np.arange(start, start + count, dtype=np.int64)) % self.n

    def __repr__(self) -> str:
        return f"CyclicDirections(n={self.n})"


class PermutedCyclicDirections:
    """Each sweep visits every coordinate once, in a per-sweep random order.

    A common practical compromise between cyclic and i.i.d. sampling
    ("random permutation Gauss-Seidel"); included for the ablation of the
    direction-selection design choice. The permutation of sweep ``s`` is a
    pure function of ``(seed, s)``.
    """

    def __init__(self, n: int, seed: int = 0):
        n = int(n)
        if n <= 0:
            raise ValueError(f"dimension must be positive, got {n}")
        self.n = n
        self._rng = CounterRNG(seed, stream=0x9E3C)

    def _perm(self, sweep: int) -> np.ndarray:
        return self._rng.split(sweep).permutation(0, self.n)

    def direction(self, j: int) -> int:
        j = int(j)
        sweep, offset = divmod(j, self.n)
        return int(self._perm(sweep)[offset])

    def directions(self, start: int, count: int) -> np.ndarray:
        out = np.empty(int(count), dtype=np.int64)
        j = int(start)
        filled = 0
        while filled < count:
            sweep, offset = divmod(j, self.n)
            take = min(self.n - offset, count - filled)
            out[filled : filled + take] = self._perm(sweep)[offset : offset + take]
            filled += take
            j += take
        return out

    def __repr__(self) -> str:
        return f"PermutedCyclicDirections(n={self.n})"

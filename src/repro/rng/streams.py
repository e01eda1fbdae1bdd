"""Random-access direction streams for randomized solvers.

The randomized Gauss-Seidel iteration consumes an i.i.d. sequence of
coordinate indices ``r_0, r_1, …`` (the directions ``d_j = e^{(r_j)}``).
:class:`DirectionStream` provides this sequence as a *pure function* of
``(key, j)``, which is exactly how the paper's experiments pin the
direction sequence across thread counts (Section 9, via Random123).

Per-worker streams for the worker pool are derived with
:meth:`DirectionStream.for_processor`, which interleaves the global
sequence round-robin so that the union over processors of the first
``m/P`` draws equals the first ``m`` draws of the global stream.
"""

from __future__ import annotations

import numpy as np

from .philox import CounterRNG

__all__ = ["DirectionStream", "interleave_counts"]


class DirectionStream:
    """The coordinate sequence ``r_j ~ U{0, …, n−1}``, randomly accessible.

    Parameters
    ----------
    n:
        Number of coordinates (the matrix dimension).
    seed:
        RNG seed; two streams with the same ``(n, seed, stream)`` are
        identical element-wise.
    stream:
        Independent sub-stream selector.
    """

    def __init__(self, n: int, seed: int, stream: int = 0):
        n = int(n)
        if n <= 0:
            raise ValueError(f"dimension must be positive, got {n}")
        self.n = n
        self._rng = CounterRNG(seed, stream=stream)

    @property
    def seed(self) -> int:
        return self._rng.seed

    @property
    def stream(self) -> int:
        return self._rng.stream

    @property
    def key(self) -> np.ndarray:
        """The Philox key (two uint32 words) of every draw: word ``j`` of
        the stream is word ``j mod 4`` of the Philox-4x32-10 block at
        counter ``(⌊j/4⌋ mod 2³², ⌊j/2³⁴⌋, 0, 0)``."""
        return self._rng._key

    def __repr__(self) -> str:
        return f"DirectionStream(n={self.n}, seed={self._rng.seed}, stream={self._rng.stream})"

    def direction(self, j: int) -> int:
        """The single coordinate ``r_j``."""
        return int(self._rng.randint(j, 1, self.n)[0])

    def directions(self, start: int, count: int) -> np.ndarray:
        """Coordinates ``r_start .. r_{start+count−1}`` as an int64 array."""
        return self._rng.randint(start, count, self.n)

    def directions_at(self, positions: np.ndarray) -> np.ndarray:
        """Coordinates at arbitrary global positions ``j`` (vectorized
        gather — one Philox block evaluation per distinct block touched).

        This is what makes the strided per-processor views cheap on the
        real-concurrency backends: a worker fetching its subsequence
        ``r_p, r_{p+P}, …`` in blocks pays NumPy-speed gathers instead of
        one Python-level generator call per draw.
        """
        return self._rng.randint_at(positions, self.n)

    def step_uniforms(self, start: int, count: int) -> np.ndarray:
        """Auxiliary uniforms aligned with the direction indices.

        Drawn from an independent sub-stream so they do not perturb the
        direction sequence; used by delay models that need per-iteration
        randomness (e.g. uniform-bounded delays) while keeping directions
        fixed.
        """
        return self._rng.split(0xD31A7).uniform(start, count)

    def for_processor(self, p: int, nproc: int) -> "_ProcessorView":
        """Round-robin view of this stream for processor ``p`` of ``nproc``.

        Processor ``p`` sees the subsequence ``r_p, r_{p+nproc}, …`` — the
        union across processors reproduces the global sequence, so a
        P-threaded run consumes exactly the directions a serial run would.
        """
        p = int(p)
        nproc = int(nproc)
        if not 0 <= p < nproc:
            raise ValueError(f"processor index {p} out of range for {nproc} processors")
        return _ProcessorView(self, p, nproc)


class _ProcessorView:
    """A processor's strided view into a :class:`DirectionStream`."""

    def __init__(self, base: DirectionStream, p: int, nproc: int):
        self._base = base
        self.p = p
        self.nproc = nproc

    def direction(self, local_j: int) -> int:
        """The processor's ``local_j``-th coordinate (global index
        ``p + local_j * nproc``)."""
        return self._base.direction(self.p + int(local_j) * self.nproc)

    def directions(self, start: int, count: int) -> np.ndarray:
        global_idx = self.p + (np.arange(start, start + count, dtype=np.int64) * self.nproc)
        return self._base.directions_at(global_idx)


def interleave_counts(total: int, nproc: int) -> np.ndarray:
    """How many of the first ``total`` global draws land on each of
    ``nproc`` round-robin processors (processor p gets indices
    ``p, p+nproc, …``)."""
    total = int(total)
    nproc = int(nproc)
    base = total // nproc
    counts = np.full(nproc, base, dtype=np.int64)
    counts[: total % nproc] += 1
    return counts

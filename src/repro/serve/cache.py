"""Warm-start solution caching: convert traffic similarity into sweeps.

Heavy real traffic is bursty and repetitive — the same right-hand side
(a retried request, a popular query) or a near-duplicate of one (a
slightly perturbed regression target, yesterday's vector plus today's
delta) arrives again and again. A direct solver can only exploit an
*exact* repeat; an **iterative** solver converts cache *similarity*
into iteration savings, because its convergence bound scales with the
initial residual ``‖x⁰ − x*‖`` — seed a request whose right-hand side
is within ε of a cached one with that entry's solution, and the solver
starts ε-close instead of a full cold start away. Serving a
stale-but-close iterate as a starting point is exactly the
inconsistent-read regime the asynchronous analyses already tolerate
(the source paper's bounded-delay model; Liu/Wright, arXiv 1401.4780),
and the adaptive-solver convergence analyses (arXiv 2104.04816) bound
the payoff by the initial-residual ratio.

:class:`SolutionCache` is that memory: recent solutions keyed by
``(matrix id, rhs fingerprint)``. A lookup first tries the **exact**
fingerprint (a SHA-1 over the float64 bytes — bitwise identity, never a
tolerance), then falls back to a **nearest-fingerprint** scan: the
same-shaped entry of the same matrix with the smallest relative L2
distance, accepted only under the ``similarity`` threshold. Either way
the hit only *seeds* ``x0`` — the solve still runs and still judges its
own convergence, so a cache hit can save sweeps but can never return a
wrong answer, and an exact repeat converges at its first residual
check.

Correctness properties the tests pin down:

* fingerprints never false-positive: two right-hand sides with
  different bytes have different fingerprints, so an exact hit implies
  a bitwise-equal request (``tests/properties/test_prop_cache.py``);
* warm-started solves converge to the same answer as cold solves
  within the request tolerance (same file);
* concurrent identical requests dedupe: storing an already-present
  fingerprint replaces the entry in place, so N racing duplicates
  leave exactly one entry (``tests/serve/simtest/test_cache.py``);
* a stale entry cannot poison a respawned pool — after a mid-solve
  crash the entry survives and the next warm-started request on the
  fresh pool solves exactly (same file, under seeded schedules).

Thread safety: one runtime-provided lock (the same injectable seam the
rest of the serving stack schedules on), held only for bookkeeping —
the cache never calls out under its lock, so it is a leaf in the
serving stack's lock order and can be shared by every pool behind a
:class:`~repro.serve.MatrixRegistry`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import asdict, replace

import numpy as np

from .metrics import CacheStats
from .runtime import THREAD_RUNTIME

__all__ = ["SolutionCache", "rhs_fingerprint"]


def rhs_fingerprint(b: np.ndarray) -> str:
    """SHA-1 fingerprint of a right-hand side: shape plus the raw
    float64 bytes. Bitwise identity — two arrays share a fingerprint
    only if their bytes are equal, so the exact-hit path can never
    alias distinct requests."""
    arr = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
    digest = hashlib.sha1()
    digest.update(repr(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


class _CacheEntry:
    __slots__ = ("b", "x", "norm")

    def __init__(self, b: np.ndarray, x: np.ndarray):
        self.b = b
        self.x = x
        self.norm = float(np.linalg.norm(b))


class SolutionCache:
    """LRU cache of recent solutions keyed by (matrix id, rhs
    fingerprint), with a nearest-fingerprint fallback.

    Parameters
    ----------
    max_entries:
        LRU bound across all matrices (evicting the least recently
        hit/stored entry once exceeded).
    similarity:
        Relative L2 threshold for near hits: a same-shaped entry ``e``
        of the same matrix seeds a request ``b`` when
        ``‖b − e.b‖ / max(‖b‖, ‖e.b‖)`` is at most this. ``0`` disables
        near lookups entirely — only bitwise-exact repeats hit.
    runtime:
        Source of the lock (see :mod:`repro.serve.runtime`); defaults
        to the real threading runtime. The deterministic simulation
        harness injects its scheduler here, so every cache lock
        acquisition is a schedule yield point.

    A lookup returns a *copy* of the cached solution (callers hand it
    to a solver that writes into it), or ``None`` on a miss — the
    caller then solves cold. :meth:`store` records a served solution;
    storing an existing fingerprint replaces that entry in place, which
    is what makes concurrent identical requests collapse to one entry.
    :meth:`invalidate` drops one matrix's entries (or all of them) —
    the registry calls it on register and on pool eviction.
    """

    def __init__(
        self,
        *,
        max_entries: int = 256,
        similarity: float = 0.05,
        runtime=None,
    ):
        self.max_entries = int(max_entries)
        if self.max_entries < 1:
            raise ValueError(
                f"max_entries must be at least 1, got {max_entries}"
            )
        self.similarity = float(similarity)
        if self.similarity < 0.0:
            raise ValueError(
                f"similarity must be non-negative, got {similarity}"
            )
        self._lock = (THREAD_RUNTIME if runtime is None else runtime).lock()
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        # Lookup/store/invalidation counters plus the warm-start payoff
        # accounting the server records per *successfully served*
        # request (sweep totals for warm-seeded vs cold requests).
        self._counts = CacheStats(
            max_entries=self.max_entries, similarity=self.similarity
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, matrix, b) -> np.ndarray | None:
        """The ``x0`` seed for a request: the exact-fingerprint entry,
        else the nearest same-shaped entry under the similarity
        threshold, else ``None`` (solve cold)."""
        arr = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
        fingerprint = rhs_fingerprint(arr)
        with self._lock:
            entry = self._entries.get((matrix, fingerprint))
            if entry is not None:
                self._entries.move_to_end((matrix, fingerprint))
                self._counts.hits_exact += 1
                return entry.x.copy()
            best = None
            if self.similarity > 0.0:
                b_norm = float(np.linalg.norm(arr))
                for key, cand in self._entries.items():
                    if key[0] != matrix or cand.b.shape != arr.shape:
                        continue
                    scale = max(cand.norm, b_norm)
                    if scale == 0.0:
                        continue
                    distance = float(np.linalg.norm(arr - cand.b)) / scale
                    if distance <= self.similarity and (
                        best is None or distance < best[0]
                    ):
                        best = (distance, key, cand)
            if best is None:
                self._counts.misses += 1
                return None
            self._entries.move_to_end(best[1])
            self._counts.hits_near += 1
            return best[2].x.copy()

    def store(self, matrix, b, x) -> None:
        """Record a served solution. An existing fingerprint is
        replaced in place (concurrent identical requests collapse to
        one entry); a new one may LRU-evict the coldest entry."""
        arr = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
        entry = _CacheEntry(arr, np.array(x, dtype=np.float64))
        key = (matrix, rhs_fingerprint(arr))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._counts.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._counts.evictions += 1

    def invalidate(self, matrix=None) -> int:
        """Drop one matrix's entries (all matrices when ``None``).
        Returns how many entries were dropped. The registry calls this
        on ``register`` and on pool eviction, so a matrix id never
        serves seeds that outlived its pool generation."""
        with self._lock:
            if matrix is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                doomed = [k for k in self._entries if k[0] == matrix]
                dropped = len(doomed)
                for k in doomed:
                    del self._entries[k]
            self._counts.invalidations += dropped
            return dropped

    def record_outcome(self, *, warm: bool, sweeps: int) -> None:
        """Account one successfully served request's sweep cost against
        its start (warm-seeded or cold) — the warm-start-savings signal
        the metrics endpoint exposes."""
        with self._lock:
            if warm:
                self._counts.warm_requests += 1
                self._counts.warm_sweeps += int(sweeps)
            else:
                self._counts.cold_requests += 1
                self._counts.cold_sweeps += int(sweeps)

    def stats(self) -> dict:
        """A consistent snapshot of the cache counters (JSON-ready)."""
        with self._lock:
            return asdict(replace(self._counts, entries=len(self._entries)))

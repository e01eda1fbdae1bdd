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
tolerance), then falls back to the **nearest** same-shaped entry of the
same matrix: the one with the smallest relative L2 distance
``‖b − e‖ / max(‖b‖, ‖e‖)``, accepted only under the ``similarity``
threshold. Either way the hit only *seeds* ``x0`` — the solve still
runs and still judges its own convergence, so a cache hit can save
sweeps but can never return a wrong answer, and an exact repeat
converges at its first residual check.

The near lookup is one stacked pass. Each ``(matrix, shape)`` group
keeps its right-hand sides as the rows of one float64 array, with their
norms, in slots reused on eviction, invalidation and replace-in-place.
One matvec scores every row with the Gram form
``‖e‖² + ‖b‖² − 2·e·b``, which is cheap but cancels for near hits, so
it only *shortlists*: it keeps the rows whose distance could pass
``similarity`` and could be the minimum, given a proven bound on the
rounding of both the score and the exact distance (:func:`_slack`).
Only the shortlist is re-checked with the exact formula, in LRU order,
with the same comparisons as a plain loop over every entry. Every row
left out is farther than some row kept (or than ``similarity``), so
the hit or miss, the chosen entry (ties go to the least recently used)
and every counter are exactly what the loop over all entries gives;
``tests/properties/test_prop_cache.py`` checks that against the loop.

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
import math
from collections import OrderedDict
from dataclasses import asdict, replace
from operator import attrgetter

import numpy as np

from .metrics import CacheStats
from .runtime import THREAD_RUNTIME

__all__ = ["SolutionCache", "rhs_fingerprint"]

#: Rows a group's stack starts with. It doubles when full, never past
#: ``max_entries``, and halves once a quarter or less of it is live, so
#: it holds at most ``min(max_entries, max(_MIN_ROWS, 4·live))`` rows.
_MIN_ROWS = 8
#: Below this request norm the squares in the score may underflow and
#: the rounding bound of :func:`_slack` no longer holds, so every row is
#: re-checked exactly (a zero request among them).
_TINY = 2.0**-480


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


def _slack(m: int) -> float:
    """The score's rounding slack per unit of ``(‖e‖² + ‖b‖²) / s²``
    for right-hand sides of ``m`` entries, ``s = max(‖e‖, ‖b‖)``.

    With ``u = eps/2``, no underflow (see ``_TINY``) and ``m·u < 0.01``,
    a dot product of ``m`` terms is off by at most ``1.01·m·u`` times
    the sum of its absolute terms (Higham, *Accuracy and Stability of
    Numerical Algorithms*, §3.1). To first order, for ``T = ‖e‖² + ‖b‖²``:

    * the score ``q = (‖e‖² + ‖b‖² − 2·e·b) / s²`` takes the stored
      norms squared (``(m + 3)·u`` each, relative), one matvec row
      (``m·u·T``), an add and a subtract (``u·T`` and ``2u·T``), then a
      square and a divide (``2u`` on ``|q| ≤ 2T/s²``): it is within
      ``(2m + 10)·u·T/s²`` of ``t²/s²``, ``t = ‖e − b‖``;
    * the exact distance ``D = ‖b − e‖ / s`` (a subtract per entry, a
      dot, a square root and a divide) is within ``(m/2 + 3)·u`` of
      ``t/s``, relative, so ``D²`` is within ``(m + 6)·u·4`` of
      ``t²/s² ≤ 4``.

    Since ``T/s² ≥ 1``, ``|q − D²| ≤ (3m + 17)·eps·T/s²``. The slack,
    ``16·(m + 2)·eps``, is at least 2.4 times that. What it leaves over,
    at least ``28·eps``, covers the second-order terms and the scoring
    pass's own roundings: ``q ± slack``, the minimum and
    ``similarity²``, each off by at most ``u`` times a value below 9.
    """
    return 16.0 * (m + 2) * float(np.finfo(np.float64).eps)


def _norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a contiguous float64 vector, bit
    for bit: the same ``sqrt(v·v)`` without its argument handling."""
    return math.sqrt(v.dot(v))


class _Entry:
    __slots__ = ("key", "x", "group", "slot", "tick")

    def __init__(self, key: tuple, x: np.ndarray):
        self.key = key
        self.x = x
        self.group: _Group | None = None
        self.slot = -1
        self.tick = 0  # LRU position: larger is more recently used


class _Group:
    """One ``(matrix, shape)``'s entries. With near lookups on, row
    ``i`` of ``rows`` is ``members[i]``'s right-hand side flattened (the
    only copy the cache keeps), ``norm[i]`` its ``‖b‖`` and ``sq[i]``
    that squared; rows ``[0, len(members))`` are live, and a removal
    moves the last live row into the freed slot. With them off the
    group only lists its members, so an invalidation drops it whole."""

    __slots__ = ("key", "members", "rows", "norm", "sq", "limit", "slack")

    def __init__(self, key: tuple, size: int, limit: int, stacked: bool):
        self.key = key
        self.members: list[_Entry] = []
        self.limit = limit
        self.slack = _slack(size)
        self.rows = self.norm = self.sq = None
        if stacked:
            rows = min(_MIN_ROWS, limit)
            self.rows = np.empty((rows, size))
            self.norm = np.empty(rows)
            self.sq = np.empty(rows)

    def _resize(self, rows: int) -> None:
        live = len(self.members)
        for name in ("rows", "norm", "sq"):
            old = getattr(self, name)
            new = np.empty((rows,) + old.shape[1:])
            new[:live] = old[:live]
            setattr(self, name, new)

    def add(self, entry: _Entry, arr: np.ndarray) -> None:
        slot = len(self.members)
        if self.rows is not None:
            if slot == len(self.rows):
                self._resize(min(2 * slot, self.limit))
            flat = arr.reshape(-1)
            norm = _norm(flat)
            self.rows[slot] = flat
            self.norm[slot] = norm
            self.sq[slot] = norm * norm
        self.members.append(entry)
        entry.group, entry.slot = self, slot

    def remove(self, entry: _Entry) -> None:
        slot, moved = entry.slot, self.members.pop()
        live = len(self.members)
        if moved is not entry:
            self.members[slot], moved.slot = moved, slot
            if self.rows is not None:
                self.rows[slot] = self.rows[live]
                self.norm[slot] = self.norm[live]
                self.sq[slot] = self.sq[live]
        if self.rows is not None and live and len(self.rows) > _MIN_ROWS:
            if 4 * live <= len(self.rows):
                self._resize(max(_MIN_ROWS, len(self.rows) // 2))

    def nearest(self, arr: np.ndarray, similarity: float) -> _Entry | None:
        """The live entry a plain LRU-ordered loop over this group would
        pick: the smallest exact distance under ``similarity``, the
        least recently used among equals, or ``None``."""
        flat = arr.reshape(-1)
        b_norm = _norm(flat)
        live = len(self.members)
        if b_norm >= _TINY:
            # Score every row, then keep those whose distance could be
            # at most both ``similarity`` and every row's upper bound.
            # A row whose score overflowed is kept (its ``score −
            # slack`` is NaN), and a NaN bound keeps every row.
            with np.errstate(all="ignore"):
                scale2 = np.maximum(self.norm[:live], b_norm)
                scale2 *= scale2
                total = self.sq[:live] + b_norm * b_norm
                score = self.rows[:live] @ flat
                score *= -2.0
                score += total
                score /= scale2
                slack = total
                slack *= self.slack
                slack /= scale2
                bound = np.minimum.reduce(
                    score + slack, initial=similarity * similarity
                )
                score -= slack
                keep = (~(score > bound)).nonzero()[0].tolist()
            shortlist = [self.members[i] for i in keep]
        else:
            shortlist = list(self.members)
        shortlist.sort(key=attrgetter("tick"))
        best = None
        for cand in shortlist:
            scale = max(self.norm.item(cand.slot), b_norm)
            if scale == 0.0:
                continue
            distance = _norm(flat - self.rows[cand.slot]) / scale
            if distance <= similarity and (
                best is None or distance < best[0]
            ):
                best = (distance, cand)
        return None if best is None else best[1]


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
        near lookups entirely — only bitwise-exact repeats hit, and no
        right-hand side is kept.
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
        # Every entry in LRU order (coldest first), and the same entries
        # by (matrix, shape) group.
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._groups: dict[tuple, _Group] = {}
        self._tick = 0
        # Lookup/store/invalidation counters plus the warm-start payoff
        # accounting the server records per *successfully served*
        # request (sweep totals for warm-seeded vs cold requests).
        self._counts = CacheStats(
            max_entries=self.max_entries, similarity=self.similarity
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _touch(self, entry: _Entry) -> None:
        self._entries.move_to_end(entry.key)
        self._tick += 1
        entry.tick = self._tick

    def lookup(self, matrix, b) -> np.ndarray | None:
        """The ``x0`` seed for a request: the exact-fingerprint entry,
        else the nearest same-shaped entry under the similarity
        threshold, else ``None`` (solve cold)."""
        arr = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
        fingerprint = rhs_fingerprint(arr)
        with self._lock:
            entry = self._entries.get((matrix, fingerprint))
            if entry is not None:
                self._touch(entry)
                self._counts.hits_exact += 1
                return entry.x.copy()
            group = self._groups.get((matrix, arr.shape))
            if group is not None and self.similarity > 0.0:
                entry = group.nearest(arr, self.similarity)
            if entry is None:
                self._counts.misses += 1
                return None
            self._touch(entry)
            self._counts.hits_near += 1
            return entry.x.copy()

    def store(self, matrix, b, x) -> None:
        """Record a served solution. An existing fingerprint is
        replaced in place (concurrent identical requests collapse to
        one entry); a new one may LRU-evict the coldest entry."""
        arr = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
        x = np.array(x, dtype=np.float64)
        key = (matrix, rhs_fingerprint(arr))
        with self._lock:
            self._counts.stores += 1
            entry = self._entries.get(key)
            if entry is not None:
                # Same fingerprint, same bytes: only the solution moves.
                entry.x = x
            else:
                if len(self._entries) >= self.max_entries:
                    _, coldest = self._entries.popitem(last=False)
                    self._drop(coldest)
                    self._counts.evictions += 1
                entry = self._entries[key] = _Entry(key, x)
                gkey = (matrix, arr.shape)
                group = self._groups.get(gkey)
                if group is None:
                    group = self._groups[gkey] = _Group(
                        gkey, arr.size, self.max_entries,
                        stacked=self.similarity > 0.0,
                    )
                group.add(entry, arr)
            self._touch(entry)

    def _drop(self, entry: _Entry) -> None:
        group = entry.group
        group.remove(entry)
        if not group.members:
            del self._groups[group.key]

    def invalidate(self, matrix=None) -> int:
        """Drop one matrix's entries (all matrices when ``None``).
        Returns how many entries were dropped. The registry calls this
        on ``register`` and on pool eviction, so a matrix id never
        serves seeds that outlived its pool generation."""
        with self._lock:
            if matrix is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._groups.clear()
            else:
                dropped = 0
                for gkey in [g for g in self._groups if g[0] == matrix]:
                    for entry in self._groups.pop(gkey).members:
                        del self._entries[entry.key]
                        dropped += 1
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

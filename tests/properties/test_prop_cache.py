"""Property-based tests: the warm-start cache can never change answers.

Three layers of the safety argument (``repro/serve/cache.py``):

* **Fingerprints never false-positive.** The exact-hit path keys on a
  SHA-1 over the shape and raw float64 bytes, so two right-hand sides
  share a fingerprint iff their bytes agree — an exact hit implies a
  bitwise-equal request. With ``similarity=0`` the near path is off and
  the cache can *only* serve bitwise repeats.
* **Warm == cold within the request tolerance.** A hit only seeds
  ``x0``; the solve still runs and judges its own convergence against
  the request's ``tol``, so a warm-started request must converge to
  the same answer a cold solve reaches — for exact repeats and for
  near hits seeded from a different (close) right-hand side alike.
  Checked against a real ``nproc=1`` process pool.
* **The stacked near-hit pass is the loop.** Random sequences of
  stores, lookups, invalidations and LRU evictions give the same hit or
  miss, the same returned ``x`` bit for bit and the same counters as a
  plain loop over every entry (``_LoopCache``), and the stacked arrays
  stay bounded and hold the only copy of each cached right-hand side.
"""

import weakref
from collections import OrderedDict
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import SolverServer
from repro.serve.cache import _MIN_ROWS, SolutionCache, rhs_fingerprint
from repro.serve.metrics import CacheStats
from repro.workloads import random_unit_diagonal_spd

pytestmark = pytest.mark.serve

N = 12

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)
vectors = st.lists(finite, min_size=1, max_size=16)


class TestFingerprint:
    @given(a=vectors, b=vectors)
    @settings(max_examples=150, deadline=None)
    def test_never_false_positive(self, a, b):
        """Fingerprints agree iff the float64 bytes agree — the SHA-1
        keying can alias only what is already bitwise identical."""
        va = np.asarray(a, dtype=np.float64)
        vb = np.asarray(b, dtype=np.float64)
        same_bytes = (
            va.shape == vb.shape and va.tobytes() == vb.tobytes()
        )
        assert (rhs_fingerprint(va) == rhs_fingerprint(vb)) == same_bytes

    @given(a=vectors)
    @settings(max_examples=60, deadline=None)
    def test_shape_is_part_of_the_key(self, a):
        """Same bytes, different shape → different fingerprint: a block
        request can never exact-hit a vector entry built from the same
        buffer."""
        v = np.asarray(a, dtype=np.float64)
        assert rhs_fingerprint(v) != rhs_fingerprint(v.reshape(-1, 1))

    @given(a=vectors, scale=st.floats(0.5, 2.0), seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_similarity_zero_only_exact_hits(self, a, scale, seed):
        """With near lookups disabled, any byte-level perturbation —
        however small — must miss; the stored vector itself must hit."""
        cache = SolutionCache(similarity=0.0)
        b = np.asarray(a, dtype=np.float64)
        cache.store("m", b, np.zeros_like(b))
        assert cache.lookup("m", b) is not None
        rng = np.random.default_rng(seed)
        perturbed = b * scale + rng.normal(scale=1e-9, size=b.shape)
        if perturbed.tobytes() != b.tobytes():
            assert cache.lookup("m", perturbed) is None
        stats = cache.stats()
        assert stats["hits_near"] == 0


@pytest.fixture(scope="module")
def system():
    A = random_unit_diagonal_spd(N, nnz_per_row=3, offdiag_scale=0.5, seed=5)
    return A


@pytest.fixture(scope="module")
def cache():
    return SolutionCache(similarity=0.05)


@pytest.fixture(scope="module")
def cached_server(system, cache):
    server = SolverServer(
        system,
        nproc=1,
        capacity_k=2,
        max_wait=0.0,
        tol=1e-8,
        max_sweeps=400,
        cache=cache,
    )
    yield server
    server.close()


@pytest.fixture(scope="module")
def plain_server(system):
    server = SolverServer(
        system, nproc=1, capacity_k=2, max_wait=0.0, tol=1e-8, max_sweeps=400
    )
    yield server
    server.close()


@pytest.mark.pool
class TestWarmEqualsCold:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_exact_repeat_converges_to_the_cold_answer(
        self, seed, cached_server, plain_server
    ):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=N)
        cold = plain_server.submit(b).result()
        first = cached_server.submit(b).result()
        warm = cached_server.submit(b).result()  # exact hit -> warm start
        assert cold.converged and first.converged and warm.converged
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-6)
        # An exact repeat starts *at* the cached solution, so it retires
        # at least as fast as its own cold run.
        assert warm.sweeps <= first.sweeps

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_near_hit_converges_to_its_own_answer(
        self, seed, cached_server, plain_server
    ):
        """A warm start seeded from a *different* (close) rhs must still
        converge to the perturbed system's solution, not the seed's."""
        rng = np.random.default_rng(seed)
        b = rng.normal(size=N)
        cached_server.submit(b).result()  # land the entry
        perturbed = b * (1.0 + 1e-3)  # relative distance 1e-3 << 0.05
        cold = plain_server.submit(perturbed).result()
        warm = cached_server.submit(perturbed).result()
        assert cold.converged and warm.converged
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-6)

    def test_the_suite_really_warm_started(self, cache):
        """Guard against vacuity: the properties above must have driven
        both hit paths, and every hit warm-started a served request."""
        stats = cache.stats()
        assert stats["hits_exact"] > 0
        assert stats["hits_near"] > 0
        assert stats["warm_requests"] == (
            stats["hits_exact"] + stats["hits_near"]
        )


# ---------------------------------------------------------------------------
# The stacked near-hit pass against a plain loop over every entry
# ---------------------------------------------------------------------------


class _LoopCache:
    """The solution cache as one Python loop over every entry, in LRU
    order: the slow reference the stacked near-hit pass must match."""

    def __init__(self, *, max_entries, similarity):
        self.max_entries = max_entries
        self.similarity = similarity
        self._entries = OrderedDict()  # key -> (b, x, norm)
        self._counts = CacheStats(
            max_entries=max_entries, similarity=similarity
        )

    def lookup(self, matrix, b):
        arr = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
        key = (matrix, rhs_fingerprint(arr))
        if key in self._entries:
            self._entries.move_to_end(key)
            self._counts.hits_exact += 1
            return self._entries[key][1].copy()
        best = None
        if self.similarity > 0.0:
            b_norm = float(np.linalg.norm(arr))
            for k, (cb, cx, cnorm) in self._entries.items():
                if k[0] != matrix or cb.shape != arr.shape:
                    continue
                scale = max(cnorm, b_norm)
                if scale == 0.0:
                    continue
                distance = float(np.linalg.norm(arr - cb)) / scale
                if distance <= self.similarity and (
                    best is None or distance < best[0]
                ):
                    best = (distance, k, cx)
        if best is None:
            self._counts.misses += 1
            return None
        self._entries.move_to_end(best[1])
        self._counts.hits_near += 1
        return best[2].copy()

    def store(self, matrix, b, x):
        arr = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
        key = (matrix, rhs_fingerprint(arr))
        self._entries[key] = (
            arr, np.array(x, dtype=np.float64), float(np.linalg.norm(arr))
        )
        self._entries.move_to_end(key)
        self._counts.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._counts.evictions += 1

    def invalidate(self, matrix=None):
        doomed = [k for k in self._entries if matrix is None or k[0] == matrix]
        for k in doomed:
            del self._entries[k]
        self._counts.invalidations += len(doomed)
        return len(doomed)

    def stats(self):
        return asdict(replace(self._counts, entries=len(self._entries)))


#: A vector and an (n, 2) block with the same number of entries: the
#: same bytes in either shape are different groups.
SHAPES = [(10,), (5, 2)]
MATRICES = ["m0", "m1"]
SIMILARITIES = [0.0, 1e-6, 0.05, 0.5, 1.0, 3.0]
KINDS = ["fresh", "int", "zero", "repeat", "edge", "scaled-edge", "near"]


def _rhs(kind, shape, rng, seen, similarity):
    """A right-hand side of ``kind`` — integer entries make equidistant
    ties common; the edge kinds land on either side of ``similarity``
    from a right-hand side already seen in this shape."""
    if kind == "zero":
        return np.zeros(shape)
    if kind == "int":
        return rng.integers(-1, 2, shape).astype(np.float64)
    if kind == "fresh" or not seen:
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    e = seen[int(rng.integers(len(seen)))]
    if kind == "repeat":
        return e.copy()
    d = similarity if similarity > 0.0 else 0.05
    f = float(rng.choice([1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9]))
    if kind == "scaled-edge":  # ‖b − e‖ / ‖e‖ = d·f to within rounding
        return e * (1.0 - min(d * f, 2.0))
    noise = rng.standard_normal(shape)
    noise *= np.linalg.norm(e) / max(np.linalg.norm(noise), 1e-300)
    return e + noise * (d * f if kind == "edge" else 1e-4 * d)


ops = st.lists(
    st.tuples(
        st.sampled_from(["store", "lookup", "lookup", "invalidate"]),
        st.integers(0, 1),  # matrix
        st.integers(0, 1),  # shape
        st.sampled_from(KINDS),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=60,
)


class TestStackedPassMatchesTheLoop:
    @given(
        sequence=ops,
        max_entries=st.integers(1, 6),
        similarity=st.sampled_from(SIMILARITIES),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_sequences(self, sequence, max_entries, similarity):
        """Same hit or miss, bitwise-equal ``x`` and equal counters after
        every operation of any store/lookup/invalidate sequence."""
        cache = SolutionCache(max_entries=max_entries, similarity=similarity)
        ref = _LoopCache(max_entries=max_entries, similarity=similarity)
        seen = {shape: [] for shape in SHAPES}
        for step, (op, mi, si, kind, seed) in enumerate(sequence):
            rng = np.random.default_rng(seed)
            matrix, shape = MATRICES[mi], SHAPES[si]
            if op == "invalidate":
                which = None if seed % 3 == 0 else matrix
                assert cache.invalidate(which) == ref.invalidate(which)
            else:
                b = _rhs(kind, shape, rng, seen[shape], similarity)
                seen[shape].append(b)
                if op == "store":
                    # A distinct x per store names the entry a hit chose.
                    x = np.full(shape, float(step)) + rng.standard_normal()
                    cache.store(matrix, b, x)
                    ref.store(matrix, b, x)
                else:
                    got, want = cache.lookup(matrix, b), ref.lookup(matrix, b)
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert got.tobytes() == want.tobytes()
            assert cache.stats() == ref.stats()

    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(SHAPES))
    @settings(max_examples=200, deadline=None)
    def test_exactly_at_the_threshold(self, seed, shape):
        """With ``similarity`` set to the loop's own distance of a pair,
        the pair hits; one float below it, it misses — whichever side of
        ``similarity²`` the Gram score lands on."""
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        noise = rng.standard_normal(shape)
        b = e + noise * (
            rng.uniform(1e-9, 0.5) * np.linalg.norm(e) / np.linalg.norm(noise)
        )
        scale = max(float(np.linalg.norm(e)), float(np.linalg.norm(b)))
        distance = float(np.linalg.norm(b - e)) / scale
        for similarity, hit in [
            (distance, True),
            (float(np.nextafter(distance, 0.0)), False),
        ]:
            cache = SolutionCache(similarity=similarity)
            ref = _LoopCache(max_entries=256, similarity=similarity)
            for c in (cache, ref):
                c.store("m", e, np.ones(shape))
                c.store("m", -e, np.zeros(shape))  # farther than any b
            got, want = cache.lookup("m", b), ref.lookup("m", b)
            assert (got is not None) == (want is not None) == hit
            assert cache.stats() == ref.stats()

    def test_equidistant_tie_goes_to_the_least_recently_used(self):
        b = np.array([1.0, 0.0, 0.0, 2.0])
        first, second = b.copy(), b.copy()
        first[1] += 1.0
        second[2] += 1.0  # the same distance from b, bit for bit
        cache = SolutionCache(similarity=1.0)
        cache.store("m", first, np.full(4, 1.0))
        cache.store("m", second, np.full(4, 2.0))
        assert cache.lookup("m", b)[0] == 1.0  # the colder of the two
        # That near hit made ``first`` the most recent: now ``second``.
        assert cache.lookup("m", b)[0] == 2.0
        assert cache.stats()["hits_near"] == 2

    def test_zero_request_and_zero_entry(self):
        """A zero entry never seeds a zero request (no scale), and any
        nonzero entry is at distance exactly 1 from it."""
        cache = SolutionCache(similarity=1.0)
        cache.store("m", np.zeros(3), np.full(3, 1.0))
        stats = cache.stats()
        assert cache.lookup("m", -np.zeros(3)) is None  # miss: no scale
        cache.store("m", np.array([0.0, 3.0, 4.0]), np.full(3, 2.0))
        assert cache.lookup("m", -np.zeros(3))[0] == 2.0
        assert cache.stats()["misses"] == stats["misses"] + 1


class TestBoundedMemory:
    MAX = 16

    def _check(self, cache, stored):
        """Every group's stack is bounded, and row ``i`` holds exactly
        the right-hand side of the group's ``i``-th member."""
        live = 0
        for (matrix, shape), group in cache._groups.items():
            n = len(group.members)
            assert 1 <= n <= self.MAX
            assert len(group.rows) <= min(self.MAX, max(_MIN_ROWS, 4 * n))
            for i, entry in enumerate(group.members):
                b = stored[entry.key]
                assert entry.slot == i and entry.key[0] == matrix
                assert b.shape == shape
                assert group.rows[i].tobytes() == b.tobytes()
                assert group.norm[i] == float(np.linalg.norm(b))
            live += n
        assert live == len(cache)

    def test_stacks_stay_bounded_through_churn(self):
        """Ten times ``max_entries`` stores with LRU evictions,
        invalidations and same-fingerprint replaces: no group's stack
        outgrows ``min(max_entries, max(_MIN_ROWS, 4·live))`` rows, and
        the swap-removes keep every row on its entry."""
        cache = SolutionCache(max_entries=self.MAX, similarity=0.05)
        rng = np.random.default_rng(3)
        stored, history = {}, []
        for i in range(10 * self.MAX):
            matrix = f"m{int(rng.integers(3))}"
            shape = SHAPES[int(rng.integers(2))]
            if history and i % 5 == 0:
                matrix, b = history[int(rng.integers(len(history)))]
            else:
                b = rng.standard_normal(shape)
            history.append((matrix, b))
            stored[(matrix, rhs_fingerprint(b))] = b
            cache.store(matrix, b, b)
            if i % 23 == 22:
                cache.invalidate(f"m{int(rng.integers(3))}")
            self._check(cache, stored)
        stats = cache.stats()
        assert stats["evictions"] > 0 and stats["invalidations"] > 0
        replaced = stats["stores"] - (
            stats["entries"] + stats["evictions"] + stats["invalidations"]
        )
        assert replaced > 0

    def test_a_drained_group_shrinks(self):
        """A full group that LRU evictions drain to 3 live rows holds
        at most ``max(_MIN_ROWS, 4·3)`` of them again."""
        cache = SolutionCache(max_entries=32, similarity=0.05)
        rng = np.random.default_rng(6)
        for _ in range(32):
            cache.store("a", rng.standard_normal(4), np.zeros(4))
        assert len(cache._groups[("a", (4,))].rows) == 32
        for _ in range(29):
            cache.store("b", rng.standard_normal(4), np.zeros(4))
        drained = cache._groups[("a", (4,))]
        assert len(drained.members) == 3
        assert len(drained.rows) <= max(_MIN_ROWS, 4 * 3)

    def test_similarity_zero_keeps_no_stack(self):
        cache = SolutionCache(max_entries=self.MAX, similarity=0.0)
        rng = np.random.default_rng(4)
        for _ in range(3 * self.MAX):
            cache.store("m", rng.standard_normal(5), np.zeros(5))
        assert cache._groups
        assert all(g.rows is None for g in cache._groups.values())
        assert cache.invalidate("m") == self.MAX
        assert not cache._groups

    def test_the_stack_is_the_only_copy_of_b(self):
        """The cache keeps no reference to the caller's ``b`` and no
        per-entry copy of it: an entry's only array is its ``x``."""
        cache = SolutionCache(similarity=0.05)
        b = np.random.default_rng(5).standard_normal(7)
        alive = weakref.ref(b)
        cache.store("m", b, np.zeros(7))
        del b
        assert alive() is None
        (entry,) = cache._entries.values()
        arrays = [
            name for name in type(entry).__slots__
            if isinstance(getattr(entry, name), np.ndarray)
        ]
        assert arrays == ["x"]

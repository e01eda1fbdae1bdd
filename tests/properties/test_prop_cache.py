"""Property-based tests: the warm-start cache can never change answers.

Two layers of the safety argument (``repro/serve/cache.py``):

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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import SolutionCache, SolverServer, rhs_fingerprint
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
def cached_server(system):
    server = SolverServer(
        system,
        nproc=1,
        capacity_k=2,
        max_wait=0.0,
        tol=1e-8,
        max_sweeps=400,
        cache=SolutionCache(similarity=0.05),
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

    def test_the_suite_really_warm_started(self, cached_server):
        """Guard against vacuity: the properties above must have driven
        both hit paths, and every hit warm-started a served request."""
        stats = cached_server.cache_stats()
        assert stats["hits_exact"] > 0
        assert stats["hits_near"] > 0
        assert stats["warm_requests"] == (
            stats["hits_exact"] + stats["hits_near"]
        )

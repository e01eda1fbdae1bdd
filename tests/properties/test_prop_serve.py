"""Property-based tests: capacity-k pool reuse is deterministic.

For *random sequences* of request widths ``k ≤ capacity_k`` against one
capacity-k pool, two properties must hold no matter the order:

* the pool is never respawned — the worker PIDs observed before the
  sequence are the PIDs after it, and ``spawn_count`` stays 1;
* each request's iterate is a pure function of its own payload: it
  equals the same-seed one-shot run of a fresh solver (and repeated
  submissions of the same width are identical bit for bit across the
  sequence — pool reuse leaks no state between requests).

``nproc=1`` makes the execution deterministic, so "equals" is exact for
single-RHS requests (the capacity pool's lone-active-column gather is
the same scalar arithmetic as a k=1 layout) and exact-in-practice for
blocks; the assertion is bitwise against a cached first occurrence and
tight-tolerance against the one-shot reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import ProcessAsyRGS
from repro.rng import DirectionStream
from repro.workloads import random_unit_diagonal_spd

pytestmark = pytest.mark.serve

CAPACITY = 4
SOLVE = dict(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)


@pytest.fixture(scope="module")
def setting():
    A = random_unit_diagonal_spd(24, nnz_per_row=3, offdiag_scale=0.5, seed=21)
    n = A.shape[0]
    rng = DirectionStream(n, seed=77)
    X_star = np.column_stack(
        [
            rng.directions(j * n, n).astype(np.float64) / n - 0.5
            for j in range(CAPACITY)
        ]
    )
    return A, A.matmat(X_star)


@pytest.fixture(scope="module")
def pool(setting):
    A, B = setting
    solver = ProcessAsyRGS(
        A,
        np.zeros((A.shape[0], CAPACITY)),
        nproc=1,
        capacity_k=CAPACITY,
        directions=DirectionStream(A.shape[0], seed=0),
    )
    solver.open()
    yield solver
    solver.close()


@pytest.fixture(scope="module")
def oneshot_reference(setting):
    """Same-seed one-shot runs, one per request width (computed once)."""

    A, B = setting
    refs = {}

    def get(k: int):
        if k not in refs:
            b = B[:, 0] if k == 1 else B[:, :k]
            refs[k] = ProcessAsyRGS(
                A, b, nproc=1, directions=DirectionStream(A.shape[0], seed=0)
            ).solve(**SOLVE)
        return refs[k]

    return get


class TestCapacityPoolDeterminism:
    @given(ks=st.lists(st.integers(1, CAPACITY), min_size=1, max_size=6))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_random_k_sequences_reuse_and_reproduce(
        self, ks, setting, pool, oneshot_reference
    ):
        A, B = setting
        spawns_before = pool.spawn_count
        seen: dict = {}
        for k in ks:
            b = B[:, 0] if k == 1 else B[:, :k]
            res = pool.solve(**SOLVE, b=b)
            assert res.converged
            assert res.x.shape == b.shape
            # Determinism across pool reuse: identical payload, identical
            # bytes, regardless of what ran in between.
            if k in seen:
                np.testing.assert_array_equal(res.x, seen[k].x)
                assert res.iterations == seen[k].iterations
                np.testing.assert_array_equal(
                    res.column_sweeps, seen[k].column_sweeps
                )
            else:
                seen[k] = res
            # And it answers like a fresh same-seed one-shot solver.
            ref = oneshot_reference(k)
            np.testing.assert_allclose(res.x, ref.x, rtol=1e-9, atol=1e-12)
            assert res.sweeps_done == ref.sweeps_done
        # Zero respawns across requests.
        assert pool.spawn_count == spawns_before

    @given(
        ks=st.lists(st.integers(1, CAPACITY), min_size=2, max_size=4),
        scale=st.floats(0.5, 2.0),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_scaled_rhs_traffic_never_respawns(self, ks, scale, setting, pool):
        """Width *and* payload vary per request; the pool still serves
        everything with zero respawns and exact linearity (scaling b
        scales the deterministic iterate)."""
        A, B = setting
        spawns_before = pool.spawn_count
        for k in ks:
            b = (B[:, 0] if k == 1 else B[:, :k]) * scale
            res = pool.solve(**SOLVE, b=b)
            base = pool.solve(**SOLVE, b=(B[:, 0] if k == 1 else B[:, :k]))
            assert res.converged
            np.testing.assert_allclose(
                res.x, base.x * scale, rtol=1e-9, atol=1e-12
            )
        assert pool.spawn_count == spawns_before

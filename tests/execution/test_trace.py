"""Unit tests for execution traces and replay."""

import numpy as np
import pytest

from repro.execution import (
    AsyncSimulator,
    ExecutionTrace,
    UniformDelay,
    replay_trace,
)
from repro.rng import DirectionStream
from repro.workloads import random_unit_diagonal_spd

from ..conftest import manufactured_system


class TestTraceBasics:
    def test_append_and_views(self):
        t = ExecutionTrace()
        t.append(3, 1, 0.5)
        t.append(7, 0, -0.25)
        assert len(t) == 2
        np.testing.assert_array_equal(t.coords, [3, 7])
        np.testing.assert_array_equal(t.missed_counts, [1, 0])
        np.testing.assert_array_equal(t.gammas, [0.5, -0.25])

    def test_growth(self):
        t = ExecutionTrace()
        for i in range(5000):
            t.append(i % 7, 0, float(i))
        assert len(t) == 5000
        assert t.gammas[-1] == 4999.0

    def test_delay_histogram(self):
        t = ExecutionTrace()
        for lag in (0, 0, 1, 2, 2, 2):
            t.append(0, lag, 0.0)
        assert t.delay_histogram() == {0: 2, 1: 1, 2: 3}

    def test_coordinate_touch_counts(self):
        t = ExecutionTrace()
        for c in (1, 1, 3):
            t.append(c, 0, 0.0)
        np.testing.assert_array_equal(t.coordinate_touch_counts(5), [0, 2, 0, 1, 0])


class TestReplay:
    @pytest.fixture(scope="class")
    def system(self):
        A = random_unit_diagonal_spd(25, nnz_per_row=4, offdiag_scale=0.6, seed=15)
        b, _ = manufactured_system(A, seed=16)
        return A, b

    def test_replay_reproduces_final_iterate(self, system):
        A, b = system
        n = A.shape[0]
        sim = AsyncSimulator(
            A, b, delay_model=UniformDelay(5, seed=2),
            directions=DirectionStream(n, seed=3), record_trace=True,
        )
        out = sim.run(np.zeros(n), 500)
        replayed = replay_trace(out.trace, np.zeros(n))
        np.testing.assert_array_equal(replayed, out.x)

    def test_replay_respects_beta(self, system):
        A, b = system
        n = A.shape[0]
        sim = AsyncSimulator(
            A, b, delay_model=UniformDelay(3, seed=5), beta=0.7,
            directions=DirectionStream(n, seed=6), record_trace=True,
        )
        out = sim.run(np.zeros(n), 300)
        replayed = replay_trace(out.trace, np.zeros(n), beta=0.7)
        np.testing.assert_allclose(replayed, out.x, rtol=1e-12, atol=1e-14)

    def test_replay_nonzero_start(self, system):
        A, b = system
        n = A.shape[0]
        x0 = np.linspace(-1, 1, n)
        sim = AsyncSimulator(
            A, b, delay_model=UniformDelay(3, seed=7),
            directions=DirectionStream(n, seed=8), record_trace=True,
        )
        out = sim.run(x0, 200)
        replayed = replay_trace(out.trace, x0)
        np.testing.assert_allclose(replayed, out.x, rtol=1e-12, atol=1e-14)

"""Unit tests for the batching policies and their server integration.

The policy contract: :class:`FixedWait` is byte-for-byte the old
``max_wait`` behavior; :class:`AdaptiveWait` sizes the linger window
from the queue-depth/solve-wall EWMAs the dispatcher feeds it — zero
window for measured-sequential traffic, a solve-fraction window (capped)
once concurrency shows up in the measurements.
"""

import pytest

from repro.exceptions import ServeError
from repro.serve import SolverServer
from repro.serve.batching import (
    AdaptiveWait,
    BatchingPolicy,
    FixedWait,
    make_policy,
)

from .conftest import WAIT

pytestmark = pytest.mark.serve


class TestFixedWait:
    def test_constant_window(self):
        policy = FixedWait(0.25)
        assert policy.linger(0) == 0.25
        assert policy.linger(100) == 0.25
        policy.observe(batch_size=8, queue_depth=50, solve_wall=3.0)
        assert policy.linger(0) == 0.25  # feedback never moves it

    def test_negative_window_rejected(self):
        with pytest.raises(ServeError, match="non-negative"):
            FixedWait(-0.1)

    def test_snapshot(self):
        assert FixedWait(0.01).snapshot() == {
            "policy": "fixed",
            "max_wait": 0.01,
        }


class TestAdaptiveWait:
    def test_seed_window_before_any_measurement(self):
        policy = AdaptiveWait(initial_wait=0.02)
        assert policy.linger(0) == 0.02
        assert policy.linger(10) == 0.02

    def test_sequential_traffic_collapses_window_to_zero(self):
        """Closed-loop traffic keeps the queue empty; after measuring
        that, lingering would be a pure per-request tax."""
        policy = AdaptiveWait(initial_wait=0.02)
        for _ in range(5):
            policy.observe(batch_size=1, queue_depth=0, solve_wall=0.1)
        assert policy.linger(0) == 0.0

    def test_concurrent_traffic_lingers_a_solve_fraction(self):
        policy = AdaptiveWait(
            initial_wait=0.02, max_wait=10.0, fraction=0.25, alpha=1.0
        )
        policy.observe(batch_size=4, queue_depth=6, solve_wall=0.4)
        assert policy.linger(0) == pytest.approx(0.1)  # 0.25 * 0.4

    def test_window_capped_at_max_wait(self):
        policy = AdaptiveWait(
            initial_wait=0.02, max_wait=0.05, fraction=0.25, alpha=1.0
        )
        policy.observe(batch_size=4, queue_depth=6, solve_wall=100.0)
        assert policy.linger(0) == 0.05

    def test_instantaneous_depth_overrides_quiet_history(self):
        """A burst landing after a quiet spell must not pay the
        sequential-traffic window: the live queue depth is concurrency
        evidence even before the EWMA catches up."""
        policy = AdaptiveWait(
            initial_wait=0.02, max_wait=10.0, fraction=0.25, alpha=0.01
        )
        for _ in range(20):
            policy.observe(batch_size=1, queue_depth=0, solve_wall=0.4)
        assert policy.linger(0) == 0.0
        assert policy.linger(12) > 0.0

    def test_snapshot_reports_ewmas(self):
        policy = AdaptiveWait(alpha=1.0)
        snap = policy.snapshot()
        assert snap["policy"] == "adaptive"
        assert snap["batches_observed"] == 0
        assert snap["current_window"] is None
        policy.observe(batch_size=3, queue_depth=2, solve_wall=0.2)
        snap = policy.snapshot()
        assert snap["batches_observed"] == 1
        assert snap["ewma_queue_depth"] == 2.0
        assert snap["ewma_solve_wall"] == pytest.approx(0.2)
        assert snap["ewma_batch_size"] == 3.0
        assert snap["current_window"] == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"initial_wait": -1.0},
            {"max_wait": -0.1},
            {"fraction": -0.5},
            {"depth_gate": -1.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ServeError):
            AdaptiveWait(**kwargs)


class TestMakePolicy:
    def test_fixed_by_name_seeds_max_wait(self):
        policy = make_policy("fixed", 0.042)
        assert isinstance(policy, FixedWait)
        assert policy.max_wait == 0.042

    def test_adaptive_by_name_seeds_initial_wait(self):
        policy = make_policy("adaptive", 0.042)
        assert isinstance(policy, AdaptiveWait)
        assert policy.initial_wait == 0.042
        assert policy.max_wait == 0.05  # default cap covers the seed

    def test_adaptive_cap_never_below_the_operator_window(self):
        """A max_wait above the default cap must raise the cap with it:
        the seed window may not exceed the documented hard limit, and
        the knob must not be silently clamped after the first
        measurement."""
        policy = make_policy("adaptive", 0.25)
        assert policy.initial_wait == 0.25
        assert policy.max_wait == 0.25
        policy.observe(batch_size=4, queue_depth=6, solve_wall=100.0)
        assert policy.linger(0) == 0.25

    def test_adaptive_honors_explicit_zero_max_wait(self):
        """The SolverServer contract says "0 disables lingering" — under
        **both** policies. Pre-fix, the adaptive branch raised the cap
        to max(0.05, 0) and lingered up to 50 ms once the EWMAs crossed
        the depth gate, overriding the operator's explicit 0."""
        policy = make_policy("adaptive", 0.0)
        assert policy.max_wait == 0.0
        assert policy.linger(10) == 0.0  # pre-measurement window is 0 too
        for _ in range(3):
            policy.observe(batch_size=2, queue_depth=8, solve_wall=0.5)
        assert policy.linger(10) == 0.0  # measurements land, still 0
        assert policy.snapshot()["current_window"] == 0.0

    def test_fixed_honors_explicit_zero_max_wait(self):
        policy = make_policy("fixed", 0.0)
        policy.observe(batch_size=2, queue_depth=8, solve_wall=0.5)
        assert policy.linger(10) == 0.0

    def test_adaptive_ewma_trajectory_is_exact(self):
        """The window trajectory is pure arithmetic on the observation
        sequence — no sleeping, no clock: feed three batches and check
        the blended EWMAs and the derived window exactly."""
        policy = make_policy("adaptive", 0.01)
        alpha = policy.alpha
        depths, solves = [4.0, 2.0, 0.0], [0.2, 0.4, 0.1]
        ewma_d = ewma_s = None
        for d, s in zip(depths, solves):
            policy.observe(batch_size=2, queue_depth=int(d), solve_wall=s)
            ewma_d = d if ewma_d is None else (1 - alpha) * ewma_d + alpha * d
            ewma_s = s if ewma_s is None else (1 - alpha) * ewma_s + alpha * s
        snap = policy.snapshot()
        assert snap["ewma_queue_depth"] == pytest.approx(ewma_d)
        assert snap["ewma_solve_wall"] == pytest.approx(ewma_s)
        assert policy.linger(0) == pytest.approx(
            min(policy.max_wait, policy.fraction * ewma_s)
        )

    def test_instance_passes_through(self):
        policy = FixedWait(0.1)
        assert make_policy(policy, 0.5) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ServeError, match="unknown batching policy"):
            make_policy("exponential", 0.01)


class TestServerIntegration:
    def test_adaptive_server_answers_correctly(self, system):
        """The policy only times the batcher — results are untouched."""
        A, b, _ = system
        with SolverServer(
            A, nproc=1, capacity_k=4, tol=1e-8, max_sweeps=300,
            sync_every_sweeps=10, policy="adaptive",
        ) as srv:
            first = srv.solve(b, timeout=WAIT)
            second = srv.solve(b, timeout=WAIT)
            stats = srv.stats()
        assert first.converged and second.converged
        assert stats.policy["policy"] == "adaptive"
        assert stats.policy["batches_observed"] == 2

    def test_stats_carry_policy_snapshot(self, system):
        A, b, _ = system
        with SolverServer(
            A, nproc=1, capacity_k=2, max_wait=0.007
        ) as srv:
            srv.solve(b, timeout=WAIT)
            stats = srv.stats()
        assert stats.policy == {"policy": "fixed", "max_wait": 0.007}

    def test_custom_policy_instance_accepted(self, system):
        A, b, _ = system

        class Eager(BatchingPolicy):
            name = "eager"

            def linger(self, queue_depth):
                return 0.0

        with SolverServer(
            A, nproc=1, capacity_k=2, policy=Eager()
        ) as srv:
            assert srv.solve(b, timeout=WAIT).converged
            assert srv.stats().policy == {"policy": "eager"}

    def test_unknown_policy_name_fails_before_spawning(self, system):
        A, _, _ = system
        with pytest.raises(ServeError, match="unknown batching policy"):
            SolverServer(A, nproc=1, capacity_k=2, policy="bogus")

"""Regression tests for the four concurrency bugs this harness flushed
out, each paired with its pre-fix exemplar (:mod:`.exemplars`).

Every pair runs the *same scenario on the same recorded seed* against
the fixed code and the pre-fix replica: the fixed code passes, the
replica reproduces the original failure deterministically. The seeds
were found by schedule exploration and are pinned here — replaying one
by hand is ``pytest tests/serve/simtest --sim-seed=<seed>``.
"""

from __future__ import annotations

import pytest

import repro.serve.registry as registry_mod
from repro.serve.batching import make_policy

from .drivers import (
    run_adaptive_linger,
    run_dispatcher_death,
    run_registry_policies,
    run_stash_depth,
)
from .exemplars import (
    RacyDepthServer,
    WedgingServer,
    buggy_make_policy,
    buggy_fold_stats,
)
from .scheduler import SimDeadlock

pytestmark = pytest.mark.simtest


class TestDispatcherDeath:
    """Bugfix 1: a dispatcher killed by a non-``Exception``
    ``BaseException`` must mark the server broken, not wedge it."""

    # Any schedule reproduces this one (the scenario serializes on the
    # dispatcher's exit); 0 is the canonical recorded seed.
    SEED = 0

    def test_fixed_server_fails_fast_naming_the_cause(self):
        outcome = run_dispatcher_death(self.SEED)
        assert outcome["result_error"] is not None
        err = outcome["submit_error"] or outcome["late_error"]
        assert err is not None
        assert "KeyboardInterrupt" in err and "injected fault" in err

    def test_prefix_server_wedges(self):
        # Pre-fix: _closed stays False after the dispatcher dies, the
        # late submit enqueues forever, result() blocks a queue nothing
        # pops — the harness reports the wedge instead of hanging.
        with pytest.raises(SimDeadlock, match="second-client"):
            run_dispatcher_death(self.SEED, server_cls=WedgingServer)


class TestAdaptiveZeroMaxWait:
    """Bugfix 2: ``policy="adaptive"`` with an explicit ``max_wait=0``
    must never linger ("0 disables lingering")."""

    SEED = 0

    def test_fixed_policy_honors_zero(self):
        queue_wait, snapshot = run_adaptive_linger(self.SEED)
        assert queue_wait < 0.02
        assert snapshot["ewma_queue_depth"] >= 0.5  # the gate was crossed
        assert snapshot["current_window"] == 0.0

    def test_prefix_policy_stalls_the_lone_request(self):
        # Pre-fix make_policy raised the cap to max(0.05, 0) = 50 ms:
        # once the EWMAs land, the lone request pays the full window.
        queue_wait, _ = run_adaptive_linger(
            self.SEED, policy=buggy_make_policy("adaptive", 0.0)
        )
        assert queue_wait >= 0.04

    def test_make_policy_contract_both_policies(self):
        # The non-simulated contract check: an explicit 0 collapses the
        # adaptive cap; the fixed policy already honored it.
        adaptive = make_policy("adaptive", 0.0)
        assert adaptive.max_wait == 0.0
        adaptive.observe(batch_size=1, queue_depth=6, solve_wall=0.4)
        adaptive.observe(batch_size=1, queue_depth=6, solve_wall=0.4)
        assert adaptive.linger(6) == 0.0
        assert make_policy("fixed", 0.0).linger(6) == 0.0


class TestStashDepthRace:
    """Bugfix 3: ``submit()`` computed the queue-depth high-water mark
    from an unsynchronized read of the dispatcher-private ``_stash``."""

    # Found by sweeping seeds 0..399 against the pre-fix replica: the
    # first schedule where the dispatcher stashes a request the client
    # has already counted in qsize() before the client reads _stash.
    SEED = 16

    def test_fixed_server_bounds_the_high_water_mark(self):
        assert run_stash_depth(self.SEED) <= 2

    def test_prefix_server_double_counts(self):
        assert run_stash_depth(self.SEED, server_cls=RacyDepthServer) == 3


class TestMergeStatsPolicy:
    """Bugfix 4: the registry aggregate stamped the whole fleet with
    whichever pool's snapshot came last."""

    SEED = 0

    def test_fixed_aggregate_reports_the_breakdown(self):
        payload = run_registry_policies(self.SEED)
        assert payload["aggregate"]["policy"] == {
            "policy": "mixed",
            "pools": 2,
            "policies": {"fixed": 1, "adaptive": 1},
        }

    def test_prefix_aggregate_misreports_one_pool(self, monkeypatch):
        monkeypatch.setattr(registry_mod, "fold_stats", buggy_fold_stats)
        payload = run_registry_policies(self.SEED)
        # Pre-fix: the last-registered pool ("ad", adaptive) speaks for
        # the whole registry even though half the pools run "fixed".
        assert payload["aggregate"]["policy"]["policy"] == "adaptive"

"""Schedule exploration: the serving stack under ~1000 seeded schedules.

Each sweep runs one scenario across a contiguous seed range (disjoint
bases per scenario keep seeds unambiguous); the per-run invariants live
in the drivers. A failure aborts with the seed and the exact replay
command (``--sim-seed=N``). CI runs this file in the simtest slice
under a shell-level hard timeout; ``--sim-count`` scales every sweep.

Default seed counts total just over 1000 schedules and complete in
seconds: every wait in a scenario is virtual, so a suite this size
costs scheduling overhead only, never wall-clock sleeping.
"""

from __future__ import annotations

import pytest

from .drivers import (
    explore,
    run_dispatcher_death,
    run_lone_linger,
    run_registry_traffic,
    run_server_traffic,
    run_stash_depth,
)

pytestmark = pytest.mark.simtest


def test_server_traffic(sim_seeds):
    explore(run_server_traffic, sim_seeds(10_000, 300))


def test_server_traffic_without_lingering(sim_seeds):
    explore(run_server_traffic, sim_seeds(20_000, 150), max_wait=0.0)


def test_registry_traffic_with_eviction(sim_seeds):
    def check(out):
        # The pool cap is below the matrix count, so schedules routing
        # across all matrices must have respawned at least once.
        assert out["pools_built"] >= 3

    explore(run_registry_traffic, sim_seeds(30_000, 150), check=check)


def test_stash_depth_stays_bounded(sim_seeds):
    # Three requests, at most two ever waiting: the high-water mark may
    # never exceed 2 under any schedule (the pre-fix unsynchronized
    # `_stash` read reported 3 — see test_regressions).
    def check(depth):
        assert depth <= 2, f"queue-depth high-water mark over-counted: {depth}"

    explore(run_stash_depth, sim_seeds(40_000, 200), check=check)


def test_dispatcher_death_fails_fast(sim_seeds):
    # Whatever the schedule, a dispatcher killed by a BaseException must
    # surface as a fast ServeError naming the cause — at submit() or at
    # result() — never as a hang (a hang would raise SimDeadlock here).
    def check(outcome):
        err = outcome["submit_error"] or outcome["late_error"]
        assert err is not None and "KeyboardInterrupt" in err

    explore(run_dispatcher_death, sim_seeds(50_000, 100), check=check)


def test_zero_max_wait_never_lingers(sim_seeds):
    # max_wait=0 disables lingering: under every schedule the lone
    # trailing request's queue wait is scheduling noise, not a window.
    def check(queue_wait):
        assert queue_wait < 0.02

    explore(run_lone_linger, sim_seeds(60_000, 60), check=check)

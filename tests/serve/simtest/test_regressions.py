"""Regression tests for concurrency bugs this harness flushed out, each
paired with its pre-fix exemplar (:mod:`.exemplars`), plus the linger
window's "0 disables lingering" contract.

Every pair runs the *same scenario on the same recorded seed* against
the fixed code and the pre-fix replica: the fixed code passes, the
replica reproduces the original failure deterministically. The seeds
were found by schedule exploration and are pinned here — replaying one
by hand is ``pytest tests/serve/simtest --sim-seed=<seed>``.
"""

from __future__ import annotations

import pytest

from .drivers import run_dispatcher_death, run_lone_linger, run_stash_depth
from .exemplars import RacyDepthServer, WedgingServer
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


class TestZeroMaxWait:
    """``max_wait=0`` never lingers: a request arriving alone after a
    burst runs at once, while an open window holds it."""

    SEED = 0

    def test_zero_window_never_lingers(self):
        assert run_lone_linger(self.SEED) < 0.02

    def test_open_window_holds_the_lone_request(self):
        # The check above has teeth: a server that lingers 50 ms is
        # caught by the same scenario.
        assert run_lone_linger(self.SEED, max_wait=0.05) >= 0.04


class TestStashDepthRace:
    """Bugfix 2: ``submit()`` computed the queue-depth high-water mark
    from an unsynchronized read of the dispatcher-private ``_stash``."""

    # Found by sweeping seeds 0..399 against the pre-fix replica: the
    # first schedule where the dispatcher stashes a request the client
    # has already counted in qsize() before the client reads _stash.
    SEED = 16

    def test_fixed_server_bounds_the_high_water_mark(self):
        assert run_stash_depth(self.SEED) <= 2

    def test_prefix_server_double_counts(self):
        assert run_stash_depth(self.SEED, server_cls=RacyDepthServer) == 3

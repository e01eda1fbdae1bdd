"""Benchmark: wall-clock strong scaling of the worker pool.

Unlike the fig2 scaling benches (modeled time from the cost model), the
numbers here are genuine wall-clock seconds from worker threads sharing
one iterate. Shape claims are hardware-conditional: near-linear speedup
needs as many physical cores as workers, so the assertions only check
hardware-independent invariants (identical work, sane delay statistics)
and gate the speedup check on the available CPU count.
"""

import pytest

from repro.bench import run_speedup
from repro.execution import available_cpus

from conftest import persist_and_print


@pytest.mark.pool
def test_speedup_smoke(benchmark):
    result = benchmark.pedantic(
        run_speedup,
        kwargs=dict(problem="laplace2d", nprocs=[1, 2], sweeps=3),
        rounds=1,
        iterations=1,
    )
    persist_and_print("fig_speedup", result.table())

    assert result.nprocs == [1, 2]
    assert all(t > 0 for t in result.wall_time)
    # One worker never observes a foreign commit; two race for real.
    assert result.tau_observed[0] == 0
    # Same update budget ⇒ comparable residuals (asynchrony, not work,
    # is the only difference between the rows).
    assert result.residual[1] < 10 * result.residual[0] + 1e-12
    if available_cpus() >= 2:
        # With real cores the second worker must buy wall-clock time.
        assert result.speedup[1] > 1.1

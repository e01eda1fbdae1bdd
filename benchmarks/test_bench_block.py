"""Benchmark: block (multi-RHS) throughput and persistent-pool reuse.

The wall-clock shape claims (block beats the per-column loop; a
persistent pool beats spawn-per-call) are hardware- and load-dependent,
so the assertions check only the invariants every machine must satisfy:
identical work accounting, sane residuals, and the pool genuinely being
spawned once. The measured ratios are printed for the record.
"""

import pytest

from repro.bench import run_block, run_block_retirement

from conftest import persist_and_print


@pytest.mark.pool
def test_block_smoke(benchmark):
    result = benchmark.pedantic(
        run_block,
        kwargs=dict(problem="laplace2d", nproc=2, labels=4, sweeps=2, repeats=2),
        rounds=1,
        iterations=1,
    )
    persist_and_print("fig_block", result.table())

    assert result.labels == 4
    assert result.block_wall > 0 and result.loop_wall > 0
    assert result.pooled_wall > 0 and result.oneshot_wall > 0
    # The same per-column budget ⇒ comparable block/loop residuals.
    assert result.block_residual < 10 * result.loop_residual + 1e-12
    # The persistent pool must really be one pool; one-shot pays one per call.
    assert result.spawns_pooled == 1
    assert result.spawns_oneshot == result.repeats


@pytest.mark.pool
def test_block_retirement_smoke(benchmark):
    """Per-column retirement on the paper's 51-label regime: label
    difficulty on ``social-labels`` is skewed, so retiring converged
    columns must save a measurable share of the column updates while
    every retired column still finishes below the tolerance."""
    result = benchmark.pedantic(
        run_block_retirement,
        kwargs=dict(problem="social-labels", nproc=2, tol=1e-3, max_sweeps=600),
        rounds=1,
        iterations=1,
    )
    persist_and_print("fig_block_retirement", result.table())

    assert result.labels == 51
    assert result.converged_retire and result.converged_full
    # Both runs did real work and the retired one did measurably less:
    # the active set must have shrunk well before the slowest label.
    assert result.col_updates_retire < 0.9 * result.col_updates_full
    assert 0 <= result.first_retirement < result.last_retirement
    # Every retired column's final relative residual honors the tol.
    assert result.max_col_residual < 1e-3

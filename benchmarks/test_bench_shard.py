"""Benchmark: sharded solves under a shared-memory budget.

``repro experiment shard`` claims a precise shape: one pool's segment
exceeds the derived budget while every shard's fits, the sharded solve
converges anyway, staler halo exchange (longer epochs) costs sweeps but
never correctness, and ``shards=1`` stays bit-identical to the plain
pool. Wall-clocks are hardware noise; everything asserted here is the
budget arithmetic and the convergence bookkeeping any machine must
reproduce.
"""

import pytest

from repro.bench import run_shard

from conftest import persist_and_print


@pytest.mark.pool
@pytest.mark.shard
def test_shard_smoke(benchmark):
    result = benchmark.pedantic(
        run_shard,
        kwargs=dict(
            nx=16, shards=4, nproc=1, tol=1e-5, max_sweeps=20000,
            cadences=(1, 4),
        ),
        rounds=1,
        iterations=1,
    )
    persist_and_print("fig_shard", result.table())

    # The "too big for one box" regime really held.
    assert max(result.shard_bytes) < result.shm_limit < result.single_pool_bytes
    assert "shards > 1" in result.refusal
    # Sharding is a refactor, not a new solver: shards=1 is bit-equal.
    assert result.serial_equivalent
    # Every staleness setting converged, with honest per-shard books.
    assert len(result.curves) == 2
    for curve in result.curves:
        assert curve["converged"]
        assert curve["final_residual"] < result.tol
        assert len(curve["shard_updates"]) == result.shards
        assert sum(curve["shard_updates"]) == curve["updates"]
        assert curve["checkpoints"][-1][0] >= curve["updates"] // 2
    # Staler halos never pay fewer exchanges per sweep — the cadence-4
    # run crosses boundaries at most as often as the cadence-1 run.
    fine, coarse = result.curves
    assert coarse["exchanges"] <= fine["exchanges"]

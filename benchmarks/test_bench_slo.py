"""Benchmark: the serving load driver — SLO ramp, warm-start cache
savings, batched-vs-one-shot throughput and the batching policies.

Every round goes through ``handle_line`` on a ``MatrixRegistry``, the
path the wire front doors take. The acceptance claims:

* the open-loop ramp must find a nonzero max sustainable rate (the
  server keeps p99 under the target at least at the gentlest offered
  rate — a server that cannot do that is not serving);
* replaying one bursty near-duplicate schedule with warm-start caching
  on must cost measurably fewer solve sweeps than the identical
  schedule with caching off;
* batched serving must beat one-shot-per-request throughput by a clear
  margin on the paper's 51-label regime (the batch shares one row
  gather across the whole request set, and the pool is spawned once
  instead of per request), and a capacity-k pool must serve both a k=1
  request and the full k=51 block with zero respawns;
* the adaptive linger window must match or beat the fixed knob on both
  burst and closed-loop traffic.

Every test here is named ``*_smoke`` so CI's ``-k smoke`` run executes
all of them. Running this suite refreshes ``results/BENCH_serve.json``
— the artifact the CI threshold check compares against the committed
baseline — and ``results/BENCH_serve_cache.json``.
"""

import pytest

from repro.bench import run_serve, run_serve_adaptive, run_slo, run_slo_cache

from conftest import persist_and_print


@pytest.mark.multiprocess
def test_slo_smoke(benchmark):
    result = benchmark.pedantic(
        run_slo,
        kwargs=dict(nproc=2, ramp_steps=4, duration=1.0, max_requests=20),
        rounds=1,
        iterations=1,
    )
    persist_and_print("BENCH_serve", result.table())

    assert result.all_ok
    # The self-calibrated ramp starts below the server's service rate,
    # so the gentlest offered rate must sustain the p99 target.
    assert result.max_sustainable_rps > 0.0
    assert result.rows_data[0][5]  # within SLO at the first rate
    # Every recorded rate carries real percentile measurements.
    for row in result.rows_data:
        assert 0.0 < row[3] <= row[4]  # p50 <= p99


@pytest.mark.multiprocess
def test_slo_cache_savings_smoke(benchmark):
    """Warm starts must save sweeps on bursty near-duplicate traffic:
    identical rhs sequence, identical arrival schedule, the only
    difference is x0 seeding — so mean sweeps per request must drop
    and every answer must still be ok."""
    result = benchmark.pedantic(
        run_slo_cache,
        kwargs=dict(nproc=2, bases=2, repeats=2),
        rounds=1,
        iterations=1,
    )
    persist_and_print("BENCH_serve_cache", result.table())

    assert result.all_ok
    rows = {r[0]: r for r in result.rows_data}
    # The cache-on replay actually warm-started (exact repeats + near
    # duplicates of burst 0's solutions), the cache-off one never did.
    assert rows["cache-off"][4] == 0
    assert rows["cache-on"][4] > 0
    # The headline: >= 1.5x fewer mean sweeps with the cache. Exact
    # repeats retire at their first residual check and epsilon-starts
    # begin epsilon-close, so the structural margin is far larger;
    # 1.5x only absorbs direction-stream noise.
    assert result.sweeps_savings >= 1.5


@pytest.mark.multiprocess
def test_serve_smoke(benchmark):
    result = benchmark.pedantic(
        run_serve,
        kwargs=dict(problem="social-labels", nproc=2, tol=1e-3, max_sweeps=600),
        rounds=1,
        iterations=1,
    )
    persist_and_print("fig_serve", result.table())

    assert result.requests == 51
    # Every regime answered every request to the tolerance.
    assert result.all_converged
    # The headline: batched serving beats one-shot-per-request by >= 2x.
    assert result.batched_speedup >= 2.0
    # One pool, zero respawns, across a k=1 request and the k=51 block.
    assert result.capacity_spawns == 1
    assert result.capacity_pids_stable
    # The widest batch regime really coalesced: far fewer batches than
    # requests, and exactly one pool spawn per server.
    widest = result.rows_data[-1]
    assert widest[3] < result.requests
    assert widest[4] == 1


@pytest.mark.multiprocess
def test_serve_adaptive_smoke(benchmark):
    """Adaptive batching must at least match the fixed linger window on
    both traffic shapes: on the loaded burst the backlog fills batches
    either way (parity, generous noise margin), and on closed-loop
    traffic the fixed window is a pure per-request tax the adaptive
    policy measures and declines (strict >=)."""
    result = benchmark.pedantic(
        run_serve_adaptive,
        kwargs=dict(problem="social-labels"),
        rounds=1,
        iterations=1,
    )
    persist_and_print("fig_serve_adaptive", result.table())

    assert result.requests == 51
    assert result.all_converged
    # The headline: the measuring policy never loses to the knob. The
    # closed-loop gap is structural (the full fixed window per request,
    # ~50% of a solve, against deterministic nproc=1 trajectories); the
    # burst margin only absorbs scheduler noise.
    assert result.adaptive_speedup >= 1.0
    assert result.burst_ratio >= 0.8
    # Closed-loop traffic never coalesces; the burst genuinely batches.
    rows = {(r[0], r[1]): r for r in result.rows_data}
    assert rows[("closed-loop", "adaptive")][5] == 1.0  # mean batch
    assert rows[("burst", "adaptive")][5] > 1.0

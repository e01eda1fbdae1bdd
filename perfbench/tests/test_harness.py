"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from catalog import END_TO_END, PER_LAYER  # noqa: E402
from reference import NOMINAL_S, Sampler  # noqa: E402
from spans import Span, self_times  # noqa: E402


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, "parent", "t", None, 0.0, 10.0),
        Span(2, "child", "t", 1, 1.0, 4.0),
        Span(3, "child", "t", 1, 3.0, 6.0),   # overlaps the first child
        Span(4, "child", "t", 1, 9.0, 12.0),  # runs past the parent's end
        Span(5, "grandchild", "t", 2, 1.5, 2.0),
    ]
    own = self_times(spans)
    # Children cover [1, 6] and [9, 10] of the parent's [0, 10].
    assert own[1] == pytest.approx(4.0)
    # A grandchild is subtracted from its own parent only.
    assert own[2] == pytest.approx(2.5)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)


def test_percentile_reports_its_sample_count():
    value, n = harness.percentile([3.0, 1.0, 2.0, 4.0], 50)
    assert (value, n) == (2.5, 4)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def _sample(latency: float, burst: int, k: int = 1) -> harness.Sample:
    b = np.zeros((3, k)) if k > 1 else np.zeros(3)
    req = workloads.Request(f"w{burst}", b, 1e-6, "{}")
    return harness.Sample(req, {}, latency, 0, burst)


def _loop(latencies_per_burst, wall=1.0, k=1) -> harness.Loop:
    loop = harness.Loop()
    for i, latencies in enumerate(latencies_per_burst):
        loop.samples += [_sample(t, i, k) for t in latencies]
        loop.bursts.append((i * wall, (i + 1) * wall))
    return loop


def test_timing_is_a_median_over_chunks_scaled_by_speed():
    # 16 bursts of 10 requests: chunks of two bursts; one outlier.
    loop = _loop([[0.1] * 10] * 16)
    loop.samples[0].latency = 5.0
    passed = [True] * len(loop.samples)
    parts = harness.chunks(loop, passed)
    assert len(parts) == workloads.CHUNKS
    assert all(sum(len(b[2]) for b in p["bursts"]) == 20 for p in parts)
    raw = harness.reduce(parts, lambda t0, t1: 1.0)
    assert raw["rhs_per_s"] == pytest.approx(10.0)
    assert raw["latency_p50_s"] == pytest.approx(0.1)
    scaled = harness.reduce(parts, lambda t0, t1: 0.5)
    assert scaled["rhs_per_s"] == pytest.approx(20.0)
    assert scaled["latency_p90_s"] == pytest.approx(0.05)


def test_each_burst_is_scaled_by_its_own_factor():
    loop = _loop([[0.1] * 10, [0.2] * 10])
    parts = harness.chunks(loop, [True] * 20)
    # The second burst ran at half speed: scaled, both read 0.1 s.
    out = harness.reduce(parts, lambda t0, t1: 0.5 if t0 >= 1.0 else 1.0)
    assert out["latency_p90_s"] == pytest.approx(0.1)


def test_failed_requests_do_not_count_as_answered():
    loop = _loop([[0.1, 0.1]] * 8)
    passed = [True, False] * 8
    parts = harness.chunks(loop, passed)
    out = harness.reduce(parts, lambda t0, t1: 1.0)
    assert out["rhs_per_s"] == pytest.approx(1.0)


def test_small_chunks_take_percentiles_over_the_whole_run():
    # One block request (51 columns) per burst: chunks of one sample.
    loop = _loop([[t] for t in (1.0, 2.0, 3.0, 4.0, 5.0)], k=51)
    parts = harness.chunks(loop, [True] * 5)
    out = harness.reduce(parts, lambda t0, t1: 1.0)
    assert out["latency_p90_s"] == pytest.approx(4.6)
    assert out["rhs_per_s"] == pytest.approx(51.0)


def test_sampler_factor_averages_samples_in_or_nearest_the_interval():
    sampler = Sampler()
    sampler.samples = [(t, NOMINAL_S * (1 if t < 3 else 2))
                       for t in (1.0, 2.0, 3.0, 4.0, 5.0)]
    assert sampler.factor(2.5, 5.5) == pytest.approx(0.5)
    # Fewer than NEAREST inside: the nearest three (1, 2 and 3).
    assert sampler.factor(0.0, 2.5) == pytest.approx(0.75)
    assert sampler.factor(10.0, 11.0) == pytest.approx(0.5)


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_seeded_inputs_are_byte_identical(name):
    first = workloads.generate(name, 7, 1)
    again = workloads.generate(name, 7, 1)
    other = workloads.generate(name, 8, 1)
    lines = [r.line for r in first.requests]
    assert lines == [r.line for r in again.requests]
    assert lines != [r.line for r in other.requests]
    for attr in ("data", "indices", "indptr"):
        assert np.asarray(getattr(first.A, attr)).tobytes() == np.asarray(
            getattr(again.A, attr)
        ).tobytes()
    ids = [r.trace_id for r in first.requests]
    assert len(set(ids)) == len(ids)


def test_cache_runs_hold_one_cold_burst_per_chunk_period():
    spec = workloads.SPECS["repeat-cache"]
    n = workloads.timed_bursts(spec, 15)
    assert n % (workloads.CHUNKS * spec.cold_every) == 0
    inputs = workloads.generate("repeat-cache", 3, 15)
    cold = [i for i, burst in enumerate(inputs.bursts)
            if burst[0].kind == "cold"]
    assert cold == list(range(0, n, spec.cold_every))


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.SPECS)

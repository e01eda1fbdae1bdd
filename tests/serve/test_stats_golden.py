"""Golden pin of every serving-stats surface.

One fixed scenario on fake pools, driven sequentially so every count is
exact: a gateway with three matrices (asyrgs, a ``shards=3``
matrix, asyrk), the solution cache on with one exact hit, no eviction; and a
one-matrix registry, its matrix registered as ``"default"`` (the gateway
``repro serve --problem`` builds). The whole ``stats_payload()`` and
``matrices_payload()`` and the parsed ``render_metrics`` scrape are
compared with literal expectations, so a refactor of how the counters
are kept, folded or rendered cannot move a value, a key or a type.

Latency is wall clock: only its type and sign are checked.
"""

import json

import numpy as np
import pytest

from repro.serve import MatrixRegistry, render_metrics

from .conftest import one_matrix
from .simtest.fakes import diagonal_system, fake_factory
from .test_metrics import parse_exposition

pytestmark = pytest.mark.serve

N = 6
DIAG = 1.0 + np.arange(N) % 3
B = np.arange(1.0, N + 1.0)

#: Wall-clock values: payload keys and metric families.
_CLOCK_KEYS = {"latency_mean", "latency_max"}
_CLOCK_FAMILIES = {"repro_latency_mean_seconds", "repro_latency_max_seconds"}
_CLOCK = "<wall clock>"


def _mask(value):
    """``value`` with every wall-clock entry checked (a positive float)
    and replaced by a placeholder."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key in _CLOCK_KEYS:
                assert isinstance(item, float) and item > 0.0, (key, item)
                item = _CLOCK
            out[key] = _mask(item)
        return out
    if isinstance(value, list):
        return [_mask(item) for item in value]
    return value


def _families(text: str) -> dict:
    """The scrape as ``{family: (kind, sorted (labels, value))}``, with
    the wall-clock families' values checked and masked."""
    out = {}
    for name, family in parse_exposition(text).items():
        samples = []
        for labels, value in family["samples"]:
            if name in _CLOCK_FAMILIES:
                assert value > 0.0, (name, labels, value)
                value = _CLOCK
            samples.append((tuple(sorted(labels.items())), value))
        out[name] = (family["kind"], sorted(samples))
    return out


def _assert_pinned(actual, expected):
    assert actual == expected
    # Equality above lets 1 == 1.0 and True == 1 pass; the JSON text
    # does not, so the wire types are pinned too.
    assert json.dumps(actual, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def _matrix_stats(**overrides):
    base = {
        "requests_submitted": 1,
        "requests_served": 1,
        "requests_failed": 0,
        "batches": 1,
        "batched_singles": 0,
        "max_batch_size": 1,
        "max_queue_depth": 1,
        "latency_mean": _CLOCK,
        "latency_max": _CLOCK,
        "spawn_count": 1,
        "method": "asyrgs",
        "shards": 1,
        "shard_updates": [],
    }
    return {**base, **overrides}


def _per_matrix(values: dict) -> list:
    return sorted(((("matrix", m),), v) for m, v in values.items())


def _listing(matrix, **overrides):
    base = {
        "matrix": matrix,
        "default": False,
        "n": N,
        "nnz": N,
        "capacity_k": 2,
        "method": "asyrgs",
        "shards": 1,
        "live": True,
        "requests_submitted": 1,
        "requests_served": 1,
        "requests_failed": 0,
        "spawn_count": 1,
    }
    return {**base, **overrides}


@pytest.fixture(scope="module")
def gateway():
    with MatrixRegistry(
        nproc=1,
        capacity_k=2,
        max_wait=0.0,
        max_live_pools=8,
        cache_solutions=True,
        solver_factory=fake_factory(),
    ) as reg:
        reg.register("rgs", diagonal_system(DIAG))
        reg.register("big", diagonal_system(2.0 * DIAG), shards=3)
        reg.register("rk", diagonal_system(4.0 * DIAG), method="asyrk")
        reg.solve(B, matrix="rgs")
        reg.solve(B, matrix="rgs")  # the exact cache hit
        reg.solve(B, matrix="big")
        reg.solve(2.0 * B, matrix="rk")
        yield {
            "stats": reg.stats_payload(),
            "matrices": reg.matrices_payload(),
            "metrics": render_metrics(reg),
        }


@pytest.fixture(scope="module")
def lone():
    with one_matrix(
        diagonal_system(DIAG),
        nproc=2,
        capacity_k=2,
        max_wait=0.0,
        solver_factory=fake_factory(),
    ) as srv:
        srv.solve(B)
        srv.solve(B)
        yield {
            "stats": srv.stats_payload(),
            "matrices": srv.matrices_payload(),
            "metrics": render_metrics(srv),
        }


GATEWAY_MATRICES = {
    "rgs": _matrix_stats(
        requests_submitted=2, requests_served=2, batches=2,
    ),
    "big": _matrix_stats(
        spawn_count=3, shards=3,
        shard_updates=[1, 1, 1],
    ),
    "rk": _matrix_stats(method="asyrk"),
}

GATEWAY_AGGREGATE = _matrix_stats(
    requests_submitted=4,
    requests_served=4,
    batches=4,
    spawn_count=5,
    method={"method": "mixed", "methods": {"asyrgs": 2, "asyrk": 1}},
    shards={"shards": "mixed", "counts": {1: 2, 3: 1}},
    shard_updates=[1, 1, 1],
)


class TestGateway:
    def test_stats_payload(self, gateway):
        _assert_pinned(
            _mask(gateway["stats"]),
            {"aggregate": GATEWAY_AGGREGATE, "matrices": GATEWAY_MATRICES},
        )

    def test_matrices_payload(self, gateway):
        _assert_pinned(
            gateway["matrices"],
            [
                _listing(
                    "rgs", default=True, requests_submitted=2,
                    requests_served=2,
                ),
                _listing("big", shards=3, spawn_count=3),
                _listing("rk", method="asyrk"),
            ],
        )

    def test_metrics(self, gateway):
        counts = {"rgs": 2, "big": 1, "rk": 1}
        ones = {"rgs": 1, "big": 1, "rk": 1}
        zeros = {"rgs": 0, "big": 0, "rk": 0}
        clock = {"rgs": _CLOCK, "big": _CLOCK, "rk": _CLOCK}
        assert _families(gateway["metrics"]) == {
            "repro_matrices_registered": ("gauge", [((), 3.0)]),
            "repro_live_pools": ("gauge", [((), 3.0)]),
            "repro_requests_submitted_total": (
                "counter", _per_matrix(counts),
            ),
            "repro_requests_served_total": ("counter", _per_matrix(counts)),
            "repro_requests_failed_total": ("counter", _per_matrix(zeros)),
            "repro_batches_total": ("counter", _per_matrix(counts)),
            "repro_batched_singles_total": ("counter", _per_matrix(zeros)),
            "repro_pool_spawns_total": (
                "counter", _per_matrix({"rgs": 1, "big": 3, "rk": 1}),
            ),
            "repro_max_batch_size": ("gauge", _per_matrix(ones)),
            "repro_max_queue_depth": ("gauge", _per_matrix(ones)),
            "repro_latency_mean_seconds": ("gauge", _per_matrix(clock)),
            "repro_latency_max_seconds": ("gauge", _per_matrix(clock)),
            "repro_shard_updates_total": (
                "counter",
                [
                    ((("matrix", "big"), ("shard", str(s))), 1.0)
                    for s in range(3)
                ],
            ),
            "repro_matrix_shards": (
                "gauge", _per_matrix({"rgs": 1, "big": 3, "rk": 1}),
            ),
            "repro_matrix_info": (
                "gauge",
                [
                    ((("matrix", "big"), ("method", "asyrgs")), 1.0),
                    ((("matrix", "rgs"), ("method", "asyrgs")), 1.0),
                    ((("matrix", "rk"), ("method", "asyrk")), 1.0),
                ],
            ),
            "repro_cache_hits_total": (
                "counter",
                [((("kind", "exact"),), 1.0), ((("kind", "near"),), 0.0)],
            ),
            "repro_cache_misses_total": ("counter", [((), 3.0)]),
            "repro_cache_stores_total": ("counter", [((), 4.0)]),
            "repro_cache_evictions_total": ("counter", [((), 0.0)]),
            "repro_cache_invalidations_total": ("counter", [((), 0.0)]),
            "repro_cache_entries": ("gauge", [((), 3.0)]),
            "repro_cache_requests_total": (
                "counter",
                [((("start", "cold"),), 3.0), ((("start", "warm"),), 1.0)],
            ),
            "repro_cache_sweeps_total": (
                "counter",
                [((("start", "cold"),), 9.0), ((("start", "warm"),), 3.0)],
            ),
        }


LONE_MATRIX = _matrix_stats(
    requests_submitted=2, requests_served=2, batches=2,
)


class TestOneMatrix:
    """The counts a lone served matrix reports, under the registry's
    snapshot shape."""

    def test_stats_payload(self, lone):
        _assert_pinned(
            _mask(lone["stats"]),
            {"aggregate": LONE_MATRIX, "matrices": {"default": LONE_MATRIX}},
        )

    def test_matrices_payload(self, lone):
        _assert_pinned(
            lone["matrices"],
            [
                _listing(
                    "default", default=True, requests_submitted=2,
                    requests_served=2,
                )
            ],
        )

    def test_metrics(self, lone):
        one = {"default": 1}
        two = {"default": 2}
        zero = {"default": 0}
        assert _families(lone["metrics"]) == {
            "repro_matrices_registered": ("gauge", [((), 1.0)]),
            "repro_live_pools": ("gauge", [((), 1.0)]),
            "repro_requests_submitted_total": ("counter", _per_matrix(two)),
            "repro_requests_served_total": ("counter", _per_matrix(two)),
            "repro_requests_failed_total": ("counter", _per_matrix(zero)),
            "repro_batches_total": ("counter", _per_matrix(two)),
            "repro_batched_singles_total": ("counter", _per_matrix(zero)),
            "repro_pool_spawns_total": ("counter", _per_matrix(one)),
            "repro_max_batch_size": ("gauge", _per_matrix(one)),
            "repro_max_queue_depth": ("gauge", _per_matrix(one)),
            "repro_latency_mean_seconds": (
                "gauge", _per_matrix({"default": _CLOCK}),
            ),
            "repro_latency_max_seconds": (
                "gauge", _per_matrix({"default": _CLOCK}),
            ),
            "repro_matrix_shards": ("gauge", _per_matrix(one)),
            "repro_matrix_info": (
                "gauge",
                [((("matrix", "default"), ("method", "asyrgs")), 1.0)],
            ),
        }

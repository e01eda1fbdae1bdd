"""Prometheus rendering tests: ``/v1/metrics`` must be scrapeable.

A monitoring stack is unforgiving about the text exposition format
(version 0.0.4), so these tests parse every rendered line with a strict
grammar — ``# HELP`` then ``# TYPE`` then samples, one header pair per
family, counters ``_total``-suffixed, label values quoted — and then
pin the coverage contract: server counters, registry gateway gauges,
per-shard series, the info metric, and the cache family appearing
exactly when warm-start caching is on. Pools are the simtest fakes, so
the suite runs on threads alone.
"""

import json
import re

import numpy as np
import pytest

from repro.serve import MatrixRegistry, handle_line, render_metrics
from repro.serve.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE

from .conftest import one_matrix
from .simtest.fakes import FakePool, diagonal_system, fake_factory

pytestmark = pytest.mark.serve

N = 8
DIAG = 2.0 ** (np.arange(N) % 3)

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP ({_NAME}) \S.*$")
_TYPE_RE = re.compile(rf"^# TYPE ({_NAME}) (counter|gauge)$")
_SAMPLE_RE = re.compile(
    rf"^({_NAME})(?:\{{([^{{}}]*)\}})? (-?(?:\d+\.?\d*(?:e[+-]?\d+)?))$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict:
    """Validate the full 0.0.4 grammar and return
    ``{family: {"kind": ..., "samples": [(labels, value), ...]}}``.
    Asserts the structural rules a Prometheus scraper enforces."""
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict = {}
    pending_help = None
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP"):
            m = _HELP_RE.match(line)
            assert m, f"malformed HELP line: {line!r}"
            name = m.group(1)
            assert name not in families, f"family {name} rendered twice"
            pending_help = name
            current = None
            continue
        if line.startswith("# TYPE"):
            m = _TYPE_RE.match(line)
            assert m, f"malformed TYPE line: {line!r}"
            name, kind = m.groups()
            assert pending_help == name, (
                f"TYPE for {name} must directly follow its HELP"
            )
            if kind == "counter":
                assert name.endswith("_total"), (
                    f"counter {name} must be _total-suffixed"
                )
            families[name] = {"kind": kind, "samples": []}
            current = name
            pending_help = None
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"malformed sample line: {line!r}"
        name, label_blob, value = m.groups()
        assert name == current, (
            f"sample for {name} outside its family block ({current})"
        )
        labels = {}
        if label_blob:
            consumed = ",".join(
                f'{k}="{v}"' for k, v in _LABEL_RE.findall(label_blob)
            )
            assert consumed == label_blob, f"bad label syntax: {label_blob!r}"
            labels = dict(_LABEL_RE.findall(label_blob))
        families[name]["samples"].append((labels, float(value)))
    assert families, "empty exposition"
    return families


def value_of(families, name, **labels):
    for sample_labels, value in families[name]["samples"]:
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            return value
    raise AssertionError(f"no {name} sample with labels {labels}")


@pytest.fixture()
def fake_server():
    with one_matrix(
        diagonal_system(DIAG),
        nproc=1,
        capacity_k=2,
        max_wait=0.0,
        solver_factory=fake_factory(),
    ) as server:
        yield server


class TestBareServer:
    """One matrix behind the front door with nothing else registered:
    the registry ``repro serve --problem`` builds, its series labeled
    ``matrix="default"``."""

    def test_valid_exposition_with_default_matrix_label(self, fake_server):
        b = np.arange(1.0, N + 1.0)
        for _ in range(3):
            fake_server.submit(b).result()
        families = parse_exposition(render_metrics(fake_server))
        assert (
            value_of(families, "repro_requests_served_total", matrix="default")
            == 3
        )
        assert (
            value_of(
                families, "repro_requests_submitted_total", matrix="default"
            )
            == 3
        )
        assert value_of(families, "repro_pool_spawns_total") == 1
        assert families["repro_latency_mean_seconds"]["kind"] == "gauge"
        assert value_of(families, "repro_max_batch_size") >= 1
        info = value_of(
            families, "repro_matrix_info",
            matrix="default", method="asyrgs",
        )
        assert info == 1
        # No cache attached -> no cache family in the scrape.
        assert not any(name.startswith("repro_cache") for name in families)

    def test_metrics_wire_verb_returns_the_same_text(self, fake_server):
        reply = json.loads(
            handle_line(fake_server, '{"op": "metrics", "id": "m1"}')()
        )
        assert reply["ok"] and reply["id"] == "m1"
        assert reply["trace_id"].startswith("t-")
        families = parse_exposition(reply["metrics"])
        assert "repro_requests_served_total" in families

    def test_content_type_pins_the_exposition_version(self):
        assert METRICS_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in METRICS_CONTENT_TYPE


class TestRegistry:
    @pytest.fixture()
    def registry(self):
        def factory(method, A, x_block, **kwargs):
            return FakePool(A, x_block, method=method, **kwargs)

        with MatrixRegistry(
            nproc=1,
            capacity_k=2,
            max_wait=0.0,
            max_live_pools=8,
            cache_solutions=True,
            solver_factory=factory,
        ) as reg:
            reg.register("lap", diagonal_system(DIAG))
            reg.register("big", diagonal_system(2.0 * DIAG), shards=3)
            yield reg

    def test_gateway_per_matrix_shard_and_cache_series(self, registry):
        b = np.arange(1.0, N + 1.0)
        registry.submit(b, matrix="lap").result()
        registry.submit(b, matrix="lap").result()  # exact cache hit
        registry.submit(b, matrix="big").result()
        families = parse_exposition(render_metrics(registry))
        # Gateway gauges.
        assert value_of(families, "repro_matrices_registered") == 2
        assert value_of(families, "repro_live_pools") == 2
        # Per-matrix counters carry the matrix label.
        assert (
            value_of(families, "repro_requests_served_total", matrix="lap")
            == 2
        )
        assert (
            value_of(families, "repro_requests_served_total", matrix="big")
            == 1
        )
        # Shard series: one per row shard of the sharded matrix, none
        # for the single-pool one.
        shard_labels = [
            labels
            for labels, _ in families["repro_shard_updates_total"]["samples"]
        ]
        assert {lb["matrix"] for lb in shard_labels} == {"big"}
        assert {lb["shard"] for lb in shard_labels} == {"0", "1", "2"}
        assert value_of(families, "repro_matrix_shards", matrix="big") == 3
        assert value_of(families, "repro_matrix_shards", matrix="lap") == 1
        # The cache family mirrors cache_stats() exactly.
        cs = registry.cache_stats()
        assert (
            value_of(families, "repro_cache_hits_total", kind="exact")
            == cs["hits_exact"]
        )
        assert (
            value_of(families, "repro_cache_hits_total", kind="near")
            == cs["hits_near"]
        )
        assert value_of(families, "repro_cache_misses_total") == cs["misses"]
        assert value_of(families, "repro_cache_entries") == cs["entries"]
        assert (
            value_of(families, "repro_cache_requests_total", start="warm")
            == cs["warm_requests"]
        )
        assert (
            value_of(families, "repro_cache_sweeps_total", start="cold")
            == cs["cold_sweeps"]
        )
        assert cs["hits_exact"] == 1  # the repeat really hit

    def test_label_values_are_escaped(self):
        """A matrix id with quotes/backslashes/newlines must not break
        the exposition grammar."""
        wicked = 'we"ird\\name\nx'
        with MatrixRegistry(
            nproc=1,
            capacity_k=2,
            max_wait=0.0,
            solver_factory=fake_factory(),
        ) as reg:
            reg.register(wicked, diagonal_system(DIAG))
            reg.submit(np.arange(1.0, N + 1.0), matrix=wicked).result()
            families = parse_exposition(render_metrics(reg))
        samples = families["repro_requests_served_total"]["samples"]
        ((labels, value),) = samples
        assert value == 1
        assert labels["matrix"] == 'we\\"ird\\\\name\\nx'

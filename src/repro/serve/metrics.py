"""The serving numbers: declared once, then counted, folded and rendered.

Every number the serving stack reports is a field of
:class:`ServerStats` (one matrix's pools) or :class:`CacheStats` (the
warm-start cache), and the field's metadata holds everything done with
it: its Prometheus family and help text and its ``fold`` (how
:func:`fold_stats` combines snapshots across a matrix's pool lifetimes
and across a gateway's matrices). A new serving counter is
therefore one field: the server counts it, ``/v1/stats`` carries it,
the registry folds it and ``/v1/metrics`` exports it.

:func:`render_metrics` writes the Prometheus text exposition format
(version 0.0.4: ``# HELP`` / ``# TYPE`` lines, then the family's
samples), which ``GET /v1/metrics`` and the ``metrics`` wire verb
return. Every family is ``repro_``-prefixed; counters are
``_total``-suffixed, everything else is a gauge. Per-matrix families
are labeled by resident matrix (``matrix="lap"``; ``repro serve
--problem`` registers its one matrix as ``matrix="default"``), and
list-valued fields render one sample per element (``shard="0"``, ...).
Gateway gauges (``repro_matrices_registered``, ``repro_live_pools``)
and the ``repro_cache_*`` families are unlabeled by matrix: there is
one registry and one cache per process. ``repro_matrix_info`` carries
the update method as a label on a constant ``1``, the standard
info-metric idiom.

Everything is rendered from one consistent snapshot per section: the
registry's ``stats_payload`` snapshots every matrix under its lock, so
a scrape never mixes counters from two moments.
"""

from __future__ import annotations

from collections import Counter
from copy import copy
from dataclasses import dataclass, field, fields
from itertools import zip_longest

__all__ = [
    "CONTENT_TYPE",
    "CacheStats",
    "ServerStats",
    "fold_stats",
    "render_metrics",
]

#: The content type ``GET /v1/metrics`` answers with.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r'\"')
        .replace("\n", r"\n")
    )


def _format_value(value) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _stat(
    family=None, help_text=None, fold=None, *, default=0, per=None,
    **labels,
):
    """Declare one serving number: its Prometheus family and help text
    (constant ``labels``, or one sample per list element labeled
    ``per``), its fold rule and its zero value (copied per record, so
    no two records share a list)."""
    if family is not None:
        kind = "counter" if family.endswith("_total") else "gauge"
        family = (family, kind, help_text)
    return field(default_factory=lambda: copy(default), metadata={
        "family": family, "fold": fold, "per": per, "labels": labels,
    })


# Fold rules, ``rule(values, served)``: one field's values across the
# snapshots, and each snapshot's requests served.


def _sum(values, served):
    return sum(values)


def _max(values, served):
    return max(values)


def _served_mean(values, served):
    total = sum(served)
    return sum(v * n for v, n in zip(values, served)) / total if total else 0.0


def _elementwise(values, served):
    return [sum(column) for column in zip_longest(*values, fillvalue=0)]


def _tally(key: str, plural: str):
    """The breakdown rule. One value passes through, and a value every
    pool agrees on stays a plain scalar (a method name, a shard count).
    Otherwise the fold reports ``"mixed"`` with a per-value pool tally
    under ``plural``."""

    def fold(values, served):
        if len(values) == 1:
            return values[0]
        counts = dict(Counter(values))
        if len(counts) == 1:
            return values[0]
        return {key: "mixed", plural: counts}

    return fold


@dataclass
class ServerStats:
    """One matrix's serving counters: a pool's snapshot, or a fold of
    several by :func:`fold_stats`. A gateway aggregate over matrices
    that differ reports ``method`` and ``shards`` as ``"mixed"``
    breakdowns. ``max_queue_depth`` counts the request
    stashed between batches too; ``shard_updates`` is empty at
    ``shards=1``."""

    requests_submitted: int = _stat(
        "repro_requests_submitted_total",
        "Solve requests accepted by the matrix's server.", _sum,
    )
    requests_served: int = _stat(
        "repro_requests_served_total",
        "Solve requests completed successfully.", _sum,
    )
    requests_failed: int = _stat(
        "repro_requests_failed_total",
        "Solve requests that failed (crashed batch, drained queue).", _sum,
    )
    batches: int = _stat(
        "repro_batches_total",
        "Solve calls dispatched to the matrix's pool.", _sum,
    )
    batched_singles: int = _stat(
        "repro_batched_singles_total",
        "Single-RHS requests that rode a coalesced batch of size > 1.", _sum,
    )
    max_batch_size: int = _stat(
        "repro_max_batch_size",
        "Largest coalesced batch the matrix's pools ever ran.", _max,
    )
    max_queue_depth: int = _stat(
        "repro_max_queue_depth",
        "High-water mark of requests waiting on the matrix's queue.", _max,
    )
    latency_mean: float = _stat(
        "repro_latency_mean_seconds",
        "Mean request latency (submission to completion) in seconds.",
        _served_mean, default=0.0,
    )
    latency_max: float = _stat(
        "repro_latency_max_seconds",
        "Worst request latency in seconds.", _max, default=0.0,
    )
    spawn_count: int = _stat(
        "repro_pool_spawns_total",
        "Worker-pool spawns over the matrix's lifetime (>1 means respawn "
        "after a crash or eviction).", _sum,
    )
    method: str | dict = _stat(
        fold=_tally("method", "methods"), default="asyrgs"
    )
    shards: int | dict = _stat(
        "repro_matrix_shards",
        "Row-shard pools backing the matrix (1 = the classic single pool).",
        _tally("shards", "counts"), default=1,
    )
    shard_updates: list[int] = _stat(
        "repro_shard_updates_total",
        "Committed updates per row shard over the pools' lifetime.",
        _elementwise, default=[], per="shard",
    )

    @property
    def mean_batch_size(self) -> float:
        done = self.requests_served + self.requests_failed
        return done / self.batches if self.batches else float("nan")


def fold_stats(snapshots) -> ServerStats:
    """Fold :class:`ServerStats` snapshots into one, each field by its
    declared rule: one matrix's pool lifetimes, or a gateway's
    matrices. No snapshots fold to the zero record."""
    snapshots = list(snapshots)
    if not snapshots:
        return ServerStats()
    served = [s.requests_served for s in snapshots]
    return ServerStats(**{
        f.name: f.metadata["fold"](
            [getattr(s, f.name) for s in snapshots], served
        )
        for f in fields(ServerStats)
    })


_HITS = (
    "repro_cache_hits_total",
    "Warm-start cache hits by kind (exact fingerprint vs "
    "nearest-fingerprint).",
)
_STARTS = (
    "repro_cache_requests_total",
    "Served requests by start kind (warm = x0 seeded from the cache).",
)
_SWEEPS = (
    "repro_cache_sweeps_total",
    "Total solve sweeps by start kind — the warm-start savings signal "
    "(compare sweeps/request across the two series).",
)


@dataclass
class CacheStats:
    """The warm-start cache's counters (``SolutionCache.stats()`` is
    their ``asdict``); ``warm_*``/``cold_*`` account served requests by
    whether the cache seeded their ``x0``."""

    entries: int = _stat("repro_cache_entries", "Solutions currently cached.")
    max_entries: int = _stat()
    similarity: float = _stat(default=0.0)
    hits_exact: int = _stat(*_HITS, kind="exact")
    hits_near: int = _stat(*_HITS, kind="near")
    misses: int = _stat(
        "repro_cache_misses_total",
        "Warm-start cache lookups that found no seed (cold solves).",
    )
    stores: int = _stat(
        "repro_cache_stores_total",
        "Solutions written into the warm-start cache.",
    )
    evictions: int = _stat(
        "repro_cache_evictions_total",
        "Cache entries dropped by the LRU bound.",
    )
    invalidations: int = _stat(
        "repro_cache_invalidations_total",
        "Cache entries dropped by register/evict invalidation.",
    )
    warm_requests: int = _stat(*_STARTS, start="warm")
    warm_sweeps: int = _stat(*_SWEEPS, start="warm")
    cold_requests: int = _stat(*_STARTS, start="cold")
    cold_sweeps: int = _stat(*_SWEEPS, start="cold")


class _Families:
    """Accumulate samples per metric family, then render the families
    in first-touched order with one HELP/TYPE header each."""

    def __init__(self):
        self._families: dict[str, tuple[str, str, list]] = {}

    def add(self, name, kind, help_text, value, labels=None):
        family = self._families.setdefault(name, (kind, help_text, []))
        family[2].append((labels or {}, value))

    def render(self) -> str:
        lines = []
        for name, (kind, help_text, samples) in self._families.items():
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                if labels:
                    inner = ",".join(
                        f'{k}="{_escape_label(v)}"'
                        for k, v in labels.items()
                    )
                    lines.append(f"{name}{{{inner}}} {_format_value(value)}")
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _add_declared(out: _Families, cls, record: dict, labels: dict) -> None:
    """Every declared family of ``cls``, valued from ``record`` (an
    ``asdict`` snapshot of it) and labeled with ``labels``."""
    for f in fields(cls):
        meta = f.metadata
        family = meta["family"]
        if family is None:
            continue
        if meta["per"] is None:
            out.add(*family, record[f.name], {**labels, **meta["labels"]})
        else:
            for i, item in enumerate(record[f.name]):
                out.add(*family, item, {**labels, meta["per"]: str(i)})


def render_metrics(registry) -> str:
    """Render one Prometheus text snapshot of a
    :class:`~repro.serve.MatrixRegistry`: the gateway gauges, the
    per-matrix series, and the ``repro_cache_*`` families whenever
    warm-start caching is enabled."""
    out = _Families()
    matrices = registry.stats_payload()["matrices"]
    out.add(
        "repro_matrices_registered", "gauge",
        "Matrices registered with the gateway.",
        len(matrices),
    )
    out.add(
        "repro_live_pools", "gauge",
        "Matrices whose worker pool is currently live (spawned, "
        "not evicted).",
        len(registry.live_pools()),
    )
    for name, stats in matrices.items():
        _add_declared(out, ServerStats, stats, {"matrix": name})
        out.add(
            "repro_matrix_info", "gauge",
            "Constant 1; the matrix's update method rides as a label.",
            1,
            {"matrix": name, "method": stats["method"]},
        )
    cache_stats = registry.cache_stats()
    if cache_stats is not None:
        _add_declared(out, CacheStats, cache_stats, {})
    return out.render()

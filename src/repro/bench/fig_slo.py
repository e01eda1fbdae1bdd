"""Benchmark: the serving load driver. Every serving experiment sends its
traffic as JSON lines through :func:`~repro.serve.frontend.handle_line`
on a :class:`~repro.serve.MatrixRegistry` — the path the wire front
doors and ``perfbench/`` take — so parsing, routing, batching and
encoding are all in the measured path.

One round runner, :func:`_round`, submits a schedule of ``(arrival,
rhs)`` pairs **open-loop**: each request at its arrival time, never
waiting on a completion. Three experiments drive it:

* ``repro experiment slo`` (:func:`run_slo`) ramps an open-loop arrival
  rate geometrically and records p50/p99 latency per rate; the **max
  sustainable rate** is the highest rate whose p99 stays under the
  target. A closed-loop generator self-throttles exactly when the
  server saturates, so it cannot see saturation at all (see the
  coordinated-omission literature). Persisted to
  ``results/BENCH_serve.json``, which CI gates on (a >30% regression of
  ``max_sustainable_rps`` against the committed baseline).
* ``repro experiment slo --cache`` (:func:`run_slo_cache`) replays one
  bursty near-duplicate schedule with warm-start caching on and off and
  compares **mean solve sweeps per request**: identical schedules and
  rhs sequence, so the convergence bound's ``‖x⁰ − x*‖`` scaling shows
  up directly as fewer sweeps. Persisted to
  ``results/BENCH_serve_cache.json``.
* ``repro experiment serve`` (:func:`run_serve`) replays the paper's
  Section 9 label block as a burst of single-RHS requests: one-shot
  solvers (a pool spawned per request) against a registry at
  ``max_batch=1`` (pool reuse alone) and at ``max_batch=m`` (one row
  gather serving the whole batch). A capacity check then sends a
  ``k=1`` request and the full block to one pool, which must serve both
  with one spawn.

The SLO drivers calibrate themselves against a probe solve, so the same
code exercises a laptop and a loaded CI box without hand-tuned rates.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from ..exceptions import ServeError
from ..execution import available_cpus, make_solver
from ..rng import DirectionStream
from ..serve import MatrixRegistry, handle_line
from ..workloads import get_problem
from .reporting import render_table, save_json

__all__ = [
    "SLOCacheResult",
    "SLOResult",
    "ServeBenchResult",
    "run_serve",
    "run_slo",
    "run_slo_cache",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else float("nan")


@dataclass
class _Rows:
    """Rows → table and payload, shared by every result type.

    A subclass declares its columns once, as ``(table header, payload
    key)`` pairs, the payload key of the row list and the headline
    properties, and renders its table ``title()``; ``rows_data`` holds
    one list per row in column order. The payload is every dataclass
    field, the rows as one dict each, and the headlines.
    """

    COLUMNS: ClassVar[tuple] = ()
    ROWS_KEY: ClassVar[str] = "rows"
    HEADLINES: ClassVar[tuple] = ()

    problem: str
    n: int
    nproc: int
    cpus: int
    tol: float
    max_sweeps: int

    def rows(self):
        return [list(r) for r in self.rows_data]

    def _cell(self, column: int, *key):
        """Entry ``column`` of the first row starting with ``key``."""
        for r in self.rows_data:
            if tuple(r[:len(key)]) == key:
                return r[column]
        return float("nan")

    def table(self) -> str:
        headers = [header for header, _ in self.COLUMNS]
        return render_table(headers, self.rows(), title=self.title())

    def payload(self) -> dict:
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "rows_data"
        }
        keys = [key for _, key in self.COLUMNS]
        out[self.ROWS_KEY] = [dict(zip(keys, r)) for r in self.rows_data]
        out.update((name, getattr(self, name)) for name in self.HEADLINES)
        return out


@dataclass
class SLOResult(_Rows):
    """Open-loop ramp measurements: one row per offered rate.
    ``max_sustainable_rps`` is the highest offered rate whose p99
    stayed under ``target_p99`` (0 when even the first rate breached).
    """

    COLUMNS: ClassVar[tuple] = (
        ("offered req/s", "offered_rps"), ("requests", "requests"),
        ("achieved req/s", "achieved_rps"), ("p50 [s]", "p50"),
        ("p99 [s]", "p99"), ("within SLO", "within_slo"),
    )
    ROWS_KEY: ClassVar[str] = "rates"
    HEADLINES: ClassVar[tuple] = ("max_sustainable_rps",)

    target_p99: float
    probe_latency: float
    duration: float
    rows_data: list = field(default_factory=list)
    all_ok: bool = True

    @property
    def max_sustainable_rps(self) -> float:
        return max((r[0] for r in self.rows_data if r[5]), default=0.0)

    def title(self) -> str:
        rate = f"{self.max_sustainable_rps:.1f} req/s"
        if all(r[5] for r in self.rows_data):
            # The ramp ran out of rates before the server breached: the
            # top of the grid is a floor, not a maximum.
            rate = f"≥ {rate} (no offered rate breached)"
        return (
            f"SLO load harness — {self.problem} (n={self.n}), open-loop "
            f"ramp on {self.nproc} worker(s), {self.cpus} CPU(s), "
            f"p99 target {1e3 * self.target_p99:.1f} ms (probe solve "
            f"{1e3 * self.probe_latency:.1f} ms); max sustainable rate "
            f"{rate}"
        )


@dataclass
class SLOCacheResult(_Rows):
    """Warm-start savings on one bursty schedule: one row per mode.
    ``sweeps_savings`` is the cache-off mean sweeps over the cache-on
    mean — > 1 means warm starts saved iterations on identical traffic.
    """

    COLUMNS: ClassVar[tuple] = (
        ("mode", "mode"), ("requests", "requests"),
        ("mean sweeps", "mean_sweeps"), ("total sweeps", "total_sweeps"),
        ("warm starts", "warm_requests"), ("cache hits", "cache_hits"),
        ("p50 [s]", "p50"), ("p99 [s]", "p99"),
    )
    ROWS_KEY: ClassVar[str] = "modes"
    HEADLINES: ClassVar[tuple] = ("sweeps_savings",)

    sync_every_sweeps: int
    bases: int
    repeats: int
    perturbation: float
    rows_data: list = field(default_factory=list)
    all_ok: bool = True

    @property
    def sweeps_savings(self) -> float:
        return _ratio(self._cell(2, "cache-off"), self._cell(2, "cache-on"))

    def title(self) -> str:
        return (
            f"Warm-start caching — {self.problem} (n={self.n}), "
            f"{self.bases} base rhs × {self.repeats} bursty "
            f"repeats/perturbations (ε={self.perturbation:g}) on "
            f"{self.nproc} worker(s), {self.cpus} CPU(s), identical "
            f"arrival schedules; cache-off mean sweeps is "
            f"{self.sweeps_savings:.2f}x cache-on"
        )


@dataclass
class ServeBenchResult(_Rows):
    """Batched-vs-one-shot throughput: one row per regime, the one-shot
    baseline first. ``batched_speedup`` is the best batched regime's
    throughput over the one-shot baseline's.
    """

    COLUMNS: ClassVar[tuple] = (
        ("configuration", "configuration"), ("wall [s]", "wall"),
        ("req/s", "rps"), ("batches", "batches"), ("pool spawns", "spawns"),
        ("mean lat [s]", "latency_mean"), ("max lat [s]", "latency_max"),
    )
    ROWS_KEY: ClassVar[str] = "regimes"
    HEADLINES: ClassVar[tuple] = ("oneshot_rps", "batched_speedup")

    requests: int
    batch_sizes: tuple
    oneshot_wall: float
    rows_data: list = field(default_factory=list)
    all_converged: bool = True
    capacity_spawns: int = 0

    @property
    def oneshot_rps(self) -> float:
        return _ratio(self.requests, self.oneshot_wall)

    @property
    def batched_speedup(self) -> float:
        """Best *genuinely batched* throughput (max_batch > 1) over the
        one-shot baseline — the max_batch=1 regime is excluded so pool
        reuse alone cannot win the headline batching claim."""
        batched = [
            r[2] for r in self.rows_data[1:]
            if not str(r[0]).endswith("max_batch=1")
        ]
        return _ratio(max(batched, default=float("nan")), self.oneshot_rps)

    def title(self) -> str:
        return (
            f"Solver serving — {self.problem} (n={self.n}), "
            f"{self.requests} single-RHS requests to tol={self.tol:g} on "
            f"{self.nproc} worker(s), {self.cpus} CPU(s); best batched "
            f"throughput {self.batched_speedup:.2f}x one-shot; capacity-k "
            f"pool served k=1 and k={self.requests} with "
            f"{self.capacity_spawns} spawn(s)"
        )


@contextmanager
def _serving(problem: str, A, **options):
    """A registry holding ``A`` as ``problem``, closed on exit."""
    with MatrixRegistry(**options) as registry:
        registry.register(problem, A)
        yield registry


def _round(registry, schedule):
    """Send one round of solve requests through :func:`handle_line`.

    ``schedule`` is a list of ``(arrival seconds, rhs)`` pairs; a rhs
    may be a vector or an ``(n, k)`` block. The round is open-loop:
    each request is submitted at its arrival time and every response
    resolved at the end. Lines are encoded before the clock starts, so the
    generator's own encoding never delays an arrival. Returns the
    parsed responses in submission order and the round's wall time.
    """
    lines = [
        json.dumps({"id": f"req-{i}", "b": b.tolist()})
        for i, (_, b) in enumerate(schedule)
    ]
    replies = []
    t0 = time.perf_counter()
    for (arrival, _), line in zip(schedule, lines):
        delay = arrival - (time.perf_counter() - t0)
        if delay > 0:
            time.sleep(delay)
        replies.append(handle_line(registry, line))
    texts = [reply() for reply in replies]
    wall = time.perf_counter() - t0
    return [json.loads(text) for text in texts], wall


def _latencies(responses) -> np.ndarray:
    return np.array([r["latency_s"] for r in responses if r.get("ok")])


def _converged(responses) -> bool:
    return all(r.get("ok") and r["converged"] for r in responses)


def _probe(registry, rng, n, rounds: int = 3) -> float:
    """Median solo-solve latency — the self-calibration anchor for the
    rate ramp and the p99 target."""
    walls = []
    for _ in range(rounds):
        b = rng.standard_normal(n)
        start = time.perf_counter()
        registry.solve(b, timeout=600.0)
        walls.append(time.perf_counter() - start)
    return float(np.median(walls))


def run_slo(
    problem: str = "social-small",
    *,
    nproc: int = 2,
    capacity_k: int = 8,
    target_p99: float | None = None,
    rates: tuple | None = None,
    ramp_steps: int = 6,
    duration: float = 2.0,
    min_requests: int = 10,
    max_requests: int = 200,
    tol: float = 1e-2,
    max_sweeps: int = 800,
    sync_every_sweeps: int = 10,
    seed: int = 0,
    persist: bool = True,
) -> SLOResult:
    """Ramp an open-loop arrival rate until p99 breaches the target.

    Each rate offers ``duration`` seconds of fixed-interval arrivals
    (at least ``min_requests``, at most ``max_requests``).
    ``target_p99`` defaults to 10× the probe solve's latency (a server
    keeping p99 within an order of magnitude of a solo solve is
    coalescing, not collapsing); ``rates`` defaults to a geometric ramp
    from half the probe's service rate. The ramp stops at the first
    breach.
    """
    A = get_problem(problem).A
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    with _serving(
        problem, A, nproc=nproc, capacity_k=capacity_k, tol=tol,
        max_sweeps=max_sweeps, sync_every_sweeps=sync_every_sweeps,
        seed=seed,
    ) as registry:
        probe = _probe(registry, rng, n)
        if target_p99 is None:
            target_p99 = 10.0 * probe
        if rates is None:
            base = 0.5 / max(probe, 1e-6)
            rates = tuple(base * 2.0**i for i in range(int(ramp_steps)))
        out = SLOResult(
            problem=problem, n=n, nproc=int(nproc), cpus=available_cpus(),
            tol=float(tol), max_sweeps=int(max_sweeps),
            target_p99=float(target_p99), probe_latency=probe,
            duration=float(duration),
        )
        for rate in rates:
            count = int(np.clip(round(rate * duration), min_requests,
                                max_requests))
            schedule = [
                (i / rate, rng.standard_normal(n)) for i in range(count)
            ]
            responses, wall = _round(registry, schedule)
            out.all_ok &= all(r.get("ok") for r in responses)
            lats = _latencies(responses)
            if lats.size == 0:
                raise ServeError(
                    f"SLO round at {rate:g} req/s produced no successful "
                    "responses"
                )
            p50 = float(np.percentile(lats, 50))
            p99 = float(np.percentile(lats, 99))
            within = p99 <= out.target_p99
            out.rows_data.append(
                [float(rate), count, _ratio(count, wall), p50, p99, within]
            )
            if not within:
                break  # saturation found; higher rates only queue deeper
    if persist:
        save_json("BENCH_serve", out.payload())
    return out


def _bursty_schedule(rng, n, *, bases, repeats, perturbation, gap):
    """The near-duplicate workload: ``bases`` distinct right-hand
    sides, then ``repeats`` bursts, each revisiting every base as an
    exact repeat or a small relative perturbation. One burst per
    ``gap`` seconds — enough headroom for the previous burst's
    solutions to land in the cache, which is the regime the cache is
    for (a re-arrival *before* its twin completes is the dedupe
    scenario, covered by the simtest suite instead)."""
    base_vectors = [rng.standard_normal(n) for _ in range(bases)]
    # Burst 0: everything is cold.
    schedule = [(0.0, b.copy()) for b in base_vectors]
    for r in range(1, repeats + 1):
        when = r * gap
        for j, b in enumerate(base_vectors):
            if (r + j) % 2 == 0:
                schedule.append((when, b.copy()))  # exact repeat
            else:
                noise = rng.standard_normal(n)
                noise *= perturbation * np.linalg.norm(b) / np.linalg.norm(noise)
                schedule.append((when, b + noise))
    return schedule


def run_slo_cache(
    problem: str = "social-small",
    *,
    nproc: int = 2,
    capacity_k: int = 8,
    bases: int = 4,
    repeats: int = 5,
    perturbation: float = 0.005,
    cache_similarity: float = 0.05,
    tol: float = 1e-2,
    max_sweeps: int = 800,
    sync_every_sweeps: int = 2,
    seed: int = 0,
    persist: bool = True,
) -> SLOCacheResult:
    """Warm-start savings: the same bursty schedule, cache on vs. off.

    The workload is the cache's home turf — a few base right-hand
    sides arriving as bursts of exact repeats and ε-perturbations.
    Both modes replay the byte-identical rhs sequence on the same
    arrival schedule; the comparison is mean solve sweeps per request,
    the hardware-independent number the convergence bound actually
    predicts (``sync_every_sweeps`` is kept small so retirement
    resolves sweep savings finely).
    """
    A = get_problem(problem).A
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    probe_rng = np.random.default_rng(seed + 1)
    out = SLOCacheResult(
        problem=problem, n=n, nproc=int(nproc), cpus=available_cpus(),
        tol=float(tol), max_sweeps=int(max_sweeps),
        sync_every_sweeps=int(sync_every_sweeps), bases=int(bases),
        repeats=int(repeats), perturbation=float(perturbation),
    )
    schedule = None
    for mode in ("cache-off", "cache-on"):
        with _serving(
            problem, A, nproc=nproc, capacity_k=capacity_k, tol=tol,
            max_sweeps=max_sweeps, sync_every_sweeps=sync_every_sweeps,
            cache_solutions=(mode == "cache-on"),
            cache_similarity=cache_similarity, seed=seed,
        ) as registry:
            if schedule is None:
                # Calibrate the burst gap once, against the cold mode's
                # pool, and reuse the identical schedule for both modes.
                gap = 3.0 * bases * _probe(registry, probe_rng, n)
                schedule = _bursty_schedule(
                    rng, n, bases=int(bases), repeats=int(repeats),
                    perturbation=float(perturbation), gap=gap,
                )
            responses, _ = _round(registry, schedule)
            cache_stats = registry.cache_stats()
        out.all_ok &= all(r.get("ok") for r in responses)
        sweeps = np.array(
            [r["sweeps"] for r in responses if r.get("ok")], dtype=float
        )
        lats = _latencies(responses)
        warm = hits = 0
        if cache_stats is not None:
            warm = cache_stats["warm_requests"]
            hits = cache_stats["hits_exact"] + cache_stats["hits_near"]
        out.rows_data.append(
            [mode, len(schedule), float(sweeps.mean()),
             int(sweeps.sum()), warm, hits,
             float(np.percentile(lats, 50)), float(np.percentile(lats, 99))]
        )
    if persist:
        save_json("BENCH_serve_cache", out.payload())
    return out


def _label_burst(problem: str, labels: int | None):
    """The problem's matrix, its label block (``labels`` columns, the
    native block, or the lone rhs as one column) and that block as a
    zero-gap schedule of single-RHS requests."""
    prob = get_problem(problem)
    if labels is not None:
        B = prob.rhs_block(labels)
    else:
        B = prob.B if prob.B is not None else prob.b[:, None]
    return prob.A, B, [(0.0, B[:, j].copy()) for j in range(B.shape[1])]


def run_serve(
    problem: str = "social-labels",
    *,
    nproc: int = 2,
    labels: int | None = None,
    batch_sizes: tuple = (1, 8, 51),
    tol: float = 1e-3,
    max_sweeps: int = 600,
    sync_every_sweeps: int = 10,
    seed: int = 0,
    persist: bool = True,
) -> ServeBenchResult:
    """Measure serving throughput: batched vs unbatched vs one-shot.

    Every regime answers the same burst of single-RHS label requests to
    the same per-request tolerance; only the pool lifecycle and the
    batch cap differ.
    """
    A, B, burst = _label_burst(problem, labels)
    n, k = B.shape
    # Clamp to the request count and dedupe (51 and 8 both collapse to
    # k on a small problem; measuring the same regime twice is noise).
    batch_sizes = tuple(dict.fromkeys(min(int(m), k) for m in batch_sizes))
    options = dict(nproc=nproc, tol=tol, max_sweeps=max_sweeps,
                   sync_every_sweeps=sync_every_sweeps, seed=seed)

    # One-shot baseline: a fresh solver (thread start + buffer setup) per
    # request.
    start = time.perf_counter()
    converged, spawns = True, 0
    for _, b in burst:
        solver = make_solver("asyrgs", A, b, nproc=nproc,
                             directions=DirectionStream(n, seed=seed))
        converged &= solver.solve(
            tol=tol, max_sweeps=max_sweeps, sync_every_sweeps=sync_every_sweeps
        ).converged
        spawns += solver.spawn_count
    oneshot_wall = time.perf_counter() - start

    out = ServeBenchResult(
        problem=problem, n=n, nproc=int(nproc), cpus=available_cpus(),
        tol=float(tol), max_sweeps=int(max_sweeps), requests=k,
        batch_sizes=batch_sizes, oneshot_wall=oneshot_wall,
        all_converged=converged,
    )
    out.rows_data.append(
        ["one-shot (pool per request)", oneshot_wall, out.oneshot_rps,
         k, spawns, oneshot_wall / k, float("nan")]
    )
    for m in batch_sizes:
        with _serving(problem, A, capacity_k=max(batch_sizes), max_batch=m,
                      **options) as registry:
            responses, wall = _round(registry, burst)
            stats = registry.stats()
        out.all_converged &= _converged(responses)
        out.rows_data.append(
            [f"server, max_batch={m}", wall, _ratio(k, wall), stats.batches,
             stats.spawn_count, stats.latency_mean, stats.latency_max]
        )

    # Capacity-k check: one pool serves a k=1 request and the full
    # k-label block with zero respawns.
    with _serving(problem, A, capacity_k=k, **options) as registry:
        _round(registry, burst[:1])
        _round(registry, [(0.0, B)])
        stats = registry.stats()
    out.capacity_spawns = stats.spawn_count

    if persist:
        save_json("fig_serve", out.payload())
    return out

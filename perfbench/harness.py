"""Closed-loop client, correctness oracle and exact counts.

The client drives a :class:`repro.serve.MatrixRegistry` in-process
through :func:`repro.serve.frontend.handle_line`, the submission path
the stdin, TCP and HTTP transports share. It sends one burst of
pre-encoded lines back to back, then waits for every response of the
burst before sending the next (a closed loop with one client).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from workloads import CHUNKS, Inputs, Request, Spec

MATRIX_ID = "bench"

#: Linger window of the batcher. A full burst closes its batch at
#: capacity without waiting, so the window only bounds how long a
#: partial burst could wait; it is wide enough that parsing a burst of
#: long lines never splits it across two batches.
LINGER_S = 0.05


def make_registry(spec: Spec, A):
    """The served system: one matrix on one single-worker pool.

    ``nproc=1`` keeps the work bit-deterministic: sweeps, updates,
    epochs, batch sizes and cache hits repeat exactly from run to run.
    """
    from repro.serve import MatrixRegistry

    registry = MatrixRegistry(
        nproc=1,
        max_live_pools=1,
        cache_solutions=spec.cache,
        capacity_k=spec.capacity_k,
        tol=spec.tol,
        max_sweeps=spec.max_sweeps,
        sync_every_sweeps=spec.sync_every,
        max_wait=LINGER_S,
        seed=0,
    )
    registry.register(MATRIX_ID, A, method=spec.method)
    return registry


@dataclass
class Sample:
    """One answered request as the client saw it."""

    request: Request
    response: dict
    latency: float
    bytes_out: int
    burst: int


@dataclass
class Loop:
    """Result of driving one list of bursts: the samples in send order
    and each burst's ``(start, end)`` on ``perf_counter``'s clock (first
    send to last parsed response). On Linux that clock is the monotonic
    clock every process shares, so the driver can line its reference
    samples up with the bursts."""

    samples: list[Sample] = field(default_factory=list)
    bursts: list[tuple[float, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return float(sum(end - start for start, end in self.bursts))


def drive(registry, bursts: list[list[Request]], recorder=None,
          first_burst: int = 0) -> Loop:
    """Send every burst, wait for its responses, time each request from
    its ``handle_line`` call to its parsed response."""
    from repro.serve import frontend

    loop = Loop()
    spans = recorder is not None and recorder.enabled
    for i, burst in enumerate(bursts, start=first_burst):
        if recorder is not None:
            recorder.burst = f"b{i}"
        started = perf_counter()
        pending = []
        for req in burst:
            span = recorder.open("request", req.trace_id) if spans else None
            if spans:
                recorder.enter(span)
            t0 = perf_counter()
            resolve = frontend.handle_line(registry, req.line)
            if spans:
                recorder.leave()
            pending.append((req, t0, resolve, span))
        for req, t0, resolve, span in pending:
            if spans:
                recorder.enter(span)
            text = resolve()
            response = json.loads(text)
            t1 = perf_counter()
            if spans:
                recorder.leave()
                span.start = t0
                recorder.close(span, t1)
            loop.samples.append(
                Sample(req, response, t1 - t0, len(text.encode()), i)
            )
        loop.bursts.append((started, t1))
    return loop


# -- correctness ---------------------------------------------------------


def scipy_matrix(A):
    """A scipy copy of the repository's CSR matrix for the oracle."""
    import scipy.sparse as sp

    return sp.csr_matrix(
        (np.asarray(A.data), np.asarray(A.indices), np.asarray(A.indptr)),
        shape=A.shape,
    )


def columns(req: Request) -> int:
    return 1 if req.b.ndim == 1 else int(req.b.shape[1])


def check(spec: Spec, S, AT, sample: Sample) -> bool:
    """The client-side oracle: the response is ``ok`` and converged,
    ``x`` has the right shape, and every column's relative residual
    (normal-equations residual for least squares) is at most the
    request's tolerance."""
    resp, req = sample.response, sample.request
    if not resp.get("ok") or not resp.get("converged"):
        return False
    x = np.asarray(resp.get("x"), dtype=np.float64)
    shape = (S.shape[1],) + req.b.shape[1:]
    if x.shape != shape or not np.all(np.isfinite(x)):
        return False
    B = req.b.reshape(S.shape[0], -1)
    R = B - S @ x.reshape(S.shape[1], -1)
    if spec.method == "asyrk":
        num = np.linalg.norm(AT @ R, axis=0)
        den = np.linalg.norm(AT @ B, axis=0)
    else:
        num = np.linalg.norm(R, axis=0)
        den = np.linalg.norm(B, axis=0)
    rel = np.where(den > 0, num / np.where(den > 0, den, 1.0), num)
    return bool(np.all(rel <= req.tol))


def oracle(inputs: Inputs, samples: list[Sample]) -> list[bool]:
    """Whether each sample passed :func:`check`."""
    S = scipy_matrix(inputs.A)
    AT = S.T.tocsr()
    return [check(inputs.spec, S, AT, s) for s in samples]


# -- exact counts --------------------------------------------------------


def request_sweeps(sample: Sample) -> int:
    """Sweeps charged to a request's right-hand sides: its retirement
    epoch for a single, the sum of its columns' epochs for a block."""
    resp = sample.response
    if "column_sweeps" in resp:
        return int(sum(resp["column_sweeps"]))
    return int(resp.get("sweeps", 0))


def counts(samples: list[Sample], solves, registry) -> dict:
    """The run's exact counts. A run whose counts differ from another
    run of the same seed saw a raced batch composition or schedule."""
    sizes: dict[str, int] = {}
    for s in samples:
        key = str(s.response.get("batch_size"))
        sizes[key] = sizes.get(key, 0) + 1
    stats = registry.stats()
    cache = registry.cache_stats() or {}
    return {
        "requests": len(samples),
        "sweeps": sum(request_sweeps(s) for s in samples),
        "updates": sum(c.updates for c in solves),
        "epochs": sum(c.epochs for c in solves),
        "column_updates": sum(c.column_updates for c in solves),
        "batches": stats.batches,
        "batch_sizes": dict(sorted(sizes.items())),
        "cache_hits": cache.get("hits_exact", 0) + cache.get("hits_near", 0),
        "cache_misses": cache.get("misses", 0),
        "pool_spawns": stats.spawn_count,
    }


# -- statistics ----------------------------------------------------------

#: A chunk percentile needs at least this many samples; with fewer, the
#: percentile is taken over the whole run instead.
MIN_CHUNK_SAMPLES = 10


def percentile(values, q: float) -> tuple[float, int]:
    """The ``q``-th percentile (linear interpolation) and its sample
    count."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(arr, q)), int(arr.size)


def chunks(loop: Loop, passed: list[bool]) -> list[dict]:
    """The timed bursts cut into at most ``CHUNKS`` runs of consecutive
    bursts. Each chunk lists its bursts as ``(start, end, latencies)``
    and counts the right-hand-side columns it answered correctly.

    Each timing metric is the median of its per-chunk values (see
    :func:`reduce`). The machine's speed wanders over seconds; a median
    over chunks follows the typical speed of the run, where a total
    over the run follows how many slow seconds it happened to catch.
    """
    first = loop.samples[0].burst if loop.samples else 0
    per_burst: list[list[tuple[Sample, bool]]] = [[] for _ in loop.bursts]
    for s, ok in zip(loop.samples, passed):
        per_burst[s.burst - first].append((s, ok))
    groups = np.array_split(np.arange(len(per_burst)),
                            min(CHUNKS, len(per_burst)))
    return [
        {
            "bursts": [
                (*loop.bursts[i], [s.latency for s, _ in per_burst[i]])
                for i in g
            ],
            "columns_ok": sum(
                columns(s.request) for i in g for s, ok in per_burst[i] if ok
            ),
        }
        for g in groups
    ]


def reduce(parts: list[dict], factor) -> dict:
    """The timing metrics from :func:`chunks`. Every burst's wall time
    and latencies are scaled by ``factor(start, end)`` (the speed factor
    of ``reference.Sampler``; ``lambda t0, t1: 1.0`` for raw values).
    Then: right-hand-side columns answered correctly per second, and the
    request latency percentiles, each a median over chunks. A chunk
    percentile needs ``MIN_CHUNK_SAMPLES``; with fewer, the percentile
    is taken over the whole run's scaled latencies."""
    scaled = []
    for part in parts:
        walls, latencies = 0.0, []
        for t0, t1, times in part["bursts"]:
            f = factor(t0, t1)
            walls += (t1 - t0) * f
            latencies += [t * f for t in times]
        scaled.append((part["columns_ok"] / walls, latencies))
    out = {"rhs_per_s": float(np.median([rate for rate, _ in scaled]))}
    per_chunk = min(len(lat) for _, lat in scaled) >= MIN_CHUNK_SAMPLES
    for q, name in ((50, "latency_p50_s"), (90, "latency_p90_s")):
        if per_chunk:
            out[name] = float(np.median(
                [percentile(lat, q)[0] for _, lat in scaled]
            ))
        else:
            out[name] = percentile(
                [t for _, lat in scaled for t in lat], q
            )[0]
    return out

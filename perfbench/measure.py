"""One measured run of one workload, in its own process.

Run by ``run.py``, never directly: the process is the serving parent
whose peak RSS (plus its pool workers') is reported, so it must hold
nothing but the client, the registry and the generated inputs.

Prints one JSON object as its last line: the run's exact counts, its
request totals, its metrics (peak RSS without ``--trace``, the per-layer
metrics with it) and the timed chunks from which the driver computes
the timing metrics at reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import numpy as np

import harness
import probes
import workloads
from spans import Instrumented, Recorder, durations, self_times


class Phase:
    """One registry lifetime: warm-up bursts, then the timed bursts."""

    def __init__(self, inputs: workloads.Inputs, traced: bool):
        self.recorder = Recorder(spans=traced)
        with Instrumented(self.recorder):
            registry = harness.make_registry(inputs.spec, inputs.A)
            try:
                warm = harness.drive(registry, inputs.warmup, self.recorder)
                self.warm_solves = list(self.recorder.solves)
                self.recorder.solves.clear()
                self.recorder.spans.clear()
                cache_before = registry.cache_stats() or {}
                self.loop = harness.drive(
                    registry, inputs.bursts, self.recorder,
                    first_burst=len(inputs.warmup),
                )
                cache_after = registry.cache_stats() or {}
                self.counts = harness.counts(
                    warm.samples + self.loop.samples,
                    self.warm_solves + self.recorder.solves,
                    registry,
                )
                self.spawns = registry.stats().spawn_count
            finally:
                registry.close()
        self.samples = warm.samples + self.loop.samples
        passed = harness.oracle(inputs, self.samples)
        self.failed = passed.count(False)
        self.chunks = harness.chunks(self.loop, passed[len(warm.samples):])
        self.cache_delta = {
            key: cache_after.get(key, 0) - cache_before.get(key, 0)
            for key in ("hits_exact", "hits_near", "misses")
        }


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """Peak RSS; the timing metrics are reduced from the chunks by the
    driver, which holds the reference samples."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (
        {"peak_rss_mb": (own + workers) / 1024.0},
        {"latency_samples": len(phase.loop.samples),
         "timed_wall_s": phase.loop.wall,
         "peak_rss_mb_parts": [own / 1024.0, workers / 1024.0]},
    )


def _p50(spans) -> float:
    values = durations(spans)
    return float(np.median(values)) if values.size else 0.0


def per_layer(inputs: workloads.Inputs, plain: Phase, traced: Phase,
              seed: int) -> tuple[dict, dict]:
    from repro.execution import segment_bytes

    spec = inputs.spec
    rec = traced.recorder
    samples = traced.loop.samples
    rhs = sum(harness.columns(s.request) for s in samples)
    solve_spans = rec.by_name("pool.solve")
    solve_by_burst: dict[str, float] = {}
    for span in solve_spans:
        solve_by_burst[span.trace] = solve_by_burst.get(span.trace, 0.0) + span.duration
    solves = rec.solves
    reached_pool = {c.burst for c in solves if c.epochs > 0}
    solve_total = float(durations(solve_spans).sum())
    check_total = float(durations(rec.by_name("residual.check")).sum())
    lookups = sum(traced.cache_delta.values())
    hits = traced.cache_delta["hits_exact"] + traced.cache_delta["hits_near"]

    # The probes run at the width of one timed batch: the whole label
    # block, or one burst of singles stacked side by side.
    probe_B = np.column_stack([r.b for r in inputs.bursts[0]])
    width = probe_B.shape[1]
    kernel = probes.kernel_probe(spec, inputs.A, probe_B)
    S = harness.scipy_matrix(inputs.A)
    scipy_ns = probes.scipy_probe(S, width, seed)
    bytes_u, flops_u = probes.computed_per_update(
        spec.method, kernel["row_nnz_per_update"], width
    )
    m, n = inputs.A.shape
    metrics = {
        "protocol.parse_s_p50": _p50(rec.by_name("protocol.parse")),
        "protocol.encode_s_p50": _p50(rec.by_name("protocol.encode")),
        "protocol.bytes_in_per_rhs":
            sum(len(s.request.line.encode()) for s in samples) / rhs,
        "protocol.bytes_out_per_rhs": sum(s.bytes_out for s in samples) / rhs,
        "serve.submit_s_p50": _p50(rec.by_name("serve.submit")),
        "serve.overhead_s_p50": float(np.median([
            s.latency - solve_by_burst.get(f"b{s.burst}", 0.0) for s in samples
        ])),
        "serve.batch_size_mean": len(samples) / len(solves),
        "serve.batches": len(solves),
        "cache.lookup_s_p50": _p50(rec.by_name("cache.lookup")),
        "cache.store_s_p50": _p50(rec.by_name("cache.store")),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.pool_share":
            sum(f"b{s.burst}" in reached_pool for s in samples) / len(samples),
        "pool.solve_s_p50": _p50(solve_spans),
        "pool.worker_share": sum(c.wall_time for c in solves) / solve_total,
        "pool.epochs_per_batch": sum(c.epochs for c in solves) / len(solves),
        "pool.epoch_fixed_s": kernel["epoch_fixed_s"],
        "pool.spawns": traced.spawns,
        "pool.segment_bytes": segment_bytes(
            n_rows=m, x_rows=n, b_rows=m, nnz=inputs.A.nnz,
            capacity_k=spec.capacity_k, nproc=1,
        ),
        "kernel.ns_per_update": kernel["ns_per_update"],
        "kernel.row_nnz_per_update": kernel["row_nnz_per_update"],
        "kernel.bytes_per_update": bytes_u,
        "kernel.flops_per_update": flops_u,
        "ref.scipy_ns_per_row": scipy_ns,
        "kernel.x_scipy": kernel["ns_per_update"] / scipy_ns,
        "residual.check_s_p50": _p50(rec.by_name("residual.check")),
        "residual.share": check_total / solve_total,
        "solver.sweeps_per_rhs":
            sum(harness.request_sweeps(s) for s in samples) / rhs,
        "solver.column_updates_per_rhs":
            sum(c.column_updates for c in solves) / rhs,
    }
    own = self_times(rec.spans)
    self_s: dict[str, float] = {}
    for span in rec.spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
    detail = {
        "self_time_s": self_s,
        "span_counts": {
            name: len(rec.by_name(name)) for name in sorted(self_s)
        },
        "probe": kernel,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--matrix-out", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    # A traced run serves its inputs twice (untraced, then traced), so
    # each half gets half the bursts and the run lasts about as long.
    seconds = args.seconds / 2 if args.trace else args.seconds
    inputs = workloads.generate(args.workload, args.seed, seconds)
    A = inputs.A
    np.savez(args.matrix_out, shape=np.array(A.shape), indptr=A.indptr,
             indices=A.indices, data=A.data)

    plain = Phase(inputs, traced=False)
    result = {
        "attempted": len(plain.samples),
        "failed": plain.failed,
        "counts": plain.counts,
        "chunks": {"plain": plain.chunks},
    }
    if args.trace:
        traced = Phase(inputs, traced=True)
        traced.recorder.write(args.spans_out)
        metrics, detail = per_layer(inputs, plain, traced, args.seed)
        result["attempted"] += len(traced.samples)
        result["failed"] += traced.failed
        result["traced_counts"] = traced.counts
        result["chunks"]["traced"] = traced.chunks
    else:
        metrics, detail = end_to_end(plain)
    result["metrics"] = metrics
    result["detail"] = detail
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

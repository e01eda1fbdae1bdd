"""Metric names and units; BENCHMARK.json lists the same names.

End-to-end metrics come from untraced runs (``--trace 0``), per-layer
metrics from traced runs (``--trace 1``). ``design.json`` says which
end-to-end metric each layer metric should move, on which workload.
"""

END_TO_END = {
    "rhs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "protocol.parse_s_p50": "s",
    "protocol.encode_s_p50": "s",
    "protocol.bytes_in_per_rhs": "B",
    "protocol.bytes_out_per_rhs": "B",
    "serve.submit_s_p50": "s",
    "serve.overhead_s_p50": "s",
    "serve.batch_size_mean": "count",
    "serve.batches": "count",
    "cache.lookup_s_p50": "s",
    "cache.store_s_p50": "s",
    "cache.hit_ratio": "ratio",
    "cache.pool_share": "ratio",
    "pool.solve_s_p50": "s",
    "pool.worker_share": "ratio",
    "pool.epochs_per_batch": "count",
    "pool.epoch_fixed_s": "s",
    "pool.spawns": "count",
    "pool.segment_bytes": "B",
    "kernel.ns_per_update": "ns",
    "kernel.row_nnz_per_update": "count",
    "kernel.bytes_per_update": "B_computed",
    "kernel.flops_per_update": "flop_computed",
    "ref.scipy_ns_per_row": "ns",
    "kernel.x_scipy": "ratio",
    "residual.check_s_p50": "s",
    "residual.share": "ratio",
    "solver.sweeps_per_rhs": "count",
    "solver.column_updates_per_rhs": "count",
    "trace.overhead": "ratio",
}

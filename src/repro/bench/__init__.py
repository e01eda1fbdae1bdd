"""Experiment drivers behind ``benchmarks/`` — one per paper table/figure
plus the ablation studies. The README's "CLI" section lists the
``repro experiment`` commands that run them."""

from .ablations import (
    SamplingAblationResult,
    run_beta_sweep,
    run_consistency_gap,
    run_delay_schedules,
    run_direction_strategies,
    run_sampling_ablation,
    run_tau_sweep,
    run_theory_envelope,
)
from .fig1_convergence import Fig1Result, run_fig1
from .motivation import (
    ExtensionsResult,
    MotivationResult,
    run_extensions,
    run_motivation,
)
from .fig2_scaling import (
    DEFAULT_THREADS,
    Fig2CenterResult,
    Fig2LeftResult,
    Fig2RightResult,
    run_fig2_center,
    run_fig2_left,
    run_fig2_right,
)
from .fig_kernel import KERNEL_MATRICES, KernelResult, run_kernel
from .fig_block import (
    BlockBenchResult,
    BlockRetirementResult,
    run_block,
    run_block_retirement,
)
from .fig_shard import ShardBenchResult, run_shard
from .fig_slo import (
    SLOCacheResult,
    SLOResult,
    ServeBenchResult,
    ServePolicyResult,
    run_serve,
    run_serve_adaptive,
    run_slo,
    run_slo_cache,
)
from .fig_speedup import SpeedupResult, run_speedup
from .fig3_fcg import (
    FCGRun,
    Fig3Result,
    Table1Result,
    run_fcg_once,
    run_fig3,
    run_table1,
)
from .reporting import render_series, render_table, results_dir, save_json

__all__ = [
    "BlockBenchResult",
    "DEFAULT_THREADS",
    "ExtensionsResult",
    "FCGRun",
    "KERNEL_MATRICES",
    "KernelResult",
    "Fig1Result",
    "MotivationResult",
    "run_extensions",
    "run_motivation",
    "Fig2CenterResult",
    "Fig2LeftResult",
    "Fig2RightResult",
    "Fig3Result",
    "SpeedupResult",
    "Table1Result",
    "render_series",
    "render_table",
    "results_dir",
    "run_beta_sweep",
    "run_block",
    "BlockRetirementResult",
    "run_block_retirement",
    "run_consistency_gap",
    "run_delay_schedules",
    "run_direction_strategies",
    "run_fcg_once",
    "run_fig1",
    "run_fig2_center",
    "run_fig2_left",
    "run_fig2_right",
    "run_fig3",
    "run_kernel",
    "run_serve",
    "run_serve_adaptive",
    "run_shard",
    "run_slo",
    "run_slo_cache",
    "ServeBenchResult",
    "ServePolicyResult",
    "ShardBenchResult",
    "SLOCacheResult",
    "SLOResult",
    "run_speedup",
    "run_table1",
    "run_tau_sweep",
    "run_theory_envelope",
    "save_json",
]

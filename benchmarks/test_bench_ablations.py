"""Benchmark: ablation studies of the design choices the analysis
discusses (see repro/bench/ablations.py for the experiment inventory)."""

import numpy as np
import pytest

from repro.bench import (
    run_beta_sweep,
    run_consistency_gap,
    run_delay_schedules,
    run_direction_strategies,
    run_sampling_ablation,
    run_tau_sweep,
    run_theory_envelope,
)

from conftest import persist_and_print


def test_ablation_tau_sweep(benchmark):
    result = benchmark.pedantic(run_tau_sweep, rounds=1, iterations=1)
    persist_and_print("ablation_tau_sweep", result.table())
    # Larger delay bound ⇒ no better error at a fixed budget; the extreme
    # ends must be strictly ordered (Theorem 2/3's direction).
    assert result.errors[-1] > result.errors[0]
    # The Theorem-2 epoch factor degrades (grows) with tau.
    assert all(b >= a - 1e-12 for a, b in zip(result.bound_factors, result.bound_factors[1:]))


def test_ablation_beta_sweep(benchmark):
    result = benchmark.pedantic(run_beta_sweep, rounds=1, iterations=1)
    persist_and_print("ablation_beta_sweep", result.table())
    best = result.empirical_best()
    # Under heavy delay the empirical best step is below the synchronous
    # optimum of 1 (Section 6's point), and the theory step converges.
    assert best < 1.2
    assert 0 < result.beta_theory < 1
    idx_theory = int(np.argmin(np.abs(np.array(result.betas) - result.beta_theory)))
    assert np.isfinite(result.errors[idx_theory])


def test_ablation_consistency_gap(benchmark):
    result = benchmark.pedantic(run_consistency_gap, rounds=1, iterations=1)
    persist_and_print("ablation_consistency_gap", result.table())
    # Both models converge at every tau tested; at the largest tau the
    # inconsistent model is no better than the consistent one (the
    # theory's ordering).
    assert all(np.isfinite(result.consistent_errors))
    assert all(np.isfinite(result.inconsistent_errors))
    assert result.inconsistent_errors[-1] >= 0.5 * result.consistent_errors[-1]


def test_ablation_delay_schedules(benchmark):
    result = benchmark.pedantic(run_delay_schedules, rounds=1, iterations=1)
    persist_and_print("ablation_delay_schedules", result.table())
    errs = result.schedule_errors
    # Mean over seeds: worst-case delays are clearly the worst schedule,
    # uniform sits between, zero is best — and the uniform/adversarial
    # gap shows how pessimistic the worst-case analysis is.
    assert errs["zero"] <= errs["uniform"]
    assert errs["uniform"] <= errs["adversarial"]
    assert errs["adversarial"] > 2 * errs["uniform"]


def test_ablation_theory_envelope(benchmark):
    result = benchmark.pedantic(run_theory_envelope, rounds=1, iterations=1)
    persist_and_print("ablation_theory_envelope", result.table())
    # The proven bound dominates the measured mean error at every epoch
    # (and the paper warns it is pessimistic — usually by a lot).
    for epoch, measured, bound in zip(result.epochs, result.measured, result.bound):
        assert measured <= bound + 1e-9, (
            f"measured error {measured:.3e} exceeded the Theorem 2(a) bound "
            f"{bound:.3e} at epoch {epoch}"
        )
    # And the measurement actually decays.
    assert result.measured[-1] < result.measured[0]


def test_ablation_direction_strategies(benchmark):
    result = benchmark.pedantic(run_direction_strategies, rounds=1, iterations=1)
    persist_and_print("ablation_direction_strategies", result.table())
    errs = result.strategy_errors
    # All strategies converge on this SPD system within the budget.
    assert all(np.isfinite(v) and v < 1.0 for v in errs.values())


@pytest.mark.pool
def test_ablation_sampling_smoke(benchmark):
    """Residual-adaptive direction sampling vs the uniform control on
    the skewed 51-label block: steering draws toward rows with residual
    mass left must retire columns earlier and spend measurably fewer
    column updates, while both runs still finish below the tolerance."""
    result = benchmark.pedantic(
        run_sampling_ablation,
        kwargs=dict(problem="social-labels", nproc=2, tol=1e-3, max_sweeps=600),
        rounds=1,
        iterations=1,
    )
    persist_and_print("BENCH_ablation", result.table())

    assert result.labels == 51
    assert result.converged_uniform and result.converged_adaptive
    # The headline claim: the adaptive distribution does less work.
    assert result.col_updates_adaptive < result.col_updates_uniform
    assert result.sweeps_adaptive < result.sweeps_uniform
    # Both runs honored the per-column tolerance.
    assert result.max_col_residual_uniform < 1e-3
    assert result.max_col_residual_adaptive < 1e-3

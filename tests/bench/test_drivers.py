"""Unit tests for the experiment drivers (small configurations).

These verify the drivers' mechanics — result structure, persistence,
determinism — at test-sized workloads; the paper-shape assertions live in
``benchmarks/``.
"""

import json

import numpy as np
import pytest

from repro.bench import (
    run_beta_sweep,
    run_consistency_gap,
    run_delay_schedules,
    run_direction_strategies,
    run_fcg_once,
    run_fig1,
    run_fig2_center,
    run_fig2_left,
    run_fig2_right,
    run_table1,
    run_tau_sweep,
    run_theory_envelope,
)
from repro.bench.reporting import render_series, render_table, results_dir, save_json


@pytest.fixture(autouse=True)
def tmp_results(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "results"))
    return tmp_path / "results"


SMALL_THREADS = (1, 4, 16)


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [300, 0.001]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_series(self):
        out = render_series("s", [1, 2], [0.5, 0.25], x_label="n", y_label="v")
        assert "n" in out and "v" in out

    def test_save_json_roundtrip(self, tmp_results):
        path = save_json("unit", {"a": np.float64(1.5), "b": np.arange(3)})
        data = json.loads(path.read_text())
        assert data["a"] == 1.5
        assert data["b"] == [0, 1, 2]

    def test_results_dir_env_override(self, tmp_results):
        assert str(results_dir()) == str(tmp_results)


class TestFigureDrivers:
    def test_fig1_small(self, tmp_results):
        r = run_fig1("social-small", sweeps=15)
        assert len(r.sweeps) == len(r.rgs_residuals) == len(r.cg_residuals)
        assert r.rgs_residuals[-1] < r.rgs_residuals[0]
        assert (tmp_results / "fig1_convergence.json").exists()
        assert "Figure 1" in r.table()

    def test_fig2_left_small(self, tmp_results):
        r = run_fig2_left("social-small", threads=SMALL_THREADS, sweeps=3)
        assert r.asyrgs_speedup[0] == pytest.approx(1.0)
        assert r.asyrgs_speedup[-1] > 1.0
        assert all(t > 0 for t in r.cg_time)
        assert "threads" in r.table()

    def test_fig2_center_small(self, tmp_results):
        r = run_fig2_center("social-small", threads=SMALL_THREADS, sweeps=3)
        assert len(r.asyrgs_residual) == len(SMALL_THREADS)
        assert r.sync_residual > 0
        assert all(v > 0 for v in r.nonatomic_residual)

    def test_fig2_right_small(self, tmp_results):
        r = run_fig2_right("social-small", threads=SMALL_THREADS, sweeps=3)
        assert all(np.isfinite(v) for v in r.asyrgs_error)
        assert r.sync_error > 0

    def test_fcg_once_accounting(self, tmp_results):
        from repro.workloads import get_problem

        prob = get_problem("social-small")
        run = run_fcg_once(prob.A, prob.b, threads=8, inner_sweeps=2, tol=1e-6)
        assert run.converged
        assert run.mat_ops == run.outer_iterations * 3
        assert run.modeled_time > 0
        assert run.mat_ops_per_second > 0

    def test_fcg_run_id_varies_schedule_only(self, tmp_results):
        from repro.workloads import get_problem

        prob = get_problem("social-small")
        a = run_fcg_once(prob.A, prob.b, threads=8, inner_sweeps=2, tol=1e-6, run_id=0)
        b = run_fcg_once(prob.A, prob.b, threads=8, inner_sweeps=2, tol=1e-6, run_id=1)
        # Both converge; iteration counts may differ slightly (pure
        # scheduling nondeterminism).
        assert a.converged and b.converged
        assert abs(a.outer_iterations - b.outer_iterations) < 0.5 * a.outer_iterations

    def test_table1_small(self, tmp_results):
        r = run_table1(
            "social-small", threads=16, sweep_counts=(4, 1), repetitions=1, tol=1e-6
        )
        assert [row["inner_sweeps"] for row in r.rows] == [4, 1]
        assert all(row["converged"] for row in r.rows)
        assert r.rows[0]["outer_iterations"] < r.rows[1]["outer_iterations"]
        assert "Inner sweeps" in r.table()
        assert r.best_time_sweeps() in (4, 1)


class TestAblationDrivers:
    def test_tau_sweep_small(self, tmp_results):
        r = run_tau_sweep("unitdiag", taus=(0, 16), sweeps=5)
        assert len(r.errors) == 2
        assert all(np.isfinite(e) for e in r.errors)

    def test_beta_sweep_small(self, tmp_results):
        r = run_beta_sweep("unitdiag", tau=8, betas=(0.5, 1.0), sweeps=5)
        assert len(r.errors) == 2
        assert 0 < r.beta_theory <= 1
        assert r.empirical_best() in (0.5, 1.0)

    def test_consistency_gap_small(self, tmp_results):
        r = run_consistency_gap("unitdiag", taus=(4,), sweeps=5)
        assert len(r.consistent_errors) == 1
        assert len(r.inconsistent_errors) == 1

    def test_delay_schedules_small(self, tmp_results):
        r = run_delay_schedules("unitdiag", tau=16, sweeps=5, n_seeds=2)
        assert set(r.schedule_errors) == {"zero", "uniform", "adversarial"}

    def test_theory_envelope_small(self, tmp_results):
        r = run_theory_envelope("unitdiag", tau=4, epochs=2, n_seeds=2)
        assert r.measured[0] == pytest.approx(1.0)
        assert len(r.bound) == 3
        assert all(m <= b + 1e-9 for m, b in zip(r.measured, r.bound))

    def test_direction_strategies_small(self, tmp_results):
        r = run_direction_strategies("unitdiag", sweeps=5)
        assert set(r.strategy_errors) == {"iid-uniform", "cyclic", "permuted-cyclic"}


class TestFig3Driver:
    def test_fig3_small(self, tmp_results):
        from repro.bench import run_fig3

        r = run_fig3(
            "social-small", threads=(1, 8), inner_sweeps=(2, 4),
            repetitions=2, tol=1e-6,
        )
        assert r.threads == [1, 8]
        for s in (2, 4):
            assert len(r.times[s]) == 2
            assert r.times[s][1] < r.times[s][0]  # faster with more threads
            assert all(o > 0 for o in r.outer[s])
            lo, hi = r.spread[s][1]
            assert lo <= r.outer[s][1] <= hi
        # More inner sweeps, fewer outer iterations.
        assert r.outer[4][0] < r.outer[2][0]
        assert "Figure 3" in r.table()
        assert (tmp_results / "fig3_fcg.json").exists()


@pytest.mark.serve
class TestServingRounds:
    """The serving load driver's round runner (``repro.bench.fig_slo``)
    on a tiny registry: every line goes through ``handle_line``; a
    burst coalesces and a closed-loop round never does."""

    @pytest.fixture
    def registry(self):
        from repro.bench.fig_slo import _serving
        from repro.workloads import get_problem

        A = get_problem("laplace2d").A
        with _serving(
            "laplace2d", A, nproc=1, capacity_k=4, max_batch=4, tol=1e-2,
            max_sweeps=20, seed=0,
        ) as reg:
            yield reg

    @staticmethod
    def _schedule(count, n=1600):
        rng = np.random.default_rng(0)
        return [(0.0, rng.standard_normal(n)) for _ in range(count)]

    def test_burst_coalesces(self, registry):
        from repro.bench.fig_slo import _round

        responses, wall = _round(registry, self._schedule(8))
        assert [r["id"] for r in responses] == [f"req-{i}" for i in range(8)]
        assert all(r["ok"] for r in responses)
        assert wall > 0
        stats = registry.stats()
        assert stats.requests_served == 8
        assert stats.batches < 8

    def test_closed_loop_never_coalesces(self, registry):
        from repro.bench.fig_slo import _round

        responses, _ = _round(registry, self._schedule(4), closed_loop=True)
        assert all(r["ok"] for r in responses)
        assert all(r["batch_size"] == 1 for r in responses)
        assert registry.stats().mean_batch_size == 1.0

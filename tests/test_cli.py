"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.sparse import write_matrix_market
from repro.workloads import random_unit_diagonal_spd


@pytest.fixture()
def matrix_file(tmp_path):
    A = random_unit_diagonal_spd(30, nnz_per_row=4, offdiag_scale=0.6, seed=1)
    path = tmp_path / "system.mtx"
    write_matrix_market(A, path)
    return path, A


@pytest.fixture(autouse=True)
def results_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "results"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "m.mtx"])
        assert args.method == "asyrgs"
        assert args.nproc == 8

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_block_experiment_known(self):
        args = build_parser().parse_args(["experiment", "block"])
        assert args.name == "block"
        assert args.retire is False

    def test_block_retire_mode_parsed(self):
        args = build_parser().parse_args(["experiment", "block", "--retire"])
        assert args.retire is True

    def test_retire_rejected_for_other_experiments(self, capsys):
        code = main(["experiment", "fig1", "--retire"])
        assert code == 2
        assert "mode of the 'block' experiment" in capsys.readouterr().out

    def test_solve_no_retire_parsed(self):
        args = build_parser().parse_args(["solve", "m.mtx", "--no-retire"])
        assert args.no_retire is True

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["solve", "m.mtx", "--nodes", "h:1,h:2"], "--nodes"),
            (["solve", "m.mtx", "--node-matrix", "lap"], "--node-matrix"),
            (["serve", "--shard-of", "lap=laplace2d", "--port", "0"],
             "--shard-of"),
            (["serve", "--peers", "h:1"], "--peers"),
            (["experiment", "multinode"], "multinode"),
        ],
        ids=["solve-nodes", "solve-node-matrix", "serve-shard-of",
             "serve-peers", "experiment-multinode"],
    )
    def test_removed_multinode_options_are_usage_errors(
        self, argv, option, capsys
    ):
        """The multi-node options are gone: argparse refuses each with a
        usage error (exit 2), naming it, and no traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert option in err and "Traceback" not in err


class TestSpeedup:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["speedup"])
        assert args.nproc == 4
        assert args.problem == "laplace2d"
        assert args.labels == 1

    @pytest.mark.pool
    def test_reports_wallclock_scaling(self, capsys):
        code = main(["speedup", "--nproc", "2", "--sweeps", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Strong scaling" in out
        assert "tau_obs" in out

    @pytest.mark.pool
    def test_block_scaling_with_labels(self, capsys):
        code = main(["speedup", "--nproc", "2", "--sweeps", "2", "--labels", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3-label block" in out


class TestSolve:
    @pytest.mark.pool
    def test_processes_engine(self, matrix_file, capsys):
        path, _ = matrix_file
        code = main(
            ["solve", str(path), "--engine", "processes", "--nproc", "2",
             "--tol", "1e-8", "--max-sweeps", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "tau_observed" in out

    @pytest.mark.parametrize("method", ["asyrgs", "rgs", "cg", "fcg"])
    def test_solves_to_tolerance(self, matrix_file, method, capsys):
        path, A = matrix_file
        code = main(
            ["solve", str(path), "--method", method, "--tol", "1e-8",
             "--max-sweeps", "2000", "--nproc", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=True" in out

    def test_auto_beta(self, matrix_file, capsys):
        path, _ = matrix_file
        code = main(
            ["solve", str(path), "--beta", "auto", "--tol", "1e-6",
             "--max-sweeps", "2000"]
        )
        assert code == 0

    @pytest.mark.pool
    def test_processes_engine_auto_beta(self, matrix_file, capsys):
        """On the pool, ``--beta auto`` is the Theorem 4 step for the
        nominal τ = P − 1 with inconsistent (live shared-memory) reads."""
        from repro.core import auto_step_size

        path, A = matrix_file
        code = main(
            ["solve", str(path), "--engine", "processes", "--nproc", "2",
             "--beta", "auto", "--tol", "1e-6", "--max-sweeps", "2000"]
        )
        assert code == 0
        beta = auto_step_size(A, tau=1, consistent=False)
        assert 0.0 < beta < 2.0
        assert f"beta={beta:.4g}" in capsys.readouterr().out

    def test_custom_rhs_and_output(self, matrix_file, tmp_path, capsys):
        path, A = matrix_file
        rhs = tmp_path / "b.txt"
        x_star = np.linspace(-1, 1, A.shape[0])
        np.savetxt(rhs, A.matvec(x_star))
        out_file = tmp_path / "x.txt"
        code = main(
            ["solve", str(path), "--rhs", str(rhs), "--output", str(out_file),
             "--tol", "1e-10", "--max-sweeps", "3000"]
        )
        assert code == 0
        x = np.loadtxt(out_file)
        np.testing.assert_allclose(x, x_star, atol=1e-7)

    def test_nonconvergence_exit_code(self, matrix_file, capsys):
        path, _ = matrix_file
        code = main(
            ["solve", str(path), "--tol", "1e-14", "--max-sweeps", "1"]
        )
        assert code == 1


class TestSolveMultiRHS:
    @pytest.fixture()
    def block_rhs_file(self, matrix_file, tmp_path):
        path, A = matrix_file
        n = A.shape[0]
        X_star = np.column_stack(
            [np.linspace(-1, 1, n), np.linspace(1, 2, n), np.sin(np.arange(n))]
        )
        rhs = tmp_path / "B.txt"
        np.savetxt(rhs, A.matmat(X_star))
        return rhs, X_star

    def test_block_rhs_preserved_not_flattened(self, matrix_file, block_rhs_file,
                                               tmp_path, capsys):
        """A 3-column RHS file is solved as one simultaneous block and
        the solution file keeps the (n, 3) shape."""
        path, A = matrix_file
        rhs, X_star = block_rhs_file
        out_file = tmp_path / "X.txt"
        code = main(
            ["solve", str(path), "--rhs", str(rhs), "--output", str(out_file),
             "--tol", "1e-10", "--max-sweeps", "3000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 RHS columns" in out
        X = np.loadtxt(out_file)
        assert X.shape == X_star.shape
        np.testing.assert_allclose(X, X_star, atol=1e-7)

    @pytest.mark.pool
    def test_block_rhs_processes_engine(self, matrix_file, block_rhs_file, capsys):
        path, _ = matrix_file
        rhs, _ = block_rhs_file
        code = main(
            ["solve", str(path), "--rhs", str(rhs), "--engine", "processes",
             "--nproc", "2", "--tol", "1e-8", "--max-sweeps", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "3 RHS columns" in out
        assert "tau_observed" in out

    def test_block_rhs_rgs_method(self, matrix_file, block_rhs_file, capsys):
        path, _ = matrix_file
        rhs, _ = block_rhs_file
        code = main(
            ["solve", str(path), "--rhs", str(rhs), "--method", "rgs",
             "--tol", "1e-8", "--max-sweeps", "2000"]
        )
        assert code == 0
        assert "converged=True" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["cg", "fcg"])
    def test_block_rhs_rejected_for_krylov(self, matrix_file, block_rhs_file,
                                           method, capsys):
        path, _ = matrix_file
        rhs, _ = block_rhs_file
        code = main(["solve", str(path), "--rhs", str(rhs), "--method", method])
        assert code == 2
        assert "one right-hand side at a time" in capsys.readouterr().out

    def test_per_column_status_printed(self, matrix_file, block_rhs_file, capsys):
        """A block solve reports which columns converged and what the
        retirement saved."""
        path, _ = matrix_file
        rhs, _ = block_rhs_file
        code = main(
            ["solve", str(path), "--rhs", str(rhs),
             "--tol", "1e-8", "--max-sweeps", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "columns: 3/3 below tol" in out
        assert "retired between sweeps" in out
        assert "column updates" in out

    def test_no_retire_flag(self, matrix_file, block_rhs_file, capsys):
        path, _ = matrix_file
        rhs, _ = block_rhs_file
        code = main(
            ["solve", str(path), "--rhs", str(rhs), "--no-retire",
             "--tol", "1e-8", "--max-sweeps", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "columns: 3/3 below tol" in out
        assert "no retirement" in out

    def test_mismatched_rhs_rows_rejected(self, matrix_file, tmp_path, capsys):
        """The old behavior silently flattened an (n, k) file into one
        nk-long vector; now any row-count mismatch is a clear error."""
        path, A = matrix_file
        rhs = tmp_path / "bad.txt"
        np.savetxt(rhs, np.ones(A.shape[0] - 1))
        code = main(["solve", str(path), "--rhs", str(rhs)])
        assert code == 2
        out = capsys.readouterr().out
        assert "row counts must match" in out


class TestEstimate:
    def test_reports_diagnostics(self, matrix_file, capsys):
        path, _ = matrix_file
        code = main(["estimate", str(path), "--tau", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kappa" in out
        assert "rho" in out
        assert "Theorem" in out

    def test_without_tau(self, matrix_file, capsys):
        path, _ = matrix_file
        code = main(["estimate", str(path)])
        assert code == 0
        assert "Theorem" not in capsys.readouterr().out


class TestExperimentAndProblems:
    def test_problems_listing(self, capsys):
        code = main(["problems"])
        assert code == 0
        out = capsys.readouterr().out
        assert "social-small" in out
        assert "laplace2d" in out

    def test_experiment_runs_small_driver(self, capsys):
        code = main(["experiment", "direction-strategies"])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy" in out

    def test_experiment_problem_override(self, capsys):
        code = main(["experiment", "direction-strategies", "--problem", "banded"])
        assert code == 0
        assert "banded" in capsys.readouterr().out

    @pytest.mark.pool
    def test_block_retire_mode_runs(self, capsys):
        code = main(["experiment", "block", "--retire", "--problem", "social-small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Column retirement" in out
        assert "fewer column updates" in out


class TestExperimentEdgeCases:
    def test_problem_override_rejected_for_fixed_experiments(self, capsys):
        code = main(["experiment", "motivation", "--problem", "banded"])
        assert code == 2
        assert "does not take" in capsys.readouterr().out

"""Unit tests for synchronous randomized Gauss-Seidel."""

import numpy as np
import pytest

from repro.core import randomized_gauss_seidel
from repro.exceptions import ModelError, ShapeError
from repro.rng import DirectionStream
from repro.workloads import laplacian_2d, random_unit_diagonal_spd

from ..conftest import manufactured_system


@pytest.fixture(scope="module")
def system():
    A = random_unit_diagonal_spd(50, nnz_per_row=5, offdiag_scale=0.7, seed=1)
    b, x_star = manufactured_system(A, seed=2)
    return A, b, x_star


class TestConvergence:
    def test_converges_to_solution(self, system):
        A, b, x_star = system
        r = randomized_gauss_seidel(A, b, sweeps=80, record_history=False)
        assert np.abs(r.x - x_star).max() < 1e-8

    def test_tolerance_early_exit(self, system):
        A, b, _ = system
        r = randomized_gauss_seidel(A, b, sweeps=500, tol=1e-4)
        assert r.converged
        assert r.iterations < 500 * A.shape[0]
        assert r.history.final < 1e-4

    def test_unconverged_flag(self, system):
        A, b, _ = system
        r = randomized_gauss_seidel(A, b, sweeps=1, tol=1e-14)
        assert not r.converged

    def test_history_decreases_overall(self, system):
        A, b, _ = system
        r = randomized_gauss_seidel(A, b, sweeps=40)
        assert r.history.values[-1] < 0.05 * r.history.values[0]

    def test_non_unit_diagonal(self):
        """Iteration (3): the general diagonal is handled by the γ/A_rr
        normalization."""
        A = laplacian_2d(6, 6)  # diagonal = 4
        b, x_star = manufactured_system(A, seed=3)
        r = randomized_gauss_seidel(A, b, sweeps=400, record_history=False)
        assert np.abs(r.x - x_star).max() < 1e-6

    def test_multirhs(self):
        A = laplacian_2d(5, 5)
        n = A.shape[0]
        X_star = np.stack([np.linspace(0, 1, n), np.cos(np.arange(n))], axis=1)
        B = A.matmat(X_star)
        r = randomized_gauss_seidel(A, B, sweeps=400, record_history=False)
        assert np.abs(r.x - X_star).max() < 1e-6

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
    def test_relaxation_converges(self, system, beta):
        A, b, x_star = system
        r = randomized_gauss_seidel(A, b, sweeps=150, beta=beta, record_history=False)
        assert np.abs(r.x - x_star).max() < 1e-6


class TestDeterminism:
    def test_same_stream_same_result(self, system):
        A, b, _ = system
        n = A.shape[0]
        r1 = randomized_gauss_seidel(
            A, b, sweeps=5, directions=DirectionStream(n, seed=7), record_history=False
        )
        r2 = randomized_gauss_seidel(
            A, b, sweeps=5, directions=DirectionStream(n, seed=7), record_history=False
        )
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_different_seed_different_path(self, system):
        A, b, _ = system
        n = A.shape[0]
        r1 = randomized_gauss_seidel(
            A, b, sweeps=2, directions=DirectionStream(n, seed=7), record_history=False
        )
        r2 = randomized_gauss_seidel(
            A, b, sweeps=2, directions=DirectionStream(n, seed=8), record_history=False
        )
        assert not np.array_equal(r1.x, r2.x)

    def test_start_iteration_continuation(self, system):
        A, b, _ = system
        n = A.shape[0]
        full = randomized_gauss_seidel(
            A, b, sweeps=4, directions=DirectionStream(n, seed=9), record_history=False
        )
        half = randomized_gauss_seidel(
            A, b, sweeps=2, directions=DirectionStream(n, seed=9), record_history=False
        )
        rest = randomized_gauss_seidel(
            A,
            b,
            x0=half.x,
            sweeps=2,
            directions=DirectionStream(n, seed=9),
            record_history=False,
            start_iteration=2 * n,
        )
        np.testing.assert_array_equal(full.x, rest.x)


class TestAccounting:
    def test_iteration_budget_exact(self, system):
        A, b, _ = system
        r = randomized_gauss_seidel(A, b, iterations=137, record_history=False)
        assert r.iterations == 137

    def test_total_row_nnz_positive(self, system):
        A, b, _ = system
        r = randomized_gauss_seidel(A, b, sweeps=2, record_history=False)
        assert r.total_row_nnz > 0

    def test_history_unit_is_sweeps(self, system):
        A, b, _ = system
        r = randomized_gauss_seidel(A, b, sweeps=3)
        assert r.history.iterations == [0, 1, 2, 3]

    def test_custom_metric(self, system):
        A, b, x_star = system
        r = randomized_gauss_seidel(
            A, b, sweeps=3, metric=lambda x: float(np.abs(x - x_star).max())
        )
        assert r.history.values[-1] < r.history.values[0]


class TestSweepHelper:
    """One sweep is ``n`` updates on the drawn rows."""

    def test_sweep_applies_n_updates(self, system):
        A, b, _ = system
        n = A.shape[0]
        r = randomized_gauss_seidel(
            A, b, sweeps=1, directions=DirectionStream(n, seed=11),
            record_history=False,
        )
        rows = DirectionStream(n, seed=11).directions(0, n)
        assert r.iterations == n
        assert r.total_row_nnz == int(A.row_nnz()[rows].sum())
        assert np.any(r.x != 0)

    def test_sweep_matches_solver(self, system):
        # The update of Section 3, one row at a time, as the slow oracle.
        A, b, _ = system
        n = A.shape[0]
        diag = A.diagonal()
        x = np.zeros(n)
        for row in DirectionStream(n, seed=12).directions(0, n):
            cols, vals = A.row(row)
            x[row] += (b[row] - float(vals @ x[cols])) / diag[row]
        r = randomized_gauss_seidel(
            A, b, sweeps=1, directions=DirectionStream(n, seed=12),
            record_history=False,
        )
        np.testing.assert_array_equal(x, r.x)


class TestValidation:
    def test_both_budgets_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            randomized_gauss_seidel(A, b, sweeps=1, iterations=10)

    def test_no_budget_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            randomized_gauss_seidel(A, b)

    def test_bad_beta(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            randomized_gauss_seidel(A, b, sweeps=1, beta=2.0)

    def test_rectangular_rejected(self):
        from repro.sparse import CSRMatrix

        A = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            randomized_gauss_seidel(A, np.ones(2), sweeps=1)

    def test_shape_mismatch_b(self, system):
        A, _, _ = system
        with pytest.raises(ShapeError):
            randomized_gauss_seidel(A, np.ones(3), sweeps=1)

    def test_x0_shape_mismatch(self, system):
        A, b, _ = system
        with pytest.raises(ShapeError):
            randomized_gauss_seidel(A, b, x0=np.ones(3), sweeps=1)

    def test_zero_diagonal_rejected(self):
        from repro.sparse import CSRMatrix

        A = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ModelError):
            randomized_gauss_seidel(A, np.ones(2), sweeps=1)

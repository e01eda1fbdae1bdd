"""Unit tests for error/residual measures and convergence histories."""

import numpy as np
import pytest

from repro.core import (
    ConvergenceHistory,
    a_norm,
    a_norm_error,
    column_relative_residuals,
    column_residual_norms,
    relative_a_norm_error,
    relative_residual,
    residual_norm,
)
from repro.exceptions import NotPositiveDefiniteError, ShapeError
from repro.sparse import CSRMatrix
from repro.workloads import laplacian_2d


@pytest.fixture(scope="module")
def A():
    return laplacian_2d(6, 6)


class TestResidualNorms:
    def test_zero_residual_at_solution(self, A):
        x = np.linspace(0, 1, A.shape[0])
        b = A.matvec(x)
        assert residual_norm(A, x, b) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_computation(self, A):
        n = A.shape[0]
        x = np.cos(np.arange(n, dtype=float))
        b = np.ones(n)
        expected = np.linalg.norm(b - A.to_dense() @ x)
        assert residual_norm(A, x, b) == pytest.approx(expected)

    def test_relative_residual_normalization(self, A):
        n = A.shape[0]
        b = 2.0 * np.ones(n)
        x = np.zeros(n)
        assert relative_residual(A, x, b) == pytest.approx(1.0)

    def test_relative_residual_zero_rhs(self, A):
        n = A.shape[0]
        x = np.ones(n)
        # With b = 0, returns the absolute residual ‖Ax‖.
        assert relative_residual(A, x, np.zeros(n)) == pytest.approx(
            np.linalg.norm(A.matvec(x))
        )

    def test_multirhs_frobenius(self, A):
        n = A.shape[0]
        X = np.stack([np.ones(n), np.zeros(n)], axis=1)
        B = np.stack([np.zeros(n), np.ones(n)], axis=1)
        expected = np.linalg.norm(B - A.to_dense() @ X)
        assert residual_norm(A, X, B) == pytest.approx(expected)

    def test_shape_mismatch(self, A):
        with pytest.raises(ShapeError):
            residual_norm(A, np.ones(3), np.ones(A.shape[0]))

    # Squares of entries near 2**±530 overflow, or fall below the
    # smallest normal float and lose their digits; scaling by a power of
    # two is exact, so neither measure may move.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("power", [530, -530, 600, -600])
    def test_power_of_two_scaling_leaves_the_measures_unchanged(self, power):
        A = laplacian_2d(8, 8)
        n = A.shape[0]
        b = A.matvec(np.ones(n))
        x = np.cos(np.arange(n, dtype=float))
        s = 2.0**power
        zero = np.zeros(n)
        assert relative_residual(A, zero, s * b) == pytest.approx(
            relative_residual(A, zero, b), rel=1e-15, abs=0
        )
        assert relative_residual(A, s * x, s * b) == pytest.approx(
            relative_residual(A, x, b), rel=1e-14, abs=0
        )
        assert residual_norm(A, s * x, s * b) == pytest.approx(
            s * residual_norm(A, x, b), rel=1e-14, abs=0
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_far_scaled_rhs_from_zero_reads_one(self, scale):
        A = laplacian_2d(8, 8)
        n = A.shape[0]
        b = scale * A.matvec(np.ones(n))
        assert relative_residual(A, np.zeros(n), b) == pytest.approx(1.0, rel=1e-15)
        B = np.column_stack([b, 2.0 * b])
        assert relative_residual(A, np.zeros_like(B), B) == pytest.approx(1.0, rel=1e-15)


class TestColumnResiduals:
    def test_matches_per_column_relative_residual(self, A):
        n = A.shape[0]
        X = np.stack([np.cos(np.arange(n, dtype=float)), np.ones(n)], axis=1)
        B = np.stack([np.ones(n), 2.0 * np.ones(n)], axis=1)
        col = column_relative_residuals(A, X, B)
        assert col.shape == (2,)
        for j in range(2):
            assert col[j] == pytest.approx(relative_residual(A, X[:, j], B[:, j]))

    def test_vector_treated_as_one_column(self, A):
        n = A.shape[0]
        x = np.sin(np.arange(n, dtype=float))
        b = np.ones(n)
        col = column_relative_residuals(A, x, b)
        assert col.shape == (1,)
        assert col[0] == pytest.approx(relative_residual(A, x, b))

    def test_aggregate_can_hide_a_bad_column(self, A):
        """The motivating failure mode: the Frobenius aggregate passes a
        tolerance while one column is still far from converged."""
        n = A.shape[0]
        x_good = np.linspace(1, 2, n)
        B = np.stack([A.matvec(x_good)] * 50 + [np.ones(n)], axis=1)
        X = np.stack([x_good] * 50 + [np.zeros(n)], axis=1)
        col = column_relative_residuals(A, X, B)
        agg = relative_residual(A, X, B)
        assert agg < 0.2  # the aggregate looks fine…
        assert col[-1] == pytest.approx(1.0)  # …while one label never moved

    def test_zero_column_falls_back_to_absolute(self, A):
        n = A.shape[0]
        X = np.stack([np.ones(n), np.ones(n)], axis=1)
        B = np.stack([np.ones(n), np.zeros(n)], axis=1)
        col = column_relative_residuals(A, X, B)
        assert col[1] == pytest.approx(np.linalg.norm(A.matvec(np.ones(n))))

    def test_norm_pairs_recover_frobenius_aggregate(self, A):
        n = A.shape[0]
        X = np.stack([np.cos(np.arange(n, dtype=float)), np.ones(n)], axis=1)
        B = np.stack([np.ones(n), 2.0 * np.ones(n)], axis=1)
        num, denom = column_residual_norms(A, X, B)
        assert np.linalg.norm(num) / np.linalg.norm(denom) == pytest.approx(
            relative_residual(A, X, B)
        )

    def test_shape_mismatch(self, A):
        with pytest.raises(ShapeError):
            column_relative_residuals(A, np.ones((3, 2)), np.ones((A.shape[0], 2)))


class TestANorm:
    def test_matches_quadratic_form(self, A):
        n = A.shape[0]
        v = np.sin(np.arange(n, dtype=float))
        expected = np.sqrt(v @ A.to_dense() @ v)
        assert a_norm(A, v) == pytest.approx(expected)

    def test_zero_vector(self, A):
        assert a_norm(A, np.zeros(A.shape[0])) == 0.0

    def test_matrix_argument_sums_columns(self, A):
        n = A.shape[0]
        V = np.stack([np.ones(n), np.arange(n, dtype=float)], axis=1)
        expected = np.sqrt(sum(V[:, j] @ A.to_dense() @ V[:, j] for j in range(2)))
        assert a_norm(A, V) == pytest.approx(expected)

    def test_indefinite_matrix_detected(self):
        M = CSRMatrix.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            a_norm(M, np.array([0.0, 1.0]))

    def test_error_measures(self, A):
        n = A.shape[0]
        x_star = np.linspace(1, 2, n)
        x = x_star + 0.1
        err = a_norm_error(A, x, x_star)
        assert err == pytest.approx(a_norm(A, 0.1 * np.ones(n)))
        rel = relative_a_norm_error(A, x, x_star)
        assert rel == pytest.approx(err / a_norm(A, x_star))

    def test_error_shape_mismatch(self, A):
        with pytest.raises(ShapeError):
            a_norm_error(A, np.ones(3), np.ones(A.shape[0]))


class TestConvergenceHistory:
    def test_record_and_read(self):
        h = ConvergenceHistory(label="x")
        h.record(0, 1.0)
        h.record(5, 0.5)
        assert len(h) == 2
        assert h.final == 0.5
        its, vals = h.as_arrays()
        np.testing.assert_array_equal(its, [0, 5])
        np.testing.assert_array_equal(vals, [1.0, 0.5])

    def test_monotone_iterations_enforced(self):
        h = ConvergenceHistory()
        h.record(5, 1.0)
        with pytest.raises(ValueError):
            h.record(3, 0.5)

    def test_final_empty_raises(self):
        with pytest.raises(ValueError):
            _ = ConvergenceHistory().final

    def test_first_below(self):
        h = ConvergenceHistory()
        for it, v in [(0, 1.0), (1, 0.3), (2, 0.05), (3, 0.01)]:
            h.record(it, v)
        assert h.first_below(0.1) == 2
        assert h.first_below(1e-9) is None

    def test_reduction_factor(self):
        h = ConvergenceHistory()
        h.record(0, 2.0)
        h.record(1, 0.5)
        assert h.reduction_factor() == pytest.approx(0.25)

    def test_reduction_factor_needs_two_points(self):
        h = ConvergenceHistory()
        h.record(0, 1.0)
        with pytest.raises(ValueError):
            h.reduction_factor()

    def test_per_column_series(self):
        h = ConvergenceHistory()
        h.record(0, 1.0, columns=[1.0, 0.5])
        h.record(1, 0.4, columns=np.array([0.4, 0.1]))
        series = h.column_series()
        np.testing.assert_allclose(series, [[1.0, 0.5], [0.4, 0.1]])
        assert h.values == [1.0, 0.4]

    def test_per_column_series_must_stay_aligned(self):
        h = ConvergenceHistory()
        h.record(0, 1.0, columns=[1.0, 0.5])
        with pytest.raises(ValueError):
            h.record(1, 0.4)  # dropped the per-column record
        h2 = ConvergenceHistory()
        h2.record(0, 1.0)
        with pytest.raises(ValueError):
            h2.record(1, 0.4, columns=[0.4, 0.1])  # started late
        h3 = ConvergenceHistory()
        h3.record(0, 1.0, columns=[1.0, 0.5])
        with pytest.raises(ValueError):
            h3.record(1, 0.4, columns=[0.4])  # k changed

    def test_rejected_record_leaves_history_untouched(self):
        """A record that fails validation must not partially mutate the
        history — the scalar and per-column series would desynchronize
        permanently."""
        h = ConvergenceHistory()
        h.record(0, 1.0, columns=[1.0, 0.5])
        with pytest.raises(ValueError):
            h.record(1, 0.4, columns=[0.4])  # wrong shape: rejected whole
        assert len(h) == 1
        assert len(h.column_values) == 1
        h.record(1, 0.4, columns=[0.4, 0.1])  # still usable afterwards
        assert h.column_series().shape == (2, 2)

    def test_column_series_empty_raises(self):
        h = ConvergenceHistory()
        h.record(0, 1.0)
        with pytest.raises(ValueError):
            h.column_series()

    def test_reduction_factor_zero_start_is_nan(self):
        """A run that started converged has no meaningful reduction:
        0.0 would read as a *perfect* reduction, so it must be nan."""
        h = ConvergenceHistory()
        h.record(0, 0.0)
        h.record(1, 0.0)
        assert np.isnan(h.reduction_factor())

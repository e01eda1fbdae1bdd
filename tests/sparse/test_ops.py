"""Unit tests for sparse algebra: rescale, gram, matmul, add."""

import numpy as np
import pytest

from repro.exceptions import NotPositiveDefiniteError, ShapeError
from repro.sparse import (
    CSRMatrix,
    add,
    gram,
    matmul,
    max_abs_difference,
    row_nnz_statistics,
    symmetric_rescale,
)

from ..conftest import random_dense


def make(dense):
    return CSRMatrix.from_dense(np.asarray(dense, dtype=np.float64))


def spd_dense(n, seed=0):
    d = random_dense(n, n, seed=seed, density=0.5)
    return d @ d.T + n * np.eye(n)


class TestSymmetricRescale:
    def test_produces_unit_diagonal(self):
        B = make(spd_dense(8, seed=1))
        A, d = symmetric_rescale(B)
        assert A.has_unit_diagonal(tol=1e-12)

    def test_rescale_formula(self):
        dense = spd_dense(6, seed=2)
        B = make(dense)
        A, d = symmetric_rescale(B)
        expected = dense / np.outer(d, d)
        np.testing.assert_allclose(A.to_dense(), expected, atol=1e-13)

    def test_d_is_sqrt_diagonal(self):
        dense = spd_dense(5, seed=3)
        _, d = symmetric_rescale(make(dense))
        np.testing.assert_allclose(d, np.sqrt(np.diag(dense)))

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NotPositiveDefiniteError):
            symmetric_rescale(make([[1.0, 0.0], [0.0, -2.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            symmetric_rescale(make(random_dense(2, 3, seed=4)))

    def test_solution_map_roundtrip(self):
        """Solving the rescaled system recovers the original solution
        through the Section-3 equivalence transform."""
        dense = spd_dense(6, seed=5)
        B = make(dense)
        z = np.linspace(1, 2, 6)
        y_direct = np.linalg.solve(dense, z)
        A, d = symmetric_rescale(B)
        x = np.linalg.solve(A.to_dense(), z / d)
        y = x / d
        np.testing.assert_allclose(y, y_direct, atol=1e-10)


class TestGram:
    def test_matches_dense(self):
        d = random_dense(10, 6, seed=6)
        G = gram(make(d))
        np.testing.assert_allclose(G.to_dense(), d.T @ d, atol=1e-12)

    def test_shift_adds_identity(self):
        d = random_dense(8, 5, seed=7)
        G = gram(make(d), shift=2.5)
        np.testing.assert_allclose(G.to_dense(), d.T @ d + 2.5 * np.eye(5), atol=1e-12)

    def test_gram_is_symmetric(self):
        d = random_dense(12, 7, seed=8)
        assert gram(make(d)).is_symmetric(tol=1e-12)

    def test_gram_empty_columns(self):
        d = np.zeros((4, 3))
        d[:, 0] = 1.0
        G = gram(make(d))
        assert G.get(0, 0) == pytest.approx(4.0)
        assert G.get(1, 1) == 0.0

    def test_gram_empty_columns_with_shift(self):
        d = np.zeros((4, 3))
        d[:, 0] = 1.0
        G = gram(make(d), shift=1.0)
        assert G.get(1, 1) == pytest.approx(1.0)
        assert G.get(2, 2) == pytest.approx(1.0)


class TestMatmul:
    def test_matches_dense(self):
        a = random_dense(5, 7, seed=9)
        b = random_dense(7, 4, seed=10)
        np.testing.assert_allclose(
            matmul(make(a), make(b)).to_dense(), a @ b, atol=1e-12
        )

    def test_identity_neutral(self):
        a = random_dense(4, 4, seed=11)
        I = CSRMatrix.identity(4)
        np.testing.assert_allclose(matmul(make(a), I).to_dense(), a, atol=1e-14)
        np.testing.assert_allclose(matmul(I, make(a)).to_dense(), a, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(make(random_dense(2, 3, seed=1)), make(random_dense(2, 3, seed=2)))

    def test_zero_result_rows(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        c = matmul(make(a), make(a))
        assert c.nnz == 1


class TestAdd:
    def test_add_matches_dense(self):
        a = random_dense(6, 6, seed=12)
        b = random_dense(6, 6, seed=13)
        np.testing.assert_allclose(
            add(make(a), make(b)).to_dense(), a + b, atol=1e-13
        )

    def test_scaled_combination(self):
        a = random_dense(4, 4, seed=14)
        b = random_dense(4, 4, seed=15)
        np.testing.assert_allclose(
            add(make(a), make(b), alpha=2.0, beta=-0.5).to_dense(),
            2.0 * a - 0.5 * b,
            atol=1e-13,
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(make(random_dense(2, 2, seed=1)), make(random_dense(3, 3, seed=1)))

    def test_max_abs_difference(self):
        a = random_dense(5, 5, seed=16)
        b = a.copy()
        b[2, 3] += 0.75
        assert max_abs_difference(make(a), make(b)) == pytest.approx(0.75)

    def test_max_abs_difference_identical(self):
        a = random_dense(5, 5, seed=17)
        assert max_abs_difference(make(a), make(a)) <= 1e-15


class TestRowStats:
    def test_statistics_values(self):
        d = np.zeros((4, 4))
        d[0, :] = 1.0  # 4 entries
        d[1, 0] = 1.0  # 1 entry
        stats = row_nnz_statistics(make(d))
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["skew_ratio"] == 4.0
        assert stats["empty_rows"] == 2.0

    def test_statistics_empty_matrix(self):
        stats = row_nnz_statistics(make(np.zeros((3, 3))))
        assert stats["max"] == 0.0
        assert stats["empty_rows"] == 3.0

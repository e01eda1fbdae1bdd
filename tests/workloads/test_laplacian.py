"""Unit tests for Laplacian generators."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.workloads import laplacian_1d, laplacian_2d, laplacian_3d


class TestGridLaplacians:
    def test_1d_structure(self):
        A = laplacian_1d(5)
        d = A.to_dense()
        expected = 2 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1)
        np.testing.assert_array_equal(d, expected)

    def test_2d_row_sums(self):
        """Interior rows sum to 0 except boundary contributions; the
        matrix is weakly diagonally dominant with positive diagonal."""
        A = laplacian_2d(5, 5)
        d = A.to_dense()
        rowsums = d.sum(axis=1)
        assert np.all(rowsums >= -1e-12)
        assert np.all(np.diag(d) == 4.0)

    def test_2d_spd(self):
        A = laplacian_2d(6, 4)
        np.linalg.cholesky(A.to_dense())

    def test_2d_rectangular_grid(self):
        A = laplacian_2d(3, 7)
        assert A.shape == (21, 21)
        assert A.is_symmetric()

    def test_3d_shape_and_diagonal(self):
        A = laplacian_3d(3, 4, 5)
        assert A.shape == (60, 60)
        assert np.all(A.diagonal() == 6.0)

    def test_3d_spd(self):
        A = laplacian_3d(3, 3, 3)
        np.linalg.cholesky(A.to_dense())

    def test_3d_nnz_count(self):
        """Interior stencil width 7; total nnz = 7n − 2(boundary faces)."""
        nx = ny = nz = 4
        A = laplacian_3d(nx, ny, nz)
        expected = 7 * 64 - 2 * (3 * 16)  # each missing neighbor kills 2 entries
        assert A.nnz == expected

    def test_reference_scenario_band(self):
        """Grid Laplacians realize the paper's C₂/C₁ small-ratio regime."""
        from repro.sparse import row_nnz_statistics

        stats = row_nnz_statistics(laplacian_3d(6, 6, 6))
        assert stats["skew_ratio"] <= 7 / 4 + 1e-12

    def test_invalid_sizes(self):
        with pytest.raises(ModelError):
            laplacian_1d(0)
        with pytest.raises(ModelError):
            laplacian_2d(0, 3)
        with pytest.raises(ModelError):
            laplacian_3d(2, 2, 0)

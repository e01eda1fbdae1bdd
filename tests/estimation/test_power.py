"""Unit tests for power iteration."""

import numpy as np
import pytest

from repro.estimation import power_iteration
from repro.exceptions import ConvergenceError, ShapeError
from repro.sparse import CSRMatrix
from repro.workloads import laplacian_1d, laplacian_2d


def eig_extremes(A):
    w = np.linalg.eigvalsh(A.to_dense())
    return float(w[0]), float(w[-1])


class TestPowerIteration:
    def test_diagonal_matrix_exact(self):
        A = CSRMatrix.from_diagonal([1.0, 5.0, 3.0])
        r = power_iteration(A, tol=1e-10)
        assert r.converged
        assert r.value == pytest.approx(5.0, rel=1e-8)

    def test_laplacian_lambda_max(self):
        A = laplacian_2d(7, 7)
        _, lam_max = eig_extremes(A)
        r = power_iteration(A, tol=1e-9, max_iterations=20000)
        assert r.value == pytest.approx(lam_max, rel=1e-6)

    def test_eigenvector_residual(self):
        A = laplacian_1d(30)
        r = power_iteration(A, tol=1e-9, max_iterations=50000)
        res = np.linalg.norm(A.matvec(r.vector) - r.value * r.vector)
        assert res <= 1e-9 * abs(r.value) * 1.1

    def test_stall_raises_when_requested(self):
        A = laplacian_2d(6, 6)
        with pytest.raises(ConvergenceError):
            power_iteration(A, tol=1e-14, max_iterations=2, raise_on_stall=True)

    def test_stall_returns_estimate_by_default(self):
        A = laplacian_2d(6, 6)
        r = power_iteration(A, tol=1e-14, max_iterations=2)
        assert not r.converged
        assert r.value > 0

    def test_rectangular_rejected(self):
        with pytest.raises(ShapeError):
            power_iteration(CSRMatrix.from_dense(np.ones((2, 3))))

    def test_zero_matrix(self):
        A = CSRMatrix.from_dense(np.zeros((4, 4)))
        r = power_iteration(A)
        assert r.value == pytest.approx(0.0, abs=1e-12)

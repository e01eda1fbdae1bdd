"""Unit tests for condition-number estimation."""

import numpy as np
import pytest

from repro.estimation import spectrum_estimate
from repro.exceptions import NotPositiveDefiniteError, ShapeError
from repro.sparse import CSRMatrix
from repro.workloads import laplacian_1d, laplacian_2d


def true_kappa(A):
    w = np.linalg.eigvalsh(A.to_dense())
    return float(w[-1] / w[0])


class TestSpectrumEstimate:
    def test_laplacian_kappa(self):
        A = laplacian_1d(40)
        est = spectrum_estimate(A, steps=40, seed=1)
        assert est.kappa == pytest.approx(true_kappa(A), rel=0.05)

    def test_estimates_are_inner(self):
        A = laplacian_2d(7, 7)
        w = np.linalg.eigvalsh(A.to_dense())
        est = spectrum_estimate(A, steps=20, seed=2)
        assert est.lambda_min >= w[0] - 1e-8
        assert est.lambda_max <= w[-1] + 1e-8

    def test_kappa_requires_positive_min(self):
        from repro.estimation import SpectrumEstimate

        with pytest.raises(NotPositiveDefiniteError):
            _ = SpectrumEstimate(lambda_min=0.0, lambda_max=1.0).kappa

    def test_rectangular_rejected(self):
        with pytest.raises(ShapeError):
            spectrum_estimate(CSRMatrix.from_dense(np.ones((2, 3))))

"""Unit tests for direction-selection strategies."""

import numpy as np
import pytest

from repro.core import (
    CyclicDirections,
    PermutedCyclicDirections,
)
from repro.core.rgs import randomized_gauss_seidel
from repro.workloads import random_unit_diagonal_spd

from ..conftest import manufactured_system


class TestCyclic:
    def test_cycles_through_coordinates(self):
        c = CyclicDirections(4)
        np.testing.assert_array_equal(c.directions(0, 8), [0, 1, 2, 3, 0, 1, 2, 3])

    def test_single_matches_batch(self):
        c = CyclicDirections(5)
        batch = c.directions(7, 10)
        singles = [c.direction(7 + k) for k in range(10)]
        np.testing.assert_array_equal(batch, singles)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            CyclicDirections(0)

    def test_classic_gauss_seidel_converges(self):
        """The paper's remark: cyclic directions recover classical GS."""
        A = random_unit_diagonal_spd(30, nnz_per_row=4, offdiag_scale=0.6, seed=5)
        b, x_star = manufactured_system(A, seed=6)
        r = randomized_gauss_seidel(
            A, b, sweeps=60, directions=CyclicDirections(30), record_history=False
        )
        assert np.abs(r.x - x_star).max() < 1e-8


class TestPermutedCyclic:
    def test_each_sweep_is_a_permutation(self):
        p = PermutedCyclicDirections(10, seed=3)
        for sweep in range(3):
            d = p.directions(sweep * 10, 10)
            np.testing.assert_array_equal(np.sort(d), np.arange(10))

    def test_sweeps_differ(self):
        p = PermutedCyclicDirections(20, seed=3)
        assert not np.array_equal(p.directions(0, 20), p.directions(20, 20))

    def test_single_matches_batch_across_sweep_boundary(self):
        p = PermutedCyclicDirections(7, seed=4)
        batch = p.directions(5, 10)  # spans two sweeps
        singles = [p.direction(5 + k) for k in range(10)]
        np.testing.assert_array_equal(batch, singles)

    def test_deterministic(self):
        a = PermutedCyclicDirections(12, seed=5).directions(0, 36)
        b = PermutedCyclicDirections(12, seed=5).directions(0, 36)
        np.testing.assert_array_equal(a, b)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            PermutedCyclicDirections(-1)


class TestSORCorrespondence:
    def test_cyclic_rgs_with_step_is_textbook_sor(self):
        """Cyclic directions + step size β reproduce classical SOR with
        relaxation ω = β exactly — the correspondence behind the paper's
        Griebel–Oswald step-size remark (over/under-relaxation)."""
        from repro.workloads import laplacian_2d

        A = laplacian_2d(5, 5)
        n = A.shape[0]
        b, _ = manufactured_system(A, seed=13)
        omega = 1.3
        dense = A.to_dense()
        diag = np.diag(dense)

        # Textbook SOR sweep, in-place ascending coordinate order.
        x_ref = np.zeros(n)
        for _ in range(3):
            for i in range(n):
                sigma = dense[i] @ x_ref - diag[i] * x_ref[i]
                x_ref[i] = (1 - omega) * x_ref[i] + omega * (b[i] - sigma) / diag[i]

        from repro.core import CyclicDirections

        r = randomized_gauss_seidel(
            A, b, sweeps=3, beta=omega, directions=CyclicDirections(n),
            record_history=False,
        )
        np.testing.assert_allclose(r.x, x_ref, rtol=1e-12, atol=1e-14)

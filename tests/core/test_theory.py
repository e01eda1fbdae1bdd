"""Unit tests for the computable convergence theory (Theorems 2–5)."""

import numpy as np
import pytest

from repro.core import (
    bound_report,
    epoch_length,
    iterations_for_accuracy,
    nu_tau,
    omega_tau,
    optimal_beta_consistent,
    optimal_beta_inconsistent,
    max_beta_consistent,
    max_beta_inconsistent,
    rho_infinity,
    rho_two,
    synchronous_bound,
    theorem2_epoch_bound,
    theorem4_epoch_bound,
)
from repro.exceptions import ModelError, ShapeError
from repro.sparse import CSRMatrix
from repro.workloads import random_unit_diagonal_spd

from ..conftest import random_dense


@pytest.fixture(scope="module")
def A():
    return random_unit_diagonal_spd(40, nnz_per_row=5, offdiag_scale=0.8, seed=7)


class TestMatrixCoefficients:
    def test_rho_matches_definition(self, A):
        dense = A.to_dense()
        expected = np.abs(dense).sum(axis=1).max() / A.shape[0]
        assert rho_infinity(A) == pytest.approx(expected)

    def test_rho2_matches_definition(self, A):
        dense = A.to_dense()
        expected = (dense**2).sum(axis=1).max() / A.shape[0]
        assert rho_two(A) == pytest.approx(expected)

    def test_rho2_le_rho_unit_diagonal(self, A):
        """For unit-diagonal matrices |A_lr| ≤ 1 entry-wise, so
        ρ₂ ≤ ρ (paper, Section 7 discussion)."""
        assert rho_two(A) <= rho_infinity(A) + 1e-15

    def test_rho2_at_least_one_over_n(self, A):
        """ρ₂ ≥ 1/n because the diagonal alone contributes 1/n."""
        assert rho_two(A) >= 1.0 / A.shape[0] - 1e-15

    def test_identity_coefficients(self):
        I = CSRMatrix.identity(10)
        assert rho_infinity(I) == pytest.approx(0.1)
        assert rho_two(I) == pytest.approx(0.1)

    def test_rectangular_rejected(self):
        R = CSRMatrix.from_dense(random_dense(3, 4, seed=1))
        with pytest.raises(ShapeError):
            rho_infinity(R)
        with pytest.raises(ShapeError):
            rho_two(R)

    def test_diagonally_dominant_rho_bound(self):
        """Paper: ρ ≤ 2/n for symmetric diagonally dominant unit-diagonal
        matrices, regardless of sparsity. (random_unit_diagonal_spd keeps
        absolute off-diagonal row sums below 1, i.e. it IS unit-diagonal
        diagonally dominant.)"""
        A_dd = random_unit_diagonal_spd(60, nnz_per_row=12, offdiag_scale=0.95, seed=3)
        assert rho_infinity(A_dd) <= 2.0 / 60 + 1e-12


class TestRateFactors:
    def test_nu_at_unit_step(self):
        # ν_τ(1) = 1 − 2ρτ (Theorem 2's ν).
        assert nu_tau(1.0, 0.01, 10) == pytest.approx(1 - 0.2)

    def test_nu_zero_tau_recovers_synchronous(self):
        # τ=0: ν = 2β − β² = β(2−β), the bound-(2) factor.
        for beta in (0.5, 1.0, 1.5):
            assert nu_tau(beta, 0.123, 0) == pytest.approx(beta * (2 - beta))

    def test_omega_formula(self):
        beta, rho2, tau = 0.4, 0.02, 5
        expected = 2 * beta * (1 - beta - rho2 * tau**2 * beta / 2)
        assert omega_tau(beta, rho2, tau) == pytest.approx(expected)

    def test_optimal_beta_consistent_maximizes_nu(self):
        rho, tau = 0.013, 17
        b_star = optimal_beta_consistent(rho, tau)
        grid = np.linspace(0.01, 1.2, 500)
        values = [nu_tau(b, rho, tau) for b in grid]
        assert nu_tau(b_star, rho, tau) >= max(values) - 1e-10

    def test_optimal_nu_value(self):
        # ν_τ(β̃) = 1/(1 + 2ρτ) (Section 6 discussion).
        rho, tau = 0.02, 9
        b_star = optimal_beta_consistent(rho, tau)
        assert nu_tau(b_star, rho, tau) == pytest.approx(1 / (1 + 2 * rho * tau))

    def test_optimal_beta_inconsistent_maximizes_omega(self):
        rho2, tau = 0.008, 11
        b_star = optimal_beta_inconsistent(rho2, tau)
        grid = np.linspace(0.01, 0.99, 500)
        values = [omega_tau(b, rho2, tau) for b in grid]
        assert omega_tau(b_star, rho2, tau) >= max(values) - 1e-10

    def test_max_beta_consistent_boundary(self):
        rho, tau = 0.01, 20
        b_max = max_beta_consistent(rho, tau)
        assert nu_tau(b_max, rho, tau) == pytest.approx(0.0, abs=1e-12)
        assert nu_tau(0.99 * b_max, rho, tau) > 0

    def test_max_beta_inconsistent_boundary(self):
        rho2, tau = 0.004, 15
        b_max = max_beta_inconsistent(rho2, tau)
        assert omega_tau(b_max, rho2, tau) == pytest.approx(0.0, abs=1e-12)
        assert omega_tau(0.99 * b_max, rho2, tau) > 0

    def test_any_tau_admits_convergent_consistent_step(self):
        """Section 6's point: for ANY delay bound there is a convergent
        step size in the consistent model."""
        for tau in (10, 1000, 10**6):
            b = optimal_beta_consistent(0.05, tau)
            assert nu_tau(b, 0.05, tau) > 0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ModelError):
            optimal_beta_consistent(-0.1, 5)
        with pytest.raises(ModelError):
            optimal_beta_inconsistent(0.1, -5)


class TestBoundCurves:
    def test_synchronous_bound_monotone(self):
        m = np.arange(0, 100)
        curve = synchronous_bound(m, 1.0, 0.5, 50)
        assert curve[0] == 1.0
        assert np.all(np.diff(curve) < 0)

    def test_synchronous_bound_beta_validated(self):
        with pytest.raises(ModelError):
            synchronous_bound(10, 2.5, 0.5, 50)

    def test_epoch_bound_decays(self):
        curve = theorem2_epoch_bound(np.arange(10), 1.0, 0.001, 8, 0.3, 1.9)
        assert np.all(np.diff(curve) < 0)

    def test_epoch_bound_worse_with_larger_tau(self):
        small = theorem2_epoch_bound(5, 1.0, 0.002, 4, 0.3, 1.9)
        large = theorem2_epoch_bound(5, 1.0, 0.002, 64, 0.3, 1.9)
        assert float(large) > float(small)

    def test_theorem4_bounds_decay(self):
        curve = theorem4_epoch_bound(np.arange(8), 0.3, 0.0005, 6, 0.3, 1.9)
        assert np.all(np.diff(curve) < 0)
        assert np.all(curve > 0)

    def test_lambda_max_range_validated(self):
        with pytest.raises(ModelError):
            epoch_length(200.0, 100)
        with pytest.raises(ModelError):
            epoch_length(0.0, 100)

    def test_epoch_length_approximation(self):
        # T₀ ≈ 0.693 n / λ_max for λ_max ≪ n.
        n, lam = 10000, 2.0
        T0 = epoch_length(lam, n)
        assert T0 == pytest.approx(0.693 * n / lam, rel=0.01)

    def test_kappa_validation(self):
        with pytest.raises(ModelError):
            theorem2_epoch_bound(3, 1.0, 0.001, 4, 0.0, 1.0)
        with pytest.raises(ModelError):
            theorem2_epoch_bound(3, 1.0, 0.001, 4, 2.0, 1.0)


class TestIterationCounts:
    def test_markov_count_formula(self):
        m = iterations_for_accuracy(0.1, 0.05, 1.0, 0.4, 1000)
        expected = np.ceil(1000 / 0.4 * np.log(1 / (0.05 * 0.01)))
        assert m == int(expected)

    def test_tighter_accuracy_more_iterations(self):
        loose = iterations_for_accuracy(0.1, 0.1, 1.0, 0.4, 1000)
        tight = iterations_for_accuracy(0.01, 0.1, 1.0, 0.4, 1000)
        assert tight > loose

    def test_validation(self):
        with pytest.raises(ModelError):
            iterations_for_accuracy(0.0, 0.1, 1.0, 0.4, 100)
        with pytest.raises(ModelError):
            iterations_for_accuracy(0.1, 1.5, 1.0, 0.4, 100)
        with pytest.raises(ModelError):
            iterations_for_accuracy(0.1, 0.1, 2.5, 0.4, 100)
        with pytest.raises(ModelError):
            iterations_for_accuracy(0.1, 0.1, 1.0, 0.0, 100)


class TestBoundReport:
    def test_report_fields(self, A):
        rep = bound_report(A, tau=4, beta=1.0)
        assert rep.n == A.shape[0]
        assert rep.rho == pytest.approx(rho_infinity(A))
        assert rep.rho2 == pytest.approx(rho_two(A))
        assert rep.nu == pytest.approx(nu_tau(1.0, rep.rho, 4))

    def test_theorem2_applicability(self, A):
        rho = rho_infinity(A)
        tau_ok = int(0.4 / rho)  # 2ρτ < 1
        assert bound_report(A, tau=tau_ok, beta=1.0).theorem2_applicable
        tau_bad = int(1.0 / rho) + 1
        assert not bound_report(A, tau=tau_bad, beta=1.0).theorem2_applicable

    def test_theorem4_needs_beta_below_one(self, A):
        assert not bound_report(A, tau=1, beta=1.0).theorem4_applicable
        assert bound_report(A, tau=1, beta=0.4).theorem4_applicable

    def test_lines_render(self, A):
        lines = bound_report(A, tau=4, beta=0.5).lines()
        assert any("rho" in line for line in lines)
        assert any("omega" in line for line in lines)

"""Property-based tests for the theory module's analytic identities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    epoch_length,
    nu_tau,
    omega_tau,
    synchronous_bound,
    theorem2_epoch_bound,
    theorem4_epoch_bound,
)

lam_pairs = st.tuples(
    st.floats(0.01, 0.9), st.floats(1.0, 1.9)
)  # (lambda_min, lambda_max) with min < max guaranteed below


class TestRateFactorProperties:
    @given(st.floats(0.01, 1.0), st.floats(0.0, 0.05), st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_nu_monotone_decreasing_in_tau(self, beta, rho, tau):
        assert nu_tau(beta, rho, tau + 1) <= nu_tau(beta, rho, tau) + 1e-15

    @given(st.floats(0.01, 0.99), st.floats(0.0, 0.05), st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_omega_monotone_decreasing_in_tau(self, beta, rho2, tau):
        assert omega_tau(beta, rho2, tau + 1) <= omega_tau(beta, rho2, tau) + 1e-15

    @given(st.floats(0.0, 0.05), st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_nu_concave_peak_inside_admissible_range(self, rho, tau):
        """ν_τ is a downward parabola in β: the optimum is interior and
        ν vanishes at 0 and at the admissible sup 2/(1+2ρτ)."""
        sup = 2.0 / (1.0 + 2.0 * rho * tau)
        assert abs(nu_tau(0.0, rho, tau)) < 1e-12
        assert abs(nu_tau(sup, rho, tau)) < 1e-9
        mid = sup / 2.0
        assert nu_tau(mid, rho, tau) > 0

    @given(
        st.floats(0.05, 1.0),
        st.floats(0.0, 0.03),
        st.integers(0, 30),
        lam_pairs,
    )
    @settings(max_examples=100, deadline=None)
    def test_epoch_bound_in_unit_interval(self, beta, rho, tau, lams):
        lam_min, lam_max = lams
        lam_max = max(lam_max, lam_min + 0.01)
        value = float(theorem2_epoch_bound(1, beta, rho, tau, lam_min, lam_max))
        # One epoch factor: 1 − ν/2κ ∈ (0, 1] whenever ν ≥ 0; may exceed 1
        # only when the step is inadmissible (ν < 0).
        if nu_tau(beta, rho, tau) >= 0:
            assert 0.0 < value <= 1.0 + 1e-12

    @given(
        st.floats(0.05, 0.45),
        st.floats(0.001, 0.02),
        st.integers(0, 10),
        lam_pairs,
    )
    @settings(max_examples=100, deadline=None)
    def test_theorem4_epoch_bound_bounded(self, beta, rho2, tau, lams):
        lam_min, lam_max = lams
        lam_max = max(lam_max, lam_min + 0.01)
        value = float(theorem4_epoch_bound(1, beta, rho2, tau, lam_min, lam_max))
        if omega_tau(beta, rho2, tau) >= 0:
            assert 0.0 < value <= 1.0 + 1e-12


class TestBoundCurveProperties:
    @given(st.floats(0.05, 1.9), st.floats(0.01, 0.9), st.integers(2, 5000))
    @settings(max_examples=150, deadline=None)
    def test_synchronous_bound_monotone_and_positive(self, beta, lam_min, n):
        lam_min = min(lam_min, n / 2.0)
        curve = synchronous_bound(np.arange(30), beta, lam_min, n)
        assert np.all(curve > 0)
        assert np.all(np.diff(curve) <= 1e-15)

    @given(st.floats(0.01, 10.0), st.integers(20, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_epoch_length_bounds(self, lam, n):
        lam = min(lam, n * 0.5)
        T0 = epoch_length(lam, n)
        # T0 is the smallest m with (1-lam/n)^m <= 1/2.
        decay = 1.0 - lam / n
        assert decay**T0 <= 0.5 + 1e-12
        if T0 > 1:
            assert decay ** (T0 - 1) > 0.5 - 1e-12

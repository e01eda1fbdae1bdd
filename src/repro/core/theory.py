"""The paper's convergence theory, computable.

Every quantity in Theorems 2–5 is implemented here so experiments can plot
measured error envelopes against the proven bounds:

* matrix coefficients ``ρ = ‖A‖_∞/n`` (Theorem 2/3) and
  ``ρ₂ = max_l (1/n)Σ_r A²_{lr}`` (Theorem 4) — note ``ρ₂ ≤ ρ`` for
  unit-diagonal matrices (off-diagonal entries have magnitude ≤ 1) and
  ``ρ₂ ≥ 1/n``;
* rate factors ``ν_τ(β) = 2β − β² − 2ρτβ²`` and
  ``ω_τ(β) = 2β(1 − β − ρ₂τ²β/2)``;
* the epoch length ``T₀ = ⌈log(1/2)/log(1 − λ_max/n)⌉ ≈ 0.693 n/λ_max``;
* full bound curves ``E_m/E_0`` for the synchronous iteration (bound (2))
  and the epoch-synchronized asynchronous iteration (assertion (a)
  applied per epoch);
* the least-squares translations of Theorem 5 (κ², σ_max on ``AᵀA``).

The theorems' hypotheses (e.g. ``2ρτ < 1`` for Theorem 2) are checked and
reported through :class:`BoundReport`, because a major *experimental*
finding of the paper is that real matrices (like its social-media Gram
matrix) can violate them while the algorithm still converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError, ShapeError
from ..sparse import CSRMatrix

__all__ = [
    "rho_infinity",
    "rho_two",
    "nu_tau",
    "omega_tau",
    "epoch_length",
    "synchronous_bound",
    "theorem2_epoch_bound",
    "theorem4_epoch_bound",
    "iterations_for_accuracy",
    "BoundReport",
    "bound_report",
]


# ----------------------------------------------------------------------
# Matrix coefficients
# ----------------------------------------------------------------------

def rho_infinity(A: CSRMatrix) -> float:
    """``ρ = ‖A‖_∞ / n = max_l (1/n) Σ_r |A_lr|`` (Theorems 2 and 3)."""
    if not A.is_square():
        raise ShapeError("rho is defined for square matrices")
    n = A.shape[0]
    if n == 0:
        return 0.0
    return A.infinity_norm() / n


def rho_two(A: CSRMatrix) -> float:
    """``ρ₂ = max_l (1/n) Σ_r A²_{lr}`` (Theorem 4)."""
    if not A.is_square():
        raise ShapeError("rho2 is defined for square matrices")
    n = A.shape[0]
    if n == 0:
        return 0.0
    return float(A.row_squared_sums().max(initial=0.0)) / n


# ----------------------------------------------------------------------
# Rate factors
# ----------------------------------------------------------------------

def nu_tau(beta: float, rho: float, tau: int) -> float:
    """``ν_τ(β) = 2β − β² − 2ρτβ²`` (Theorem 3; Theorem 2 is β = 1)."""
    beta = float(beta)
    return 2.0 * beta - beta * beta - 2.0 * float(rho) * int(tau) * beta * beta


def omega_tau(beta: float, rho2: float, tau: int) -> float:
    """``ω_τ(β) = 2β(1 − β − ρ₂τ²β/2)`` (Theorem 4)."""
    beta = float(beta)
    t = float(int(tau))
    return 2.0 * beta * (1.0 - beta - float(rho2) * t * t * beta / 2.0)


def epoch_length(lambda_max: float, n: int) -> int:
    """``T₀ = ⌈log(1/2)/log(1 − λ_max/n)⌉ ≈ 0.693 n / λ_max`` —
    the iteration count after which assertion (a) guarantees its factor."""
    n = int(n)
    lam = float(lambda_max)
    if not 0.0 < lam < n:
        raise ModelError(f"need 0 < lambda_max < n, got lambda_max={lam}, n={n}")
    return int(math.ceil(math.log(0.5) / math.log(1.0 - lam / n)))


# ----------------------------------------------------------------------
# Bound curves (all return E_m / E_0 multipliers)
# ----------------------------------------------------------------------

def synchronous_bound(
    m: np.ndarray | int, beta: float, lambda_min: float, n: int
) -> np.ndarray:
    """Bound (2): ``E_m/E_0 ≤ (1 − β(2−β)λ_min/n)^m``."""
    beta = float(beta)
    if not 0.0 < beta < 2.0:
        raise ModelError(f"bound (2) requires beta in (0, 2), got {beta}")
    rate = 1.0 - beta * (2.0 - beta) * float(lambda_min) / int(n)
    m_arr = np.asarray(m, dtype=np.float64)
    return np.power(rate, m_arr)


def _kappa(lambda_min: float, lambda_max: float) -> float:
    lam_min = float(lambda_min)
    lam_max = float(lambda_max)
    if lam_min <= 0 or lam_max < lam_min:
        raise ModelError(
            f"need 0 < lambda_min <= lambda_max, got ({lam_min}, {lam_max})"
        )
    return lam_max / lam_min


def theorem2_epoch_bound(
    epochs: np.ndarray | int,
    beta: float,
    rho: float,
    tau: int,
    lambda_min: float,
    lambda_max: float,
) -> np.ndarray:
    """Theorem 2(a)/3(a) applied per synchronized epoch:
    ``E/E_0 ≤ (1 − ν_τ(β)/2κ)^epochs`` (each epoch is ≥ T₀ updates and
    ends with a synchronization, restarting the window)."""
    kappa = _kappa(lambda_min, lambda_max)
    nu = nu_tau(beta, rho, tau)
    factor = 1.0 - nu / (2.0 * kappa)
    return np.power(factor, np.asarray(epochs, dtype=np.float64))


def theorem4_epoch_bound(
    epochs: np.ndarray | int,
    beta: float,
    rho2: float,
    tau: int,
    lambda_min: float,
    lambda_max: float,
) -> np.ndarray:
    """Theorem 4(a) per epoch: ``E/E_0 ≤ (1 − ω_τ(β)/2κ)^epochs``."""
    kappa = _kappa(lambda_min, lambda_max)
    omega = omega_tau(beta, rho2, tau)
    factor = 1.0 - omega / (2.0 * kappa)
    return np.power(factor, np.asarray(epochs, dtype=np.float64))


def iterations_for_accuracy(
    epsilon: float, delta: float, beta: float, lambda_min: float, n: int
) -> int:
    """Markov-inequality iteration count for the synchronous method:
    ``m ≥ n/(β(2−β)λ_min) · ln(1/(δε²))`` gives
    ``Pr(‖x_m − x*‖_A ≥ ε‖x_0 − x*‖_A) ≤ δ`` (Section 3)."""
    epsilon = float(epsilon)
    delta = float(delta)
    beta = float(beta)
    if not 0 < epsilon:
        raise ModelError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ModelError("delta must lie in (0, 1)")
    if not 0 < beta < 2:
        raise ModelError("beta must lie in (0, 2)")
    lam = float(lambda_min)
    if lam <= 0:
        raise ModelError("lambda_min must be positive")
    return int(math.ceil(int(n) / (beta * (2.0 - beta) * lam) * math.log(1.0 / (delta * epsilon**2))))


# ----------------------------------------------------------------------
# Hypothesis checking
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Summary of a matrix/configuration against the theorems' hypotheses.

    The report is diagnostic: benches print it next to measured results so
    readers can see when a run operates outside the proven regime (as the
    paper's own test matrix does).
    """

    n: int
    rho: float
    rho2: float
    tau: int
    beta: float
    nu: float
    omega: float
    theorem2_applicable: bool
    theorem3_applicable: bool
    theorem4_applicable: bool

    def lines(self) -> list[str]:
        return [
            f"n = {self.n}, tau = {self.tau}, beta = {self.beta:.4g}",
            f"rho = {self.rho:.4g} (n*rho = {self.n * self.rho:.4g}), "
            f"rho2 = {self.rho2:.4g} (n*rho2 = {self.n * self.rho2:.4g})",
            f"nu_tau(beta) = {self.nu:.4g}   "
            f"[Theorem 2 applicable: {self.theorem2_applicable}, "
            f"Theorem 3 applicable: {self.theorem3_applicable}]",
            f"omega_tau(beta) = {self.omega:.4g}   "
            f"[Theorem 4 applicable: {self.theorem4_applicable}]",
        ]


def bound_report(A: CSRMatrix, tau: int, beta: float = 1.0) -> BoundReport:
    """Evaluate every theorem hypothesis for ``(A, τ, β)``."""
    tau = int(tau)
    beta = float(beta)
    r = rho_infinity(A)
    r2 = rho_two(A)
    nu = nu_tau(beta, r, tau)
    om = omega_tau(beta, r2, tau)
    return BoundReport(
        n=A.shape[0],
        rho=r,
        rho2=r2,
        tau=tau,
        beta=beta,
        nu=nu,
        omega=om,
        theorem2_applicable=(2.0 * r * tau < 1.0) and beta == 1.0,
        theorem3_applicable=(beta <= 1.0) and (nu > 0.0),
        theorem4_applicable=(0.0 <= beta < 1.0) and (om > 0.0),
    )

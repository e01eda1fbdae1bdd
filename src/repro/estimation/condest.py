"""Condition-number estimation (the paper's κ diagnostics).

The paper verifies its test matrix is highly ill-conditioned "using an
iterative condition-number estimator" (Avron–Druinsky–Toledo).
:func:`spectrum_estimate` provides the same capability with one Lanczos
run: fast and slightly inner (both Ritz edges approach the true edges
from inside, so κ is *under*-estimated — the safe direction for a
diagnostic).

``repro estimate`` prints its edges next to the theory's coefficients
(ρ, ρ₂, the epoch length T₀), and the ablation benches put its κ into
the Theorem 2 epoch factor ``1 − ν_τ/2κ``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import NotPositiveDefiniteError, ShapeError
from ..sparse import CSRMatrix
from .lanczos import lanczos

__all__ = ["SpectrumEstimate", "spectrum_estimate"]


@dataclass(frozen=True)
class SpectrumEstimate:
    """Estimated spectral edges and condition number of an SPD matrix."""

    lambda_min: float
    lambda_max: float

    @property
    def kappa(self) -> float:
        if self.lambda_min <= 0:
            raise NotPositiveDefiniteError(
                f"estimated lambda_min = {self.lambda_min:g} is not positive"
            )
        return self.lambda_max / self.lambda_min


def spectrum_estimate(
    A: CSRMatrix, *, steps: int = 60, seed: int = 0
) -> SpectrumEstimate:
    """Both spectral edges from a single Lanczos run."""
    if not A.is_square():
        raise ShapeError(f"spectrum estimation needs a square matrix, got {A.shape}")
    result = lanczos(A, steps=steps, seed=seed)
    return SpectrumEstimate(lambda_min=result.ritz_min, lambda_max=result.ritz_max)

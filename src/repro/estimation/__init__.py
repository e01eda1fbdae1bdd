"""Spectral estimation: power iteration, Lanczos, condition numbers."""

from .condest import SpectrumEstimate, spectrum_estimate
from .lanczos import LanczosResult, lanczos, tridiagonal_eigenvalues
from .power import PowerResult, power_iteration

__all__ = [
    "LanczosResult",
    "PowerResult",
    "SpectrumEstimate",
    "lanczos",
    "power_iteration",
    "spectrum_estimate",
    "tridiagonal_eigenvalues",
]

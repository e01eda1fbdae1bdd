"""Sparse-matrix substrate: CSR storage, COO construction, algebra, I/O.

Implemented from scratch on NumPy arrays; this package is the storage and
kernel layer underneath every solver in :mod:`repro`.
"""

from .coo import COOBuilder
from .csr import CSRMatrix
from .io import read_matrix_market, write_matrix_market
from .ops import (
    add,
    gram,
    matmul,
    max_abs_difference,
    row_nnz_statistics,
    symmetric_rescale,
)

__all__ = [
    "COOBuilder",
    "CSRMatrix",
    "read_matrix_market",
    "write_matrix_market",
    "add",
    "gram",
    "matmul",
    "max_abs_difference",
    "row_nnz_statistics",
    "symmetric_rescale",
]

"""Operations combining or transforming :class:`~repro.sparse.csr.CSRMatrix`.

These are the substrate routines the paper's pipeline needs:

* ``symmetric_rescale`` — the ``A = D B D`` unit-diagonal transform of
  Section 3 ("Non-Unit Diagonal"): analysis happens on the unit-diagonal
  matrix, solves happen on the original through the diagonal map.
* ``gram`` — ``AᵀA`` for the least-squares/normal-equations path
  (Section 8) and for building the social-media Gram workload.
* ``matmul`` / ``add`` / ``max_abs_difference`` — general CSR algebra used
  by workload generators and tests.

All routines use row-wise dense accumulation (``bincount`` scatter-add),
which is the right trade-off for matrices whose column count is moderate —
true of every workload in this repository.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import NotPositiveDefiniteError, ShapeError
from .csr import CSRMatrix

__all__ = [
    "symmetric_rescale",
    "gram",
    "matmul",
    "add",
    "max_abs_difference",
    "row_nnz_statistics",
]


def symmetric_rescale(B: CSRMatrix) -> tuple[CSRMatrix, np.ndarray]:
    """Rescale an SPD matrix to unit diagonal: ``A = D⁻¹ B D⁻¹``.

    Returns ``(A, d)`` where ``d[i] = sqrt(B[i, i])`` and
    ``A[i, j] = B[i, j] / (d[i] d[j])`` has unit diagonal. The paper's
    Section 3 shows solving ``B y = z`` is equivalent to solving
    ``A x = D⁻¹ z`` with ``y = D⁻¹ x``.

    Raises
    ------
    NotPositiveDefiniteError
        If any diagonal entry is not strictly positive (an SPD witness
        violation).
    """
    if not B.is_square():
        raise ShapeError(f"symmetric_rescale requires a square matrix, got {B.shape}")
    diag = B.diagonal()
    if np.any(diag <= 0):
        bad = int(np.argmin(diag))
        raise NotPositiveDefiniteError(
            f"diagonal entry B[{bad},{bad}] = {diag[bad]:g} is not positive; "
            "matrix cannot be SPD"
        )
    d = np.sqrt(diag)
    inv = 1.0 / d
    A = B.scale_rows(inv).scale_cols(inv)
    return A, d


def gram(A: CSRMatrix, *, shift: float = 0.0) -> CSRMatrix:
    """Compute the Gram matrix ``AᵀA (+ shift·I)`` as CSR.

    Row ``t`` of the Gram matrix is assembled by dense accumulation:
    gather every row of ``A`` that has a nonzero in column ``t`` and
    scatter-add its scaled pattern. Cost is ``O(Σ_i nnz(A_i)²)`` — the
    flop count of the product itself.
    """
    At = A.transpose()
    n = A.shape[1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    rows_indices: list[np.ndarray] = []
    rows_data: list[np.ndarray] = []
    acc = np.zeros(n, dtype=np.float64)
    nnz_total = 0
    for t in range(n):
        docs, weights = At.row(t)
        if docs.size == 0 and shift == 0.0:
            indptr[t + 1] = nnz_total
            continue
        for k in range(docs.size):
            cols, vals = A.row(int(docs[k]))
            acc[cols] += weights[k] * vals
        if shift != 0.0:
            acc[t] += shift
        nz = np.flatnonzero(acc)
        rows_indices.append(nz.astype(np.int64))
        rows_data.append(acc[nz].copy())
        acc[nz] = 0.0
        nnz_total += nz.size
        indptr[t + 1] = nnz_total
    indices = (
        np.concatenate(rows_indices) if rows_indices else np.empty(0, dtype=np.int64)
    )
    data = np.concatenate(rows_data) if rows_data else np.empty(0, dtype=np.float64)
    return CSRMatrix((n, n), indptr, indices, data, check=False, sorted_indices=True)


def matmul(A: CSRMatrix, B: CSRMatrix) -> CSRMatrix:
    """Sparse–sparse product ``A @ B`` via row-wise dense accumulation."""
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"cannot multiply {A.shape} by {B.shape}")
    m, n = A.shape[0], B.shape[1]
    indptr = np.zeros(m + 1, dtype=np.int64)
    rows_indices: list[np.ndarray] = []
    rows_data: list[np.ndarray] = []
    acc = np.zeros(n, dtype=np.float64)
    nnz_total = 0
    for i in range(m):
        a_cols, a_vals = A.row(i)
        for k in range(a_cols.size):
            b_cols, b_vals = B.row(int(a_cols[k]))
            acc[b_cols] += a_vals[k] * b_vals
        nz = np.flatnonzero(acc)
        if nz.size:
            rows_indices.append(nz.astype(np.int64))
            rows_data.append(acc[nz].copy())
            acc[nz] = 0.0
            nnz_total += nz.size
        indptr[i + 1] = nnz_total
    indices = (
        np.concatenate(rows_indices) if rows_indices else np.empty(0, dtype=np.int64)
    )
    data = np.concatenate(rows_data) if rows_data else np.empty(0, dtype=np.float64)
    return CSRMatrix((m, n), indptr, indices, data, check=False, sorted_indices=True)


def add(A: CSRMatrix, B: CSRMatrix, *, alpha: float = 1.0, beta: float = 1.0) -> CSRMatrix:
    """Linear combination ``alpha·A + beta·B`` as CSR."""
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch in add: {A.shape} vs {B.shape}")
    from .coo import COOBuilder

    builder = COOBuilder(*A.shape)
    a_rows = np.repeat(np.arange(A.shape[0], dtype=np.int64), A.row_nnz())
    b_rows = np.repeat(np.arange(B.shape[0], dtype=np.int64), B.row_nnz())
    if A.nnz:
        builder.add_batch(a_rows, A.indices, alpha * A.data)
    if B.nnz:
        builder.add_batch(b_rows, B.indices, beta * B.data)
    return builder.to_csr()


def max_abs_difference(A: CSRMatrix, B: CSRMatrix) -> float:
    """``max_ij |A_ij − B_ij|`` over the union sparsity pattern."""
    diff = add(A, B, alpha=1.0, beta=-1.0)
    if diff.nnz == 0:
        return 0.0
    return float(np.max(np.abs(diff.data)))


def row_nnz_statistics(A: CSRMatrix) -> dict[str, float]:
    """Summary of the row-size distribution — the paper's C₁/C₂ scenario
    diagnostics (min, max, mean, skew ratio ``C₂/C₁`` over nonempty rows).
    """
    counts = A.row_nnz()
    nonempty = counts[counts > 0]
    if nonempty.size == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "skew_ratio": 0.0, "empty_rows": float(A.shape[0])}
    c1 = float(nonempty.min())
    c2 = float(nonempty.max())
    return {
        "min": c1,
        "max": c2,
        "mean": float(counts.mean()),
        "skew_ratio": c2 / c1,
        "empty_rows": float(np.sum(counts == 0)),
    }

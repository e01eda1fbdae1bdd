"""Compressed Sparse Row (CSR) matrix.

This is the storage format every solver in the library operates on. It is
implemented from scratch on top of NumPy arrays (``indptr`` / ``indices`` /
``data``) with vectorized kernels:

* matrix–vector and matrix–(dense)matrix products (the latter for
  multi-right-hand-side solves and every residual check), on one of two
  paths: the native C kernel of :mod:`repro._native` when the data is
  float64 and the operand casts to it safely, else a NumPy
  gather-multiply and ``reduceat`` segmented sum (the fallback when no
  compiler is available, and the test oracle),
* transposition via a counting sort,
* O(log nnz(row)) random element access via binary search — the access
  pattern the asynchronous simulator relies on to apply delayed-write
  corrections cheaply.

Row index arrays are kept **sorted by column**; this invariant is what makes
binary-search element access valid, and it is checked (optionally) at
construction.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .. import _native
from ..exceptions import ShapeError, StructureError

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A sparse matrix in Compressed Sparse Row format.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr:
        ``int64`` array of length ``nrows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]`` / ``data[indptr[i]:indptr[i+1]]``.
    indices:
        Column indices, sorted within each row.
    data:
        Stored values (explicit zeros allowed).
    check:
        Validate the structural invariants (monotone ``indptr``, in-range
        and per-row sorted strictly increasing ``indices``). Disable only
        when the caller guarantees them (internal fast paths do).
    sorted_indices:
        Declare that rows are already sorted; when ``False`` the rows are
        sorted at construction.

    Notes
    -----
    Instances are *logically immutable*: no public method mutates the
    stored arrays, and solvers never write into a matrix. This is what
    makes sharing one matrix across simulated processors safe.
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(self, shape, indptr, indices, data, *, check=True, sorted_indices=False):
        nrows, ncols = (int(shape[0]), int(shape[1]))
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"matrix dimensions must be non-negative, got {shape}")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = np.ascontiguousarray(data)
        if data.dtype.kind not in "fc":
            data = data.astype(np.float64)
        if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
            raise StructureError("indptr, indices and data must be one-dimensional")
        if indptr.shape[0] != nrows + 1:
            raise StructureError(
                f"indptr has length {indptr.shape[0]}, expected nrows+1 = {nrows + 1}"
            )
        if indices.shape[0] != data.shape[0]:
            raise StructureError(
                f"indices ({indices.shape[0]}) and data ({data.shape[0]}) lengths differ"
            )
        self.shape = (nrows, ncols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        if not sorted_indices:
            self._sort_rows()
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_dense(cls, array, *, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping entries with ``|a| <= tol``."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={array.ndim}")
        mask = np.abs(array) > tol
        rows, cols = np.nonzero(mask)
        vals = array[rows, cols]
        nrows, ncols = array.shape
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        if rows.size:
            np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
        return cls(
            array.shape, indptr, cols.astype(np.int64), vals,
            check=False, sorted_indices=True,
        )

    @classmethod
    def identity(cls, n: int, *, scale: float = 1.0) -> "CSRMatrix":
        """The ``n×n`` (scaled) identity."""
        n = int(n)
        return cls(
            (n, n),
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.full(n, float(scale)),
            check=False,
            sorted_indices=True,
        )

    @classmethod
    def from_diagonal(cls, diag) -> "CSRMatrix":
        """Diagonal matrix from a 1-D vector."""
        diag = np.asarray(diag, dtype=np.float64)
        if diag.ndim != 1:
            raise ShapeError("diagonal must be one-dimensional")
        n = diag.shape[0]
        return cls(
            (n, n),
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            diag.copy(),
            check=False,
            sorted_indices=True,
        )

    # ------------------------------------------------------------------
    # Structural invariants
    # ------------------------------------------------------------------

    def _sort_rows(self) -> None:
        for i in range(self.shape[0]):
            s, e = self.indptr[i], self.indptr[i + 1]
            if e - s > 1:
                seg = self.indices[s:e]
                if np.any(seg[1:] < seg[:-1]):
                    order = np.argsort(seg, kind="stable")
                    self.indices[s:e] = seg[order]
                    self.data[s:e] = self.data[s:e][order]

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if self.indptr[0] != 0:
            raise StructureError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise StructureError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.shape[0]:
            raise StructureError(
                f"indptr[-1]={self.indptr[-1]} does not match nnz={self.indices.shape[0]}"
            )
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= ncols:
                raise StructureError("column index out of range")
        # Strictly increasing within each row (no duplicates).
        for i in range(nrows):
            seg = self.indices[self.indptr[i] : self.indptr[i + 1]]
            if seg.size > 1 and np.any(seg[1:] <= seg[:-1]):
                raise StructureError(f"row {i} has unsorted or duplicate column indices")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries (explicit zeros count)."""
        return int(self.indices.shape[0])

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy(),
            check=False, sorted_indices=True,
        )

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(columns, values)`` views of row ``i`` (no copies)."""
        i = int(i)
        if not 0 <= i < self.shape[0]:
            raise ShapeError(f"row index {i} out of range for {self.shape[0]} rows")
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    def row_nnz(self) -> np.ndarray:
        """Per-row stored-entry counts, shape ``(nrows,)``."""
        return np.diff(self.indptr)

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(i, columns, values)`` for every row."""
        for i in range(self.shape[0]):
            s, e = self.indptr[i], self.indptr[i + 1]
            yield i, self.indices[s:e], self.data[s:e]

    def get(self, i: int, j: int) -> float:
        """Element access ``A[i, j]`` via binary search: O(log nnz(row))."""
        i = int(i)
        j = int(j)
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
            raise ShapeError(f"index ({i}, {j}) out of bounds for shape {self.shape}")
        s, e = self.indptr[i], self.indptr[i + 1]
        pos = s + np.searchsorted(self.indices[s:e], j)
        if pos < e and self.indices[pos] == j:
            return float(self.data[pos])
        return 0.0

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """Compute ``A[i, :] @ x`` touching only the row's stored entries."""
        s, e = self.indptr[i], self.indptr[i + 1]
        if s == e:
            return 0.0
        return float(self.data[s:e] @ x[self.indices[s:e]])

    def rows_dot(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Batched row products: ``[A[r, :] @ x for r in rows]``, vectorized.

        ``x`` may be 1-D (returns shape ``(len(rows),)``) or 2-D with shape
        ``(ncols, k)`` (returns ``(len(rows), k)``). Rows may repeat. This
        is the gather kernel of the phased asynchronous simulator: one call
        evaluates the stale-view products of a whole batch of updates in
        ``O(Σ nnz(row))`` vectorized work.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ShapeError("rows must be one-dimensional")
        x = np.asarray(x)
        counts = self.indptr[rows + 1] - self.indptr[rows]
        total = int(counts.sum())
        out_shape = (rows.size,) if x.ndim == 1 else (rows.size, x.shape[1])
        out = np.zeros(out_shape, dtype=np.float64)
        if total == 0:
            return out
        # Flat positions into indices/data for all gathered rows:
        # for segment s (row rows[s]) the positions are
        # indptr[rows[s]] + (0 .. counts[s]-1).
        seg_out_starts = np.zeros(rows.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=seg_out_starts[1:])
        flat = (
            np.repeat(self.indptr[rows] - seg_out_starts, counts)
            + np.arange(total, dtype=np.int64)
        )
        cols = self.indices[flat]
        vals = self.data[flat]
        if x.ndim == 1:
            products = vals * x[cols]
        else:
            products = vals[:, None] * x[cols, :]
        nonempty = counts > 0
        sums = np.add.reduceat(products, seg_out_starts[nonempty], axis=0)
        out[nonempty] = sums
        return out

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------

    def _segment_sums(self, products: np.ndarray) -> np.ndarray:
        """Sum ``products`` (aligned with ``data``) within each row.

        Handles empty rows: a run of empty rows contributes a zero-width
        ``reduceat`` segment that is skipped, and their outputs stay 0.
        Works for 1-D (vector product) and 2-D (multi-RHS) ``products``.
        """
        nrows = self.shape[0]
        out_shape = (nrows,) if products.ndim == 1 else (nrows, products.shape[1])
        out = np.zeros(out_shape, dtype=np.result_type(products.dtype, np.float64))
        if products.shape[0] == 0:
            return out
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        if not np.any(nonempty):
            return out
        sums = np.add.reduceat(products, starts[nonempty], axis=0)
        out[nonempty] = sums
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Matrix–vector product ``A @ x``."""
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != self.shape[1]:
            raise ShapeError(
                f"matvec operand has shape {x.shape}, expected ({self.shape[1]},)"
            )
        out = _native.csr_matmat(self.indptr, self.indices, self.data, x[:, None])
        if out is not None:
            return out[:, 0]
        products = self.data * x[self.indices]
        return self._segment_sums(products)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transposed product ``A.T @ y`` without materializing the transpose."""
        y = np.asarray(y)
        if y.ndim != 1 or y.shape[0] != self.shape[0]:
            raise ShapeError(
                f"rmatvec operand has shape {y.shape}, expected ({self.shape[0]},)"
            )
        weights = np.repeat(y, np.diff(self.indptr)) * self.data
        return np.bincount(self.indices, weights=weights, minlength=self.shape[1]).astype(
            np.result_type(self.data.dtype, np.float64)
        )

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Product with a dense matrix: ``A @ X`` for ``X`` of shape ``(ncols, k)``."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != self.shape[1]:
            raise ShapeError(
                f"matmat operand has shape {X.shape}, expected ({self.shape[1]}, k)"
            )
        out = _native.csr_matmat(self.indptr, self.indices, self.data, X)
        if out is not None:
            return out
        products = self.data[:, None] * X[self.indices, :]
        return self._segment_sums(products)

    def __matmul__(self, other):
        other = np.asarray(other) if not isinstance(other, CSRMatrix) else other
        if isinstance(other, CSRMatrix):
            from .ops import matmul

            return matmul(self, other)
        if other.ndim == 1:
            return self.matvec(other)
        if other.ndim == 2:
            return self.matmat(other)
        raise ShapeError(f"cannot multiply CSRMatrix by array of ndim={other.ndim}")

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------

    def transpose(self) -> "CSRMatrix":
        """Return ``A.T`` as a new CSR matrix (counting-sort conversion)."""
        nrows, ncols = self.shape
        nnz = self.nnz
        t_indptr = np.zeros(ncols + 1, dtype=np.int64)
        if nnz:
            np.cumsum(np.bincount(self.indices, minlength=ncols), out=t_indptr[1:])
        t_indices = np.empty(nnz, dtype=np.int64)
        t_data = np.empty(nnz, dtype=self.data.dtype)
        if nnz:
            # Row index of every stored entry, then a stable sort by column
            # yields, within each column, entries ordered by row — exactly
            # the sorted-row invariant of the transpose.
            entry_rows = np.repeat(
                np.arange(nrows, dtype=np.int64), np.diff(self.indptr)
            )
            order = np.argsort(self.indices, kind="stable")
            t_indices[:] = entry_rows[order]
            t_data[:] = self.data[order]
        return CSRMatrix(
            (ncols, nrows), t_indptr, t_indices, t_data, check=False, sorted_indices=True
        )

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array."""
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            entry_rows = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
            out[entry_rows, self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal as a dense vector (zeros where absent)."""
        n = min(self.shape)
        diag = np.zeros(n, dtype=np.float64)
        if self.nnz:
            entry_rows = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
            on_diag = entry_rows == self.indices
            diag[entry_rows[on_diag]] = self.data[on_diag]
        return diag

    def scale_rows(self, s: np.ndarray) -> "CSRMatrix":
        """Return ``diag(s) @ A``."""
        s = np.asarray(s, dtype=np.float64)
        if s.shape != (self.shape[0],):
            raise ShapeError(f"row scale has shape {s.shape}, expected ({self.shape[0]},)")
        new_data = self.data * np.repeat(s, np.diff(self.indptr))
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), new_data,
            check=False, sorted_indices=True,
        )

    def scale_cols(self, s: np.ndarray) -> "CSRMatrix":
        """Return ``A @ diag(s)``."""
        s = np.asarray(s, dtype=np.float64)
        if s.shape != (self.shape[1],):
            raise ShapeError(f"column scale has shape {s.shape}, expected ({self.shape[1]},)")
        return CSRMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data * s[self.indices],
            check=False, sorted_indices=True,
        )

    def drop_explicit_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        """Return a copy without entries whose magnitude is ``<= tol``."""
        keep = np.abs(self.data) > tol
        entry_rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        rows = entry_rows[keep]
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        if rows.size:
            np.cumsum(np.bincount(rows, minlength=self.shape[0]), out=indptr[1:])
        return CSRMatrix(
            self.shape, indptr, self.indices[keep], self.data[keep],
            check=False, sorted_indices=True,
        )

    # ------------------------------------------------------------------
    # Predicates & norms
    # ------------------------------------------------------------------

    def is_square(self) -> bool:
        return self.shape[0] == self.shape[1]

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Check ``‖A − Aᵀ‖_∞ <= tol`` structurally (no densification)."""
        if not self.is_square():
            return False
        t = self.transpose()
        if not np.array_equal(self.indptr, t.indptr) or not np.array_equal(
            self.indices, t.indices
        ):
            # Structure differs; fall back to value comparison through
            # the union pattern by checking both directions entry-wise.
            from .ops import max_abs_difference

            return max_abs_difference(self, t) <= tol
        return bool(np.max(np.abs(self.data - t.data), initial=0.0) <= tol)

    def has_unit_diagonal(self, tol: float = 1e-12) -> bool:
        if not self.is_square():
            return False
        return bool(np.max(np.abs(self.diagonal() - 1.0), initial=0.0) <= tol)

    def infinity_norm(self) -> float:
        """``‖A‖_∞ = max_i Σ_j |A_ij|`` — the quantity behind the paper's ρ."""
        if self.nnz == 0:
            return 0.0
        return float(self._segment_sums(np.abs(self.data)).max(initial=0.0))

    def one_norm(self) -> float:
        """``‖A‖₁ = max_j Σ_i |A_ij|``."""
        if self.nnz == 0:
            return 0.0
        colsums = np.bincount(self.indices, weights=np.abs(self.data), minlength=self.shape[1])
        return float(colsums.max(initial=0.0))

    def frobenius_norm(self) -> float:
        """``‖A‖_F``, computed scale-safely (no overflow for entries up
        to the floating-point maximum)."""
        if self.nnz == 0:
            return 0.0
        scale = float(np.max(np.abs(self.data)))
        if scale == 0.0 or not np.isfinite(scale):
            return scale
        scaled = self.data / scale
        return scale * float(np.sqrt(np.sum(scaled * scaled)))

    def row_squared_sums(self) -> np.ndarray:
        """``Σ_j A_ij²`` per row — the quantity behind the paper's ρ₂."""
        return self._segment_sums(self.data * self.data)

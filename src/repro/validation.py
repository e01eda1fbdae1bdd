"""Shared shape/dtype validation for right-hand sides and iterates.

Every engine (the two simulators, the worker pools, and
the :class:`~repro.core.asyrgs.AsyRGS` façade) accepts the
same ``b``/``x0`` contract, so the checks and — importantly — the error
*wording* live in exactly one place. Before this module each path failed
at a different depth with engine-specific phrasing; now a malformed
right-hand side produces the same :class:`~repro.exceptions.ShapeError`
no matter which layer catches it first.

The wording table
-----------------
==================  ==================================================
condition            message produced by
==================  ==================================================
non-numeric dtype    :func:`rhs_dtype_message`
ndim not in (1, 2)   :func:`rhs_ndim_message`
row-count mismatch   :func:`rhs_rows_message`
zero columns         :func:`rhs_empty_message`
k > capacity_k       :func:`rhs_capacity_message`
x0 shape mismatch    :func:`x0_shape_message`
vector-only RHS      :func:`rhs_vector_message`
==================  ==================================================

The table serves rectangular systems too: the least-squares entry
points (``rcd_least_squares``, ``AsyncLeastSquares``,
``normal_equations``) validate their ``b`` against the *row* count of
the rectangle through :func:`check_vector_rhs` — same dtype guard,
vector-specific shape wording — and block-capable AsyRK goes through
:func:`check_rhs` with ``n`` = the number of equations, so a mismatched
rectangular ``b`` produces byte-identical wording to the SPD path.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ShapeError

__all__ = [
    "check_rhs",
    "check_vector_rhs",
    "check_x0",
    "rhs_dtype_message",
    "rhs_ndim_message",
    "rhs_rows_message",
    "rhs_empty_message",
    "rhs_capacity_message",
    "rhs_vector_message",
    "x0_shape_message",
]


def rhs_dtype_message(name: str, dtype) -> str:
    return (
        f"{name} has dtype {dtype}, which cannot be converted to float64; "
        "right-hand sides must be real-valued"
    )


def rhs_ndim_message(name: str, shape: tuple) -> str:
    return (
        f"{name} has {len(shape)} dimensions (shape {shape}); expected a "
        "vector (n,) or a block (n, k) of right-hand sides"
    )


def rhs_rows_message(name: str, shape: tuple, n: int) -> str:
    return f"{name} has shape {shape}, expected ({n},) or ({n}, k)"


def rhs_empty_message(name: str = "b") -> str:
    return f"the RHS block {name} must have at least one column"


def rhs_capacity_message(name: str, k: int, capacity: int) -> str:
    return (
        f"{name} has {k} columns, but this pool's layout capacity is "
        f"{capacity}; build the solver with capacity_k >= {k} to serve "
        "wider blocks"
    )


def rhs_vector_message(name: str, shape: tuple, m: int) -> str:
    """Wording for entry points whose contract is a single vector RHS
    (the scalar least-squares iterations); kept byte-identical to the
    message those paths have always raised."""
    return f"{name} has shape {shape}, expected ({m},)"


def x0_shape_message(shape: tuple, expected: tuple) -> str:
    return f"x0 has shape {shape}, expected {expected}"


def _describe_dtype(value) -> str:
    """Best-effort dtype description for the error message (a ragged
    list has no dtype at all — fall back to the Python type name)."""
    try:
        return str(np.asarray(value).dtype)
    except Exception:
        return type(value).__name__


def _as_float64(value, name: str) -> np.ndarray:
    """Convert to float64 under the shared contract: non-numeric input
    raises :class:`ShapeError`, and complex input is rejected explicitly
    (NumPy would silently discard the imaginary part with a warning)."""
    try:
        src = np.asarray(value)
        if src.dtype.kind == "c":
            raise TypeError("complex values cannot be cast to float64")
        return np.asarray(src, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(rhs_dtype_message(name, _describe_dtype(value))) from exc


def check_rhs(
    b, n: int, *, capacity: int | None = None, name: str = "b"
) -> np.ndarray:
    """Validate a right-hand side against the shared contract.

    Converts to float64 (a non-numeric or complex ``b`` raises
    :class:`ShapeError` instead of leaking NumPy's ``TypeError``), checks
    the dimensionality and the row count, and — when ``capacity`` is
    given — that the column count fits the pool layout. Non-contiguous
    inputs are accepted as-is; engines that need a particular memory
    layout copy for themselves.
    """
    arr = _as_float64(b, name)
    if arr.ndim not in (1, 2):
        raise ShapeError(rhs_ndim_message(name, arr.shape))
    if arr.shape[0] != n:
        raise ShapeError(rhs_rows_message(name, arr.shape, n))
    k = 1 if arr.ndim == 1 else int(arr.shape[1])
    if k < 1:
        raise ShapeError(rhs_empty_message(name))
    if capacity is not None and k > int(capacity):
        raise ShapeError(rhs_capacity_message(name, k, int(capacity)))
    return arr


def check_vector_rhs(b, m: int, *, name: str = "b") -> np.ndarray:
    """Validate a strictly-vector right-hand side against ``m`` rows.

    The same float64 conversion guard as :func:`check_rhs` (non-numeric
    and complex inputs raise :class:`ShapeError` with the shared dtype
    wording), then the vector contract: exactly one dimension of length
    ``m``, with the wording the scalar least-squares entry points have
    always used.
    """
    arr = _as_float64(b, name)
    if arr.shape != (m,):
        raise ShapeError(rhs_vector_message(name, arr.shape, m))
    return arr


def check_x0(x0, expected_shape: tuple) -> np.ndarray:
    """Validate an initial iterate against the request's RHS shape.

    The same conversion guard as :func:`check_rhs` (a non-numeric ``x0``
    is a shape-contract violation, not a NumPy internal error) plus the
    exact-shape check every engine applies up front.
    """
    arr = _as_float64(x0, "x0")
    if arr.shape != tuple(expected_shape):
        raise ShapeError(x0_shape_message(arr.shape, tuple(expected_shape)))
    return arr

"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch the library's failures with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ShapeError(ReproError, ValueError):
    """An array or matrix has an incompatible or malformed shape."""


class StructureError(ReproError, ValueError):
    """A sparse matrix violates a structural invariant.

    Raised for malformed CSR data (non-monotone ``indptr``, out-of-range
    column indices, unsorted rows when sortedness is required), or when an
    operation requires a structural property the matrix lacks (for example
    symmetry or a full diagonal).
    """


class NotPositiveDefiniteError(ReproError, ValueError):
    """An operation requiring positive definiteness detected a violation.

    This library cannot always verify positive definiteness cheaply; the
    error is raised when a definite witness of indefiniteness appears, such
    as a non-positive diagonal entry or a negative Rayleigh quotient
    encountered inside an iterative method.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative method failed to reach its tolerance within its budget.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Last observed residual measure (solver-specific normalization).
    """

    def __init__(self, message: str, *, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = int(iterations)
        self.residual = float(residual)


class ServeError(ReproError, RuntimeError):
    """A solver-serving request could not be completed.

    Raised by :mod:`repro.serve` when a request fails (the batch it rode
    in crashed, the server was closed before it ran, or waiting for its
    result timed out). The underlying engine failure, when there is one,
    is chained as ``__cause__``.
    """


class ProtocolError(ServeError):
    """A serving request violated the wire protocol.

    Raised by :mod:`repro.serve.protocol` for malformed request lines:
    invalid JSON, a non-object payload, unknown or ill-typed fields, an
    unknown verb. ``request_id`` carries the ``id`` of the offending
    request whenever the line was valid JSON — the front-ends echo it so
    the client can correlate the error; it is ``None`` only for lines
    that could not be parsed at all. ``trace_id`` carries the request's
    trace id (:func:`repro.serve.protocol.parse_line` stamps one on
    every error it raises), so even a malformed request's error response
    is traceable.
    """

    def __init__(self, message: str, *, request_id=None, trace_id=None):
        super().__init__(message)
        self.request_id = request_id
        self.trace_id = trace_id


class ModelError(ReproError, ValueError):
    """An execution-model configuration is invalid or internally inconsistent.

    Raised for, e.g., a delay model that violates the bounded-asynchronism
    assumption (A-3), a step size outside the admissible interval for the
    requested consistency model, or a cost model with non-physical
    parameters.
    """

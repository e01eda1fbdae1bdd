"""JSON wire protocol shared by the stdin, TCP, and HTTP front-ends.

One request per line (or per HTTP POST body), one response per
request, always in submission order. A solve request is a JSON
object::

    {"id": "r1", "b": [1.0, 2.0, ...], "tol": 1e-6, "max_sweeps": 400}

``b`` is required: a flat list of ``n`` numbers for a single right-hand
side, or a list of ``n`` rows of ``k`` numbers for a block (rows are
matrix rows, columns are independent right-hand sides). ``id`` defaults
to the request's arrival index; ``tol`` / ``max_sweeps`` /
``sync_every_sweeps`` / ``x0`` override the server defaults per
request. ``matrix`` names the :class:`~repro.serve.MatrixRegistry`'s
resident matrix to solve against; omitting it routes to the registry's
default matrix, so the single-matrix wire format from before
multi-matrix serving keeps working unchanged.

A response echoes the id::

    {"id": "r1", "ok": true, "x": [...], "converged": true, "sweeps": 40,
     "residual": 4.1e-7, "latency_s": 0.012, "batch_size": 8}

or, when the request failed::

    {"id": "r1", "ok": false, "error": "..."}

The id is echoed whenever the request line was valid JSON — even when
it violated the protocol (unknown field, bad type), so clients can
correlate the error with the request that caused it. ``id: null`` is
reserved for lines that could not be parsed at all (there is nothing
trustworthy to echo); either way the stream stays alive.

Lines are read and replies written by one codec, :mod:`repro.serve.wire`.
Replies are compact JSON (the spaces above are for reading): no
whitespace, floats in shortest round-trip form (``1e-7``), non-ASCII
text as UTF-8. An integer ``id`` beyond 64 bits is read, and so
echoed, as a float.

Every number must be finite. The ``NaN`` / ``Infinity`` literals that
Python's ``json`` accepts are not JSON (RFC 8259), so a line carrying
one is unparseable; a literal too large for a double (``1e400``) in
``b``, ``x0`` or ``tol`` is a protocol violation. A solve fed either
would answer with a non-finite ``x`` that strict clients cannot read
back. A solve that diverges from finite input is answered the same way
as a failed one: ``ok: false`` with its trace id, naming the columns
whose iterate or residual is not finite.

Control verbs
-------------
A request may carry an ``"op"`` field selecting a verb other than the
default ``"solve"``:

``{"op": "register", "matrix": "lap", "problem": "laplace2d"}``
    Register a named matrix with the registry (``"path"`` points at a
    MatrixMarket file instead of a named workload problem). An optional
    ``"method"`` field selects the matrix's update method —
    ``"asyrgs"`` (the default) or ``"asyrk"`` for rectangular
    least-squares systems served by asynchronous randomized Kaczmarz.
    An optional ``"shards"`` field (integer ≥ 1) backs the matrix with
    that many row-partitioned pools coordinated by asynchronous halo
    exchange (private iterates per shard: faster than one shared-iterate
    pool on dense systems, no faster on the 2-D Laplacian). Answers
    ``{"ok": true, "registered": "lap", "n": ..., "nnz": ...,
    "method": ..., "shards": ...}``.
``{"op": "stats"}`` (optionally ``"matrix": "lap"``)
    A JSON snapshot of the serving counters.
``{"op": "matrices"}``
    The list of registered matrices, the default one flagged
    ``"default": true``.
``{"op": "metrics"}``
    The same counters rendered in Prometheus text format (the payload
    the HTTP front-end serves raw on ``GET /v1/metrics``), wrapped in
    the JSON envelope as ``{"ok": true, "metrics": "..."}``.

Tracing
-------
Every response — success, protocol violation, failed solve — carries a
``trace_id``. :func:`parse_line` mints one per request the moment the
line arrives (before parsing, so even an unparseable line's error
response is traceable) unless the client supplied its own ``trace_id``
field (a non-empty string — distributed callers propagate their ids);
the id travels with the request through batching and the pool and is
echoed in the response, so one request can be followed across client
logs, server stderr, and the stats it contributed to.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from . import wire
from ..exceptions import ProtocolError, ServeError

__all__ = [
    "encode_error",
    "encode_info",
    "encode_result",
    "mint_trace_id",
    "parse_line",
]

_ALLOWED_KEYS = {
    "id", "b", "x0", "tol", "max_sweeps", "sync_every_sweeps", "matrix",
    "trace_id",
}
_OPS = (
    "solve",
    "register",
    "stats",
    "matrices",
    "metrics",
)

# Per-process trace prefix + a monotone counter: ids are unique within
# a process and collision-resistant across the fleet, and minting is a
# counter bump — no clock reads, no entropy pool, nothing that could
# perturb a deterministic simulation schedule after import.
_TRACE_PREFIX = os.urandom(4).hex()
_TRACE_COUNTER = itertools.count(1)


def mint_trace_id() -> str:
    """A fresh trace id: ``t-<process prefix>-<counter>``."""
    return f"t-{_TRACE_PREFIX}-{next(_TRACE_COUNTER)}"


# The wire-level method names the register verb accepts. Kept as a
# literal (not imported from the execution layer) so the protocol
# module stays a pure parsing layer; the registry's ``register`` runs
# the authoritative check (``repro.execution.check_solver``).
_METHODS = ("asyrgs", "asyrk")


def _reject_constant(name: str):
    raise ProtocolError(
        f"request is not valid JSON: {name} is not a number "
        "(every number must be finite)"
    )


# The reference decoder, for the lines the wire codec refuses. It
# words every rejection (the stdlib's default decoder would turn the
# non-JSON literals NaN / Infinity / -Infinity into floats; this one
# refuses them), and reads what strict JSON allows but the codec does
# not: a number beyond double range (refused later by its field's
# check) and a lone surrogate.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode(line: str):
    """The JSON value of a request line: the wire codec's parse, or the
    reference decoder's wherever the codec refuses the line."""
    try:
        return wire.loads(line)
    except json.JSONDecodeError:
        pass
    try:
        return _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ProtocolError(
            "request is not valid JSON: nested too deeply"
        ) from None


def _load_object(line: str) -> dict:
    """Parse a request line to a JSON object, or raise with ``id: null``
    semantics (nothing trustworthy to echo)."""
    obj = _decode(line)
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    request_id = obj.get("id")
    if isinstance(request_id, float) and not math.isfinite(request_id):
        raise ProtocolError(f'"id" must be finite, got {request_id!r}')
    return obj


def _check_finite(value, key: str, request_id):
    """A numeric array field as float64, rejected if it holds NaN or
    ±inf. A value that does not convert is returned as it came, for the
    consumer, whose shape check words that rejection."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except OverflowError:  # an integer literal beyond double range
        array = None
    except (TypeError, ValueError):
        return value
    if array is None or not np.isfinite(array).all():
        raise ProtocolError(
            f'"{key}" holds a number that is not finite',
            request_id=request_id,
        )
    return array


def _matrix_id(obj: dict, request_id) -> str | None:
    matrix = obj.get("matrix")
    if matrix is not None and not isinstance(matrix, str):
        raise ProtocolError(
            f'"matrix" must be a string id, got {type(matrix).__name__}',
            request_id=request_id,
        )
    return matrix


def _trace_of(obj: dict, request_id) -> str:
    """The request's trace id: the client's own (a non-empty string —
    distributed callers propagate theirs), else freshly minted."""
    trace = obj.get("trace_id")
    if trace is None:
        return mint_trace_id()
    if not isinstance(trace, str) or not trace:
        raise ProtocolError(
            f'"trace_id" must be a non-empty string, got {trace!r}',
            request_id=request_id,
        )
    return trace


def _solve_kwargs(obj: dict, trace_id: str) -> dict:
    """Turn a parsed solve object into :meth:`SolverServer.submit`
    kwargs. The line already parsed as JSON, so every protocol
    violation past this point carries the request's id."""
    request_id = obj.get("id")
    unknown = set(obj) - _ALLOWED_KEYS - {"op"}
    if unknown:
        raise ProtocolError(
            f"unknown request field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_ALLOWED_KEYS)}",
            request_id=request_id,
        )
    if "b" not in obj:
        raise ProtocolError(
            'request is missing the required "b" field',
            request_id=request_id,
        )
    kwargs = {
        "b": _check_finite(obj["b"], "b", request_id),
        "trace_id": trace_id,
    }
    if "id" in obj:
        kwargs["request_id"] = request_id
    matrix = _matrix_id(obj, request_id)
    if matrix is not None:
        kwargs["matrix"] = matrix
    if obj.get("x0") is not None:
        kwargs["x0"] = _check_finite(obj["x0"], "x0", request_id)
    try:
        if obj.get("tol") is not None:
            kwargs["tol"] = float(obj["tol"])
        if obj.get("max_sweeps") is not None:
            kwargs["max_sweeps"] = int(obj["max_sweeps"])
        if obj.get("sync_every_sweeps") is not None:
            kwargs["sync_every_sweeps"] = int(obj["sync_every_sweeps"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(
            f"ill-typed solve parameter: {exc}", request_id=request_id
        ) from exc
    if not math.isfinite(kwargs.get("tol", 0.0)):
        raise ProtocolError(
            f'"tol" must be finite, got {kwargs["tol"]!r}',
            request_id=request_id,
        )
    return kwargs


def _attach_trace(obj: dict, request_id) -> str:
    """Resolve the request's trace id, stamping any trace-field
    violation with a freshly minted one (the error response must be
    traceable too)."""
    try:
        return _trace_of(obj, request_id)
    except ProtocolError as exc:
        exc.trace_id = mint_trace_id()
        raise


def parse_line(line: str) -> tuple[str, dict]:
    """Parse one protocol line into ``(op, payload)``.

    ``op`` is one of ``solve`` / ``register`` / ``stats`` /
    ``matrices`` / ``metrics``; for ``solve`` the payload is the
    :meth:`SolverServer.submit` kwargs, for the control verbs it is
    ``{"request_id": ..., "trace_id": ..., ...verb fields...}``. This
    is the one parsing entry point the three transports share. A trace
    id is minted (or adopted from the request's ``trace_id`` field) the
    moment the line arrives; :class:`ProtocolError` raised here always
    carries one, so front-ends can echo it on the error path.
    """
    try:
        obj = _load_object(line)
    except ProtocolError as exc:
        exc.trace_id = mint_trace_id()
        raise
    request_id = obj.get("id")
    trace_id = _attach_trace(obj, request_id)
    try:
        return _parse_verb(obj, request_id, trace_id)
    except ProtocolError as exc:
        exc.trace_id = trace_id
        raise


def _parse_verb(obj: dict, request_id, trace_id: str) -> tuple[str, dict]:
    op = obj.get("op", "solve")
    if not isinstance(op, str) or op not in _OPS:
        raise ProtocolError(
            f'unknown "op" {op!r}; expected one of {list(_OPS)}',
            request_id=request_id,
        )
    if op == "solve":
        return op, _solve_kwargs(obj, trace_id)
    payload: dict = {"request_id": request_id, "trace_id": trace_id}
    if op == "register":
        allowed = {
            "op", "id", "trace_id", "matrix", "problem", "path", "method",
            "shards",
        }
        unknown = set(obj) - allowed
        if unknown:
            raise ProtocolError(
                f"unknown register field(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}",
                request_id=request_id,
            )
        matrix = _matrix_id(obj, request_id)
        if matrix is None:
            raise ProtocolError(
                'register requires a "matrix" id',
                request_id=request_id,
            )
        sources = [key for key in ("problem", "path") if obj.get(key)]
        if len(sources) != 1:
            raise ProtocolError(
                'register requires exactly one of "problem" (a named '
                'workload) or "path" (a MatrixMarket file)',
                request_id=request_id,
            )
        method = obj.get("method")
        if method is not None:
            if not isinstance(method, str) or method not in _METHODS:
                raise ProtocolError(
                    f'"method" must be one of {sorted(_METHODS)}, '
                    f"got {method!r}",
                    request_id=request_id,
                )
            payload["method"] = method
        shards = obj.get("shards")
        if shards is not None:
            # bool is an int subclass; reject it explicitly.
            if (
                isinstance(shards, bool)
                or not isinstance(shards, int)
                or shards < 1
            ):
                raise ProtocolError(
                    f'"shards" must be an integer >= 1, got {shards!r}',
                    request_id=request_id,
                )
            payload["shards"] = shards
        payload["matrix"] = matrix
        payload[sources[0]] = str(obj[sources[0]])
    elif op == "stats":
        allowed = {"op", "id", "trace_id", "matrix"}
        unknown = set(obj) - allowed
        if unknown:
            raise ProtocolError(
                f"unknown stats field(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}",
                request_id=request_id,
            )
        payload["matrix"] = _matrix_id(obj, request_id)
    else:  # matrices / metrics
        allowed = {"op", "id", "trace_id"}
        unknown = set(obj) - allowed
        if unknown:
            raise ProtocolError(
                f"unknown {op} field(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}",
                request_id=request_id,
            )
    return op, payload


def _nonfinite_columns(x: np.ndarray, result) -> list[int]:
    """The request columns whose iterate or residual is not finite."""
    residuals = (
        [result.residual] if result.column_residuals is None
        else result.column_residuals
    )
    bad = ~np.isfinite(x.reshape(x.shape[0], -1)).all(axis=0)
    bad |= ~np.isfinite(np.asarray(residuals, dtype=np.float64))
    return np.flatnonzero(bad).tolist()


def result_ok(result) -> bool:
    """Whether :func:`encode_result` answers ``result`` with an ``ok:
    true`` line: its iterate and residuals are finite."""
    return not _nonfinite_columns(np.asarray(result.x), result)


def encode_result(result) -> str:
    """One response line for a completed :class:`ServedResult`: an
    error line instead when its ``x`` or residual is not finite (a
    diverged solve), which JSON cannot carry."""
    x = np.asarray(result.x)
    trace_id = getattr(result, "trace_id", None)
    bad = _nonfinite_columns(x, result)
    if bad:
        return encode_error(
            result.request_id,
            ServeError(
                f"the solve diverged: column(s) {bad} of the iterate or "
                "residual are not finite"
            ),
            trace_id,
        )
    payload = {
        "id": result.request_id,
        "ok": True,
        "trace_id": trace_id,
        "x": np.ascontiguousarray(x, dtype=np.float64),
        "converged": bool(result.converged),
        "sweeps": int(result.sweeps),
        "residual": float(result.residual),
        "latency_s": float(result.latency),
        "batch_size": int(result.batch_size),
    }
    if result.column_sweeps is not None:
        payload["column_sweeps"] = [int(s) for s in result.column_sweeps]
        payload["column_converged"] = [
            bool(c) for c in result.column_converged
        ]
    return _line(payload)


def encode_info(request_id, payload: dict, trace_id=None) -> str:
    """One response line for a successful control verb (``register`` /
    ``stats`` / ``matrices`` / ``metrics``): ``ok: true`` plus the
    verb's payload."""
    return _line(
        {"id": request_id, "ok": True, "trace_id": trace_id, **payload}
    )


def encode_error(request_id, exc: BaseException, trace_id=None) -> str:
    """One response line for a failed or malformed request. The trace
    id defaults to the one riding on the exception (every
    :class:`ProtocolError` out of :func:`parse_line` carries one)."""
    if trace_id is None:
        trace_id = getattr(exc, "trace_id", None)
    return _line(
        {"id": request_id, "ok": False, "trace_id": trace_id,
         "error": str(exc)}
    )


def _line(payload: dict) -> str:
    """One reply line, written by the wire codec
    (:mod:`repro.serve.wire`)."""
    return wire.dumps(payload).decode()

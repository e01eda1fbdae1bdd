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
request. ``matrix`` names the resident matrix to solve against when the
server is a :class:`~repro.serve.MatrixRegistry`; omitting it routes to
the registry's default matrix, so the single-matrix wire format from
before multi-matrix serving keeps working unchanged.

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

Lines are read and replies written by one codec, :mod:`repro.wire`.
Replies are compact JSON (the spaces above are for reading): no
whitespace, floats in shortest round-trip form (``1e-7``), non-ASCII
text as UTF-8. An integer ``id`` beyond 64 bits is read, and so
echoed, as a float.

Every number must be finite. The ``NaN`` / ``Infinity`` literals that
Python's ``json`` accepts are not JSON (RFC 8259), so a line carrying
one is unparseable; a literal too large for a double (``1e400``) in
``b``, ``x0``, ``tol`` or a shard verb's ``rows`` / ``x0`` / ``b`` is
a protocol violation. A solve fed either would answer with a
non-finite ``x`` that strict clients cannot read back. A solve that
diverges from finite input is answered the same way as a failed one:
``ok: false`` with its trace id, naming the columns whose iterate or
residual is not finite.

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
    exchange — for matrices too big for one pool's shared-memory
    segment. Answers ``{"ok": true, "registered": "lap", "n": ...,
    "nnz": ..., "method": ..., "shards": ...}``.
``{"op": "stats"}`` (optionally ``"matrix": "lap"``)
    A JSON snapshot of the serving counters.
``{"op": "matrices"}``
    The list of registered matrices (one anonymous entry for a bare
    single-matrix server).
``{"op": "metrics"}``
    The same counters rendered in Prometheus text format (the payload
    the HTTP front-end serves raw on ``GET /v1/metrics``), wrapped in
    the JSON envelope as ``{"ok": true, "metrics": "..."}``.

Shard-host verbs
----------------
Multi-node sharding adds machine-to-machine verbs. A ``repro serve
--shard-of NAME --peers ...`` instance (a *shard host*) answers all
five; any other server rejects them with a clear error:

``{"op": "halo_push", "matrix": ..., "shard": s, "r0": ..., "r1": ...,
"generation": g, "rows": [[...], ...]}``
    A peer shard publishing its owned iterate rows at its epoch
    boundary — best-effort traffic the sender never blocks on.
``{"op": "halo_pull", "matrix": ..., "rows": [i, ...]}``
    The last published snapshot of the requested global rows plus
    their generation stamps (stale data is served, never awaited).
``{"op": "shard_begin", ...}`` / ``{"op": "shard_advance", "count":
..., "retire": [...]}`` / ``{"op": "shard_stop"}``
    The coordinator (``repro solve --nodes`` or a registry matrix
    registered with ``nodes=[...]``) scattering the partition, driving
    one epoch per call, and tearing the shard down. ``register`` also
    accepts a ``"nodes"`` field (a list of ``"HOST:PORT"`` strings) to
    back a registry matrix with node-hosted shards.

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

from .. import wire
from ..exceptions import ProtocolError, ServeError

__all__ = [
    "encode_error",
    "encode_info",
    "encode_result",
    "mint_trace_id",
    "parse_line",
    "parse_request",
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
    "halo_push",
    "halo_pull",
    "shard_begin",
    "shard_advance",
    "shard_stop",
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


def parse_request(line: str) -> dict:
    """Parse one solve-request line into :meth:`SolverServer.submit`
    kwargs.

    Raises :class:`ProtocolError` (never a bare ``json`` or
    ``KeyError``) on malformed input, so front-ends can answer with an
    error line and keep the stream alive; the error carries
    ``request_id`` whenever the line was valid JSON. Control verbs are
    the business of :func:`parse_line` — a non-``solve`` ``op`` is a
    protocol violation here. ``b`` and ``x0`` come back as the line
    spelled them; :func:`parse_line`, the serving path, hands the
    server the float64 arrays the finiteness check already built.
    """
    try:
        obj = _load_object(line)
    except ProtocolError as exc:
        exc.trace_id = mint_trace_id()
        raise
    trace_id = _attach_trace(obj, obj.get("id"))
    try:
        op = obj.get("op", "solve")
        if op != "solve":
            raise ProtocolError(
                f'non-solve "op" {op!r} is not a solve request '
                "(front-ends dispatch verbs via parse_line)",
                request_id=obj.get("id"),
            )
        kwargs = _solve_kwargs(obj, trace_id)
    except ProtocolError as exc:
        exc.trace_id = trace_id
        raise
    return {**kwargs, **{k: obj[k] for k in ("b", "x0") if k in kwargs}}


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
    ``matrices`` / ``metrics`` or a shard-host verb (``halo_push`` /
    ``halo_pull`` / ``shard_begin`` / ``shard_advance`` /
    ``shard_stop``); for ``solve`` the payload is the
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
    if op in ("halo_push", "halo_pull", "shard_begin", "shard_advance",
              "shard_stop"):
        return op, _parse_shard_verb(op, obj, request_id, payload)
    if op == "register":
        allowed = {
            "op", "id", "trace_id", "matrix", "problem", "path", "method",
            "shards", "nodes",
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
        nodes = obj.get("nodes")
        if nodes is not None:
            if not isinstance(nodes, list) or not all(
                isinstance(a, str) and a for a in nodes
            ):
                raise ProtocolError(
                    '"nodes" must be a list of "HOST:PORT" strings, '
                    f"got {nodes!r}",
                    request_id=request_id,
                )
            payload["nodes"] = nodes
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


def _int_field(obj, key, request_id, *, minimum=0, default=None, required=False):
    value = obj.get(key)
    if value is None:
        if required:
            raise ProtocolError(
                f'missing required field "{key}"', request_id=request_id
            )
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ProtocolError(
            f'"{key}" must be an integer >= {minimum}, got {value!r}',
            request_id=request_id,
        )
    return value


_SHARD_VERB_KEYS = {
    "halo_push": {"matrix", "shard", "r0", "r1", "generation", "rows"},
    "halo_pull": {"matrix", "rows"},
    "shard_begin": {
        "matrix", "shard", "shards", "bounds", "x0", "b", "nproc",
        "capacity_k", "seed", "params", "retire",
    },
    "shard_advance": {"matrix", "count", "retire"},
    "shard_stop": {"matrix"},
}


def _parse_shard_verb(op: str, obj: dict, request_id, payload: dict) -> dict:
    """Validate one shard-host verb (machine-to-machine traffic: type
    checks on the load-bearing fields, the rest passed through for the
    shard host to interpret)."""
    allowed = _SHARD_VERB_KEYS[op] | {"op", "id", "trace_id"}
    unknown = set(obj) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown {op} field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}",
            request_id=request_id,
        )
    matrix = _matrix_id(obj, request_id)
    payload["matrix"] = matrix if matrix is not None else "default"
    if op == "halo_push":
        payload["shard"] = _int_field(obj, "shard", request_id, required=True)
        payload["r0"] = _int_field(obj, "r0", request_id, required=True)
        payload["r1"] = _int_field(obj, "r1", request_id, required=True)
        payload["generation"] = _int_field(
            obj, "generation", request_id, required=True
        )
        rows = obj.get("rows")
        if not isinstance(rows, list):
            raise ProtocolError(
                '"rows" must be a list of row values, got '
                f"{type(rows).__name__}",
                request_id=request_id,
            )
        payload["rows"] = _check_finite(rows, "rows", request_id)
    elif op == "halo_pull":
        rows = obj.get("rows")
        if not isinstance(rows, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) and i >= 0
            for i in rows
        ):
            raise ProtocolError(
                '"rows" must be a list of row indices (integers >= 0)',
                request_id=request_id,
            )
        payload["rows"] = rows
    elif op == "shard_begin":
        payload["shard"] = _int_field(obj, "shard", request_id, required=True)
        payload["shards"] = _int_field(
            obj, "shards", request_id, minimum=1, required=True
        )
        for key in ("bounds", "x0", "b"):
            value = obj.get(key)
            if not isinstance(value, list):
                raise ProtocolError(
                    f'missing or ill-typed required field "{key}" '
                    "(a list)",
                    request_id=request_id,
                )
            payload[key] = value
        for key in ("x0", "b"):
            payload[key] = _check_finite(payload[key], key, request_id)
        payload["nproc"] = _int_field(
            obj, "nproc", request_id, minimum=1, default=1
        )
        payload["capacity_k"] = _int_field(
            obj, "capacity_k", request_id, minimum=1, default=1
        )
        payload["seed"] = _int_field(obj, "seed", request_id, default=0)
        params = obj.get("params")
        if params is not None and not isinstance(params, dict):
            raise ProtocolError(
                f'"params" must be an object, got {type(params).__name__}',
                request_id=request_id,
            )
        payload["params"] = params or {}
        payload["retire"] = obj.get("retire") or []
    elif op == "shard_advance":
        payload["count"] = _int_field(
            obj, "count", request_id, minimum=1, required=True
        )
        retire = obj.get("retire")
        if retire is not None and not isinstance(retire, list):
            raise ProtocolError(
                f'"retire" must be a list of column indices, got '
                f"{type(retire).__name__}",
                request_id=request_id,
            )
        payload["retire"] = retire or []
    # shard_stop carries the matrix id only.
    return payload


def _nonfinite_columns(x: np.ndarray, result) -> list[int]:
    """The request columns whose iterate or residual is not finite."""
    residuals = (
        [result.residual] if result.column_residuals is None
        else result.column_residuals
    )
    bad = ~np.isfinite(x.reshape(x.shape[0], -1)).all(axis=0)
    bad |= ~np.isfinite(np.asarray(residuals, dtype=np.float64))
    return np.flatnonzero(bad).tolist()


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
    """One reply line, written by the wire codec (:mod:`repro.wire`)."""
    return wire.dumps(payload).decode()

"""The one JSON codec of the wire: every request line and reply.

The serving protocol (:mod:`repro.serve.protocol`) and the front-ends
(:mod:`repro.serve.frontend`) encode and decode through this module, so
every line on every socket is written and read the same way.

The codec is orjson: it reads floats several times faster than the
standard library's ``json``, and prints a float64 array straight from
its buffer, where ``json`` needs a ``.tolist()`` first and is slower
still per float. What it writes is compact JSON: no spaces, floats in
shortest round-trip form (``1e-7``), non-ASCII text as UTF-8 rather
than ``\\u`` escapes. Every float it prints reads back bit for bit
with any correct JSON parser, the standard library's included.

Arrays passed to :func:`dumps` must be C-contiguous (pass strided views
through ``np.ascontiguousarray``). orjson writes a non-finite float as
``null``; callers that must not lose one check before encoding. The few
values a request can carry that orjson will not write are written by
the standard library's encoder instead (see :func:`dumps`).
"""

from __future__ import annotations

import json
import math

import orjson

__all__ = ["dumps", "loads"]

_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS
#: The reference encoder, for what orjson refuses to write: the
#: standard library's, which writes a lone surrogate as a ``\\u``
#: escape and an integer of any size digit for digit.
_ENCODER = json.JSONEncoder(
    separators=(",", ":"), default=lambda o: o.tolist()
)
#: Containers nested deeper than this are written as ``null`` by the
#: reference encoder, which recurses; orjson reads any depth.
_MAX_DEPTH = 200


#: Parse one JSON document (``bytes`` or ``str``). Refuses what strict
#: JSON refuses (``NaN``/``Infinity`` literals, lone surrogates) and,
#: beyond that, numbers too large for a double, raising a subclass of
#: ``json.JSONDecodeError``; reads an integer beyond 64 bits as a float.
loads = orjson.loads


def dumps(obj) -> bytes:
    """``obj`` as one compact line of UTF-8 JSON (no trailing newline).

    Never fails on the JSON values a request can carry, so a reply can
    always echo what the request sent. What orjson refuses — a string
    holding a lone surrogate, an integer beyond 64 bits, nesting deeper
    than 254 levels — goes to the reference encoder, which writes the
    line in ASCII (``\\u`` escapes), the first two exactly, and nesting
    deeper than :data:`_MAX_DEPTH` as ``null``."""
    try:
        return orjson.dumps(obj, option=_OPTIONS)
    except orjson.JSONEncodeError:
        return _ENCODER.encode(_bounded(obj, _MAX_DEPTH)).encode()


def _bounded(obj, depth: int):
    """``obj`` as orjson would write it, for the reference encoder:
    non-finite floats as ``None``, and containers more than ``depth``
    levels down as ``None``."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        if depth == 0:
            return None
        return {k: _bounded(v, depth - 1) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if depth == 0:
            return None
        return [_bounded(v, depth - 1) for v in obj]
    return obj

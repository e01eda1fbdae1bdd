"""The wire codec: exact float round trips out, and fuzzed lines in.

Replies are written by :mod:`repro.serve.wire` (orjson) straight from the
result array. The standard library's ``json`` is the reference reader:
every float it reads back must carry the iterate's exact bits, whatever
the array's layout.

Request lines are parsed by the codec, with the standard library's
strict decoder (``protocol._DECODER``) as the fallback for the lines
the codec refuses and as the oracle here: both must yield the same
object, or both refuse. And whatever a line holds — ill-typed fields,
mis-shaped or ragged arrays, ``NaN``/``Infinity``/``1e400`` literals,
huge integers, lone surrogates, truncation — the reply is strict JSON
with a trace id, answering ``ok: false`` or a valid result.
"""

import http.client
import json
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import wire
from repro.exceptions import ProtocolError
from repro.serve import (
    MatrixRegistry,
    SolverServer,
    make_http_server,
    make_tcp_server,
)
from repro.serve import protocol
from repro.serve.frontend import handle_line
from repro.serve.protocol import (
    encode_error,
    encode_info,
    encode_result,
    parse_line,
)
from repro.serve.server import ServedResult

from .conftest import WAIT
from .simtest.fakes import diagonal_system, fake_factory
from .test_frontend import _strict_loads

pytestmark = pytest.mark.serve

EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e-7, 0.1, 1 / 3, -123456.789e-300,
]


def _random_finite(count: int, seed: int) -> np.ndarray:
    """Finite doubles from uniformly random bit patterns (every exponent,
    subnormals included)."""
    bits = np.random.default_rng(seed).integers(
        0, 2**64, size=2 * count, dtype=np.uint64
    )
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:count]


def _result(x, request_id="r", **extra) -> ServedResult:
    return ServedResult(
        request_id=request_id, x=x, converged=True, sweeps=3, residual=1e-9,
        latency=0.25, queue_wait=0.0, batch_size=1, solve_wall=0.1,
        trace_id="t-wire", **extra,
    )


def _block_result(x) -> ServedResult:
    k = x.shape[1]
    return _result(
        x,
        column_converged=np.ones(k, dtype=bool),
        column_sweeps=np.full(k, 3, dtype=np.int64),
        column_residuals=np.zeros(k),
    )


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestEncodeRoundTrip:
    """``json.loads(encode_result(r))["x"]`` is ``r.x`` bit for bit."""

    def test_vector(self):
        x = np.concatenate([EXTREMES, _random_finite(4000, seed=1)])
        reply = json.loads(encode_result(_result(x)))
        assert reply["ok"] is True
        np.testing.assert_array_equal(_bits(reply["x"]), _bits(x))

    def test_block(self):
        x = _random_finite(3000, seed=2).reshape(-1, 3)
        x[0, :] = [-0.0, 5e-324, -1.7976931348623157e308]
        reply = json.loads(encode_result(_block_result(x)))
        assert np.shape(reply["x"]) == x.shape
        np.testing.assert_array_equal(_bits(reply["x"]), _bits(x))
        assert reply["column_sweeps"] == [3, 3, 3]
        assert reply["column_converged"] == [True, True, True]

    def test_strided_views_of_a_capacity_block(self):
        """A request of width k on a capacity-k pool is answered from a
        column view of the pool's wider block: not C-contiguous."""
        capacity = np.asarray(
            _random_finite(400, seed=3).reshape(100, 4), order="C"
        )
        capacity[7, :] = [-0.0, 5e-324, 1.7976931348623157e308, -5e-324]
        for x in (capacity[:, :2], capacity[:, 1:3], capacity[::2, :3]):
            assert not x.flags.c_contiguous
            reply = json.loads(encode_result(_block_result(x)))
            np.testing.assert_array_equal(_bits(reply["x"]), _bits(x))
        single = capacity[:, 2]
        assert not single.flags.c_contiguous
        reply = json.loads(encode_result(_result(single)))
        np.testing.assert_array_equal(_bits(reply["x"]), _bits(single))

    def test_replies_are_compact(self):
        text = encode_result(_result(np.array([1e-7, 2.5])))
        assert text.startswith('{"id":"r","ok":true,"trace_id":"t-wire",')
        assert '"x":[1e-7,2.5]' in text
        assert " " not in text

    def test_non_ascii_error_text(self):
        message = "matrice «Δ» introuvable — 行列が見つかりません 🚫"
        text = encode_error("r", ValueError(message), "t-ü")
        assert json.loads(text) == {
            "id": "r", "ok": False, "trace_id": "t-ü", "error": message,
        }
        assert message in text  # UTF-8, not \\u escapes

    def test_values_orjson_cannot_write_are_echoed_exactly(self):
        """A line only the reference decoder reads (a lone surrogate
        forces the fallback) may carry an id orjson cannot write: the
        reference encoder echoes it as the request spelled it."""
        for request_id in ["\ud800x", 2**70, 10**400, {"k": "\udfff"}]:
            reply = _strict_loads(encode_error(request_id, ValueError("é")))
            assert reply["id"] == request_id and reply["error"] == "é"
            reply = _strict_loads(
                encode_info(request_id, {"a": [1], "m": float("nan")}, "t")
            )
            assert reply["id"] == request_id
            assert reply["a"] == [1] and reply["m"] is None
        x = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1])
        reply = json.loads(encode_result(_result(x, request_id=2**70)))
        assert reply["id"] == 2**70
        np.testing.assert_array_equal(_bits(reply["x"]), _bits(x))

    def test_diverged_result_is_still_an_error_line(self):
        reply = _strict_loads(encode_result(_result(np.array([1.0, np.inf]))))
        assert reply["ok"] is False and "diverged" in reply["error"]


def test_stats_with_mixed_shard_counts_are_answered():
    """Matrices of different shard counts fold to a ``counts`` tally
    keyed by the (integer) shard count: written with string keys, over
    the JSON-lines verb and ``GET /v1/stats`` alike."""
    with MatrixRegistry(
        nproc=1, capacity_k=2, max_wait=0.0, solver_factory=fake_factory(),
    ) as registry:
        d = np.full(N, 2.0)
        registry.register("sh", diagonal_system(d), shards=3)
        registry.register("plain", diagonal_system(d))
        for matrix in ("sh", "plain"):
            registry.submit(np.ones(N), matrix=matrix).result(WAIT)
        reply = _strict_loads(handle_line(registry, '{"op": "stats"}')())
        assert reply["ok"] is True, reply
        assert reply["aggregate"]["shards"] == {
            "shards": "mixed", "counts": {"3": 1, "1": 1},
        }
        httpd = make_http_server(registry, "127.0.0.1", 0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        conn = http.client.HTTPConnection(
            *httpd.server_address[:2], timeout=WAIT
        )
        try:
            conn.request("GET", "/v1/stats")
            resp = conn.getresponse()
            body = _strict_loads(resp.read().decode())
        finally:
            conn.close()
            httpd.shutdown()
            httpd.server_close()
        assert resp.status == 200, body
        assert body["aggregate"]["shards"]["counts"] == {"3": 1, "1": 1}


# ---------------------------------------------------------------------------
# Fuzzing the request side
# ---------------------------------------------------------------------------

N = 4
SENTINEL = "@@literal@@"
#: Raw tokens spliced in where the sentinel string stood: the non-JSON
#: literals, numbers beyond double range, integers beyond 64 bits, lone
#: surrogates (escaped and raw), plain non-ASCII text, and nesting
#: deeper than either decoder goes.
LITERALS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
    "18446744073709551616", "-9223372036854775809", "1e-400",
    '"\\ud800"', '"a\\udfffb"', '"\\ud83d\\ude00"', '"\ud800"', '"é"',
    "[" * 3000 + "]" * 3000,
]

finite = st.floats(allow_nan=False, allow_infinity=False)
scalar = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | finite
    | st.text(max_size=6) | st.just(SENTINEL)
)


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3
    )


json_value = st.recursive(scalar, _containers, max_leaves=6)
number = finite | st.integers(-(2**70), 2**70)
vector = st.lists(number, min_size=N, max_size=N)
block = st.lists(st.lists(number, min_size=2, max_size=2), min_size=N, max_size=N)
misshaped = st.lists(number, max_size=N + 2) | st.lists(
    st.lists(number, max_size=3), max_size=N + 1
)
tainted = st.builds(
    lambda v, i: v[:i] + [SENTINEL] + v[i + 1 :], vector, st.integers(0, N - 1)
)
array = vector | block | misshaped | tainted | json_value
small_int = st.integers(-2, 2 * N) | json_value

FIELDS = {
    "id": scalar,
    "trace_id": st.text(min_size=1, max_size=6) | scalar,
    "matrix": st.sampled_from(["m", "default", "other"]) | scalar,
    "b": array,
    "x0": array,
    "tol": finite | scalar,
    "max_sweeps": small_int,
    "sync_every_sweeps": small_int,
    "shards": small_int,
    "problem": scalar,
    "op": st.sampled_from(protocol._OPS) | scalar,
    "bogus": json_value,
}


def _bases(b):
    """One well-formed line per verb; the fuzz perturbs these."""
    return {
        "solve": {"id": "q", "b": b},
        "block": {"id": "q", "b": [[v, -v] for v in b]},
        "stats": {"op": "stats", "id": 7},
        "matrices": {"op": "matrices"},
        "metrics": {"op": "metrics"},
        "register": {"op": "register", "matrix": "x", "problem": "laplace2d"},
    }


VERBS = sorted(_bases([0.0] * N))


@st.composite
def request_lines(draw, verb):
    """One line of ``verb``: its base with up to two fields deleted or
    redrawn, literals spliced in, and now and then cut short."""
    obj = dict(_bases(draw(st.lists(finite, min_size=N, max_size=N)))[verb])
    keys = sorted(set(obj) | {"id", "trace_id", "bogus"})
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        if key in obj and draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(FIELDS[key])
    text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    while f'"{SENTINEL}"' in text:
        text = text.replace(
            f'"{SENTINEL}"', draw(st.sampled_from(LITERALS)), 1
        )
    if draw(st.integers(0, 7)) == 7:
        text = text[: draw(st.integers(1, len(text) - 1))]
    return text


def _same(fast, ref) -> bool:
    """``fast`` is ``ref``, floats compared bit for bit. The one licensed
    difference: an integer beyond 64 bits, which the codec reads as the
    nearest float."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return type(fast) is type(ref) and fast == ref
    if isinstance(ref, int):
        if isinstance(fast, float) and not -(2**63) <= ref < 2**64:
            return fast == float(ref)
        return type(fast) is int and fast == ref
    if isinstance(ref, float):
        return type(fast) is float and (
            struct.pack("<d", fast) == struct.pack("<d", ref)
        )
    if isinstance(ref, list):
        return type(fast) is list and len(fast) == len(ref) and all(
            _same(f, r) for f, r in zip(fast, ref)
        )
    return (
        type(fast) is dict
        and list(fast) == list(ref)
        and all(_same(fast[k], ref[k]) for k in ref)
    )


DEEP = object()


def _reference(line: str):
    """The stdlib decoder's reading: ``("value", obj)``, ``None`` when it
    refuses the line, or ``DEEP`` when it runs out of recursion depth."""
    try:
        return ("value", protocol._DECODER.decode(line))
    except (ValueError, ProtocolError):
        return None
    except RecursionError:
        return DEEP


@pytest.fixture(scope="module")
def front_door():
    """A solve server on the fake pool: every verb reaches its handler,
    with no worker or socket."""
    with SolverServer(
        diagonal_system(np.full(N, 2.0)), nproc=1, capacity_k=2,
        max_wait=0.0, solver_factory=fake_factory(),
    ) as server:
        yield server


FUZZ = settings(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("verb", VERBS)
class TestFuzzedLines:
    @FUZZ
    @given(data=st.data())
    def test_codec_agrees_with_the_reference_decoder(self, verb, data):
        line = data.draw(request_lines(verb))
        reference = _reference(line)
        try:
            fast = protocol._decode(line)
        except ProtocolError as exc:
            assert reference is None or reference is DEEP, (line, exc)
            assert str(exc).startswith("request is not valid JSON")
            return
        if reference is DEEP:
            # The other licensed difference: orjson reads nesting of any
            # depth, where the recursive stdlib decoder gives up.
            assert "[" * 1000 in line, line
            return
        assert reference is not None, line
        assert _same(fast, reference[1]), (line, fast, reference[1])
        try:  # where orjson itself accepts, it reads what stdlib reads
            direct = wire.loads(line)
        except json.JSONDecodeError:
            return
        assert _same(direct, reference[1]), (line, direct)

    @FUZZ
    @given(data=st.data())
    def test_every_reply_is_strict_json_with_a_trace(
        self, front_door, verb, data
    ):
        line = data.draw(request_lines(verb))
        try:
            op, payload = parse_line(line)
        except ProtocolError as exc:
            assert isinstance(exc.trace_id, str) and exc.trace_id
            op, payload = None, None
        reply = _strict_loads(handle_line(front_door, line)())
        assert isinstance(reply["trace_id"], str) and reply["trace_id"]
        assert reply["ok"] in (True, False)
        if not reply["ok"]:
            assert isinstance(reply["error"], str) and reply["error"]
        elif op == "solve":
            x = np.asarray(reply["x"], dtype=np.float64)
            assert x.shape == np.shape(payload["b"])
            assert np.isfinite(x).all()
            np.testing.assert_array_equal(x, payload["b"] / 2.0)
        else:
            assert op is not None and op != "solve"


def test_nesting_beyond_any_limit_is_answered():
    """orjson reads nesting of any depth: whichever field holds it, the
    reply is strict JSON with a trace id (an id is echoed up to the
    depth orjson writes, then ``null``)."""
    deep = "[" * 3000 + "]" * 3000
    with SolverServer(
        diagonal_system(np.full(N, 2.0)), nproc=1, capacity_k=2,
        max_wait=0.0, solver_factory=fake_factory(),
    ) as server:
        for field in ("id", "trace_id", "op", "b", "tol", "bogus"):
            line = '{"b": [1, 2, 3, 4], "%s": %s}' % (field, deep)
            reply = _strict_loads(handle_line(server, line)())
            assert reply["trace_id"].startswith("t-"), field
            assert reply["ok"] is (field == "id"), (field, reply)


def test_fuzz_bases_are_answered():
    """The unperturbed lines reach their handlers and succeed where a
    success is possible, so the fuzz starts from live paths."""
    b = [1.0, 2.0, 3.0, 4.0]
    with SolverServer(
        diagonal_system(np.full(N, 2.0)), nproc=1, capacity_k=2,
        max_wait=0.0, solver_factory=fake_factory(),
    ) as server:
        lines = {k: json.dumps(v) for k, v in _bases(b).items()}
        for name in ("solve", "block", "stats", "matrices", "metrics"):
            assert _strict_loads(handle_line(server, lines[name])())["ok"], name
        solved = _strict_loads(handle_line(server, lines["solve"])())
        assert solved["x"] == [0.5, 1.0, 1.5, 2.0]


#: Well-formed lines of the removed multi-node surface: the five
#: verbs shard hosts answered and a ``register`` naming shard hosts.
#: Each is now an unknown verb or field, refused like any other.
RETIRED = {
    "halo_push": {"id": "h", "op": "halo_push", "matrix": "m", "shard": 0,
                  "r0": 0, "r1": N, "generation": 1, "rows": [[1.0]] * N},
    "halo_pull": {"id": "h", "op": "halo_pull", "matrix": "m", "rows": [0]},
    "shard_begin": {"id": "h", "op": "shard_begin", "matrix": "m",
                    "shard": 0, "shards": 1, "bounds": [[0, N]],
                    "x0": [0.0] * N, "b": [1.0] * N},
    "shard_advance": {"id": "h", "op": "shard_advance", "matrix": "m",
                      "count": N},
    "shard_stop": {"id": "h", "op": "shard_stop", "matrix": "m"},
    "register-nodes": {"id": "h", "op": "register", "matrix": "x",
                       "problem": "laplace2d",
                       "nodes": ["127.0.0.1:7101", "127.0.0.1:7102"]},
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_multinode_lines_are_refused(front_door, name):
    reply = _strict_loads(handle_line(front_door, json.dumps(RETIRED[name]))())
    assert reply["ok"] is False and reply["id"] == "h"
    assert reply["trace_id"].startswith("t-")
    expected = "unknown register field" if name == "register-nodes" else (
        'unknown "op"'
    )
    assert expected in reply["error"], reply


def _hostile_lines() -> list[bytes]:
    """Each literal spliced into a solve line, a good line cut short at
    several points, invalid UTF-8 and the retired multi-node lines;
    last, the good line itself."""
    good = json.dumps({"id": "good", "b": [1.0, 2.0, 3.0, 4.0]})
    template = json.dumps({"id": "q", "b": [1.0, SENTINEL, 3.0, 4.0]})
    lines = [template.replace(f'"{SENTINEL}"', lit) for lit in LITERALS]
    lines += [good[:cut] for cut in range(1, len(good), 7)]
    return [line.encode("utf-8", "surrogatepass") for line in lines] + [
        b'{"id": "\xff\xfe", "b": [1]}',
        *(json.dumps(RETIRED[name]).encode() for name in sorted(RETIRED)),
        good.encode(),
    ]


def _over_tcp(server, lines):
    """All lines down one connection; ``(None, reply)`` per reply line."""
    tcp = make_tcp_server(server, "127.0.0.1", 0)
    threading.Thread(target=tcp.serve_forever, daemon=True).start()
    try:
        with socket.create_connection(tcp.server_address, timeout=WAIT) as sock:
            sock.settimeout(WAIT)
            sock.sendall(b"".join(line + b"\n" for line in lines))
            sock.shutdown(socket.SHUT_WR)
            return [
                (None, _strict_loads(raw.decode("utf-8")))
                for raw in sock.makefile("rb")
            ]
    finally:
        tcp.shutdown()
        tcp.server_close()


def _over_http(server, lines):
    """One POST per line on one keep-alive connection; ``(status,
    reply)`` per request."""
    httpd = make_http_server(server, "127.0.0.1", 0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    conn = http.client.HTTPConnection(*httpd.server_address[:2], timeout=WAIT)
    try:
        replies = []
        for body in lines:
            conn.request("POST", "/v1/solve", body=body)
            resp = conn.getresponse()
            replies.append((resp.status, _strict_loads(resp.read().decode())))
        return replies
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()


@pytest.mark.parametrize("transport", [_over_tcp, _over_http], ids=["tcp", "http"])
def test_hostile_lines_keep_one_connection_serving(transport):
    """One strict-JSON reply per hostile line, in order and traceable,
    on one connection that still answers the good line at the end."""
    lines = _hostile_lines()
    with SolverServer(
        diagonal_system(np.full(N, 2.0)), nproc=1, capacity_k=2,
        max_wait=0.0, solver_factory=fake_factory(),
    ) as server:
        replies = transport(server, lines)
    assert len(replies) == len(lines)
    for status, reply in replies:
        assert reply["trace_id"].startswith("t-")
        assert status in (None, 200 if reply["ok"] else 400)
    assert replies[-1][1]["id"] == "good"
    assert replies[-1][1]["x"] == [0.5, 1.0, 1.5, 2.0]
    assert not any(reply["ok"] for _, reply in replies[len(LITERALS) : -1])

"""Front-ends for :class:`~repro.serve.SolverServer` and
:class:`~repro.serve.MatrixRegistry`.

Three transports, one protocol (:mod:`repro.serve.protocol`), one
submission path (:func:`handle_line`):

* :func:`serve_stream` — JSON-lines on any readable/writable text pair
  (``repro serve`` wires it to stdin/stdout). Requests are submitted the
  moment their line is read, so consecutive compatible lines coalesce
  into one block solve; a writer thread emits responses in submission
  order while the reader keeps feeding the queue.
* :func:`make_tcp_server` — the same per-connection loop on a threading
  TCP server (``repro serve --port``). Each connection gets its own
  reader/writer pair; all connections share the one solver pool, so
  concurrent clients batch together exactly like concurrent threads
  calling :meth:`SolverServer.submit`.
* :func:`make_http_server` — the same payloads over HTTP/1.1
  (``repro serve --http``): ``POST /v1/solve`` carries one request
  object per body, ``GET /v1/stats`` and ``GET /v1/matrices`` expose
  the control verbs to anything that can speak ``curl``, and
  ``GET /v1/metrics`` serves the Prometheus text rendition raw (the
  scrape endpoint). Every handler thread submits through
  :func:`handle_line`, so concurrent HTTP clients coalesce into block
  solves exactly like TCP ones.

Every response carries the request's ``trace_id`` — success and
failure alike: :func:`~repro.serve.protocol.parse_line` mints (or
adopts) it per line, a submitted request carries it on its handle, and
the error paths read it off the exception, the parsed payload, or the
handle, whichever the failure left standing.

``handle_line`` is the seam all three share: parse one protocol line,
act on it immediately (submit a solve, run a control verb), and return
a zero-argument callable that produces the response text — blocking on
the solve result only when called. The JSON-lines transports queue the
callables on a FIFO so responses keep submission order; HTTP resolves
them inline, one per request/response exchange.
"""

from __future__ import annotations

import http.server
import queue
import socketserver
import threading
import urllib.parse

from . import wire
from ..exceptions import ServeError
from .metrics import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from .metrics import render_metrics
from .protocol import (
    encode_error,
    encode_info,
    encode_result,
    mint_trace_id,
    parse_line,
    result_ok,
)

__all__ = [
    "handle_line",
    "make_http_server",
    "make_tcp_server",
    "serve_stream",
]

_EOF = object()


def _registry_only(server, verb: str):
    raise ServeError(
        f"the {verb!r} verb needs a matrix registry front door, but this "
        "server hosts a single resident matrix (run `repro serve "
        "--matrix NAME=SPEC` or serve a MatrixRegistry)"
    )


def _run_verb(server, op: str, payload: dict) -> str:
    """Execute one control verb against the server (a bare
    :class:`SolverServer` or a :class:`MatrixRegistry` — duck-typed on
    the handful of methods the verbs need)."""
    request_id = payload.get("request_id")
    trace_id = payload.get("trace_id")
    if op == "register":
        register = getattr(server, "register_spec", None)
        if register is None:
            _registry_only(server, op)
        info = register(
            payload["matrix"],
            problem=payload.get("problem"),
            path=payload.get("path"),
            method=payload.get("method"),
            shards=payload.get("shards"),
        )
        return encode_info(request_id, info, trace_id)
    if op == "stats":
        return encode_info(
            request_id, server.stats_payload(payload.get("matrix")), trace_id
        )
    if op == "metrics":
        return encode_info(
            request_id, {"metrics": render_metrics(server)}, trace_id
        )
    # matrices
    return encode_info(
        request_id, {"matrices": server.matrices_payload()}, trace_id
    )


class _Reply:
    """The callable :func:`handle_line` returns: calling it produces the
    response text and sets :attr:`ok` to that reply's ``ok`` field, so a
    transport can pick a status without parsing the reply again."""

    __slots__ = ("_produce", "ok")

    def __init__(self, produce):
        self._produce = produce  # () -> (ok, text)
        self.ok = None

    @classmethod
    def ready(cls, ok: bool, text: str) -> "_Reply":
        return cls(lambda: (ok, text))

    def __call__(self) -> str:
        self.ok, text = self._produce()
        return text


def handle_line(server, line: str):
    """Parse one protocol line, act on it, and return a zero-argument
    callable producing the response text; once called, its ``ok`` is
    the reply's ``ok`` field.

    This is the single submission path of all three transports. Solve
    requests are submitted *before* this function returns (so a burst of
    lines coalesces into one batch even though their responses are
    resolved later); the returned callable blocks on the result.
    ``register`` also acts immediately — a later line in the same burst
    may already route to the new matrix. ``stats`` / ``matrices`` run
    when the callable is called, i.e. at response time, so over a
    JSON-lines connection they reflect at least every request answered
    before them. It never raises: every failure becomes an ``ok:
    false`` response carrying the request's id whenever the line was
    valid JSON (``id: null`` strictly for unparseable lines).
    """
    try:
        op, payload = parse_line(line)
    except Exception as exc:  # malformed JSON / protocol violation
        # ProtocolError carries the id of any line that parsed as JSON,
        # and always a trace id (minted before parsing). Anything else
        # (a field nested too deeply to repr in a message) gets one
        # minted here.
        text = encode_error(
            getattr(exc, "request_id", None),
            exc,
            getattr(exc, "trace_id", None) or mint_trace_id(),
        )
        return _Reply.ready(False, text)
    if op == "register":
        return _Reply.ready(*_verb_reply(server, op, payload))
    if op != "solve":
        return _Reply(lambda: _verb_reply(server, op, payload))
    try:
        handle = server.submit(**payload)
    except Exception as exc:  # shape/dtype violations, closed server
        # The line parsed, so its id and trace are trustworthy — echo
        # them (this is the broken-server fast-fail path, among others).
        text = encode_error(
            payload.get("request_id"), exc, payload.get("trace_id")
        )
        return _Reply.ready(False, text)

    def _resolve() -> tuple[bool, str]:
        try:
            result = handle.result()
        except ServeError as exc:
            # Crash containment: the batch failed but the request's
            # identity survives on its handle.
            return False, encode_error(handle.request_id, exc, handle.trace_id)
        return result_ok(result), encode_result(result)

    return _Reply(_resolve)


def _verb_reply(server, op: str, payload: dict) -> tuple[bool, str]:
    """``(ok, text)`` of one control verb; a failure (an unknown problem
    or matrix, a single-matrix server, a closed registry) is an error
    reply."""
    try:
        return True, _run_verb(server, op, payload)
    except Exception as exc:
        return False, encode_error(
            payload.get("request_id"), exc, payload.get("trace_id")
        )


def _pump(server, lines, out) -> int:
    """The shared JSON-lines loop: submit each line immediately via
    :func:`handle_line`, emit responses in submission order from a
    writer thread.

    Submitting before the previous result is written is what lets a
    burst of lines coalesce into one batch. Returns the number of lines
    handled (including malformed ones, which get error responses).
    """
    fifo: queue.Queue = queue.Queue()

    def _writer():
        # Once the output side dies (a TCP client that disconnects
        # before reading its responses, a stream closed mid-burst),
        # keep draining the fifo — every handle still resolves
        # server-side — but stop writing: a dead pipe must not kill the
        # thread or wedge the reader's join. OSError is the socket
        # flavor; a closed *text* stream raises ValueError ("I/O
        # operation on closed file") instead, and must be treated the
        # same.
        broken = False
        while True:
            produce = fifo.get()
            if produce is _EOF:
                break
            line = produce()  # blocks on the solve result if needed
            if broken:
                continue
            try:
                out.write(line + "\n")
                out.flush()
            except (OSError, ValueError):
                broken = True

    writer = threading.Thread(target=_writer, name="asyrgs-serve-writer")
    writer.start()
    handled = 0
    try:
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            handled += 1
            fifo.put(handle_line(server, line))
    finally:
        fifo.put(_EOF)
        writer.join()
    return handled


def serve_stream(server, in_stream, out_stream) -> int:
    """Serve JSON-lines requests from ``in_stream`` until EOF.

    Returns the number of request lines handled. Responses appear on
    ``out_stream`` in submission order; the stream stays open across
    malformed lines (they get ``ok: false`` responses).
    """
    return _pump(server, in_stream, out_stream)


def make_tcp_server(server, host: str = "127.0.0.1", port: int = 0):
    """A threading TCP server speaking the JSON-lines protocol.

    Returns the ``socketserver.ThreadingTCPServer``; the caller runs
    ``serve_forever()`` (and ``shutdown()``/``server_close()`` to stop).
    ``port=0`` binds an ephemeral port — read ``server_address`` for the
    actual one. Every connection shares the one solver pool.
    """

    class _Handler(socketserver.StreamRequestHandler):
        def handle(self):
            # errors="replace" keeps a client that sends invalid UTF-8
            # on the protocol path: the mangled line fails JSON parsing
            # and gets an ok:false response, instead of the decode
            # error unwinding the handler and dropping the connection
            # with a socketserver traceback.
            reader = (
                raw.decode("utf-8", errors="replace") for raw in self.rfile
            )
            out = _SocketWriter(self.wfile)
            try:
                _pump(server, reader, out)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-stream; nothing to answer

    class _Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    return _Server((host, int(port)), _Handler)


def make_http_server(server, host: str = "127.0.0.1", port: int = 0):
    """An HTTP/1.1 front-end speaking the same JSON payloads.

    Routes:

    * ``POST /v1/solve`` — body is one request object (exactly a
      JSON-lines request line, control verbs included); the response
      body is the one response object. 200 for ``ok: true``, 400 for
      ``ok: false``.
    * ``GET /v1/stats`` — the ``stats`` verb (``?matrix=ID`` narrows a
      registry to one matrix).
    * ``GET /v1/matrices`` — the ``matrices`` verb.
    * ``GET /v1/metrics`` — the Prometheus text rendition of the same
      counters (:func:`~repro.serve.metrics.render_metrics`), served
      raw with the exposition-format content type — point a Prometheus
      scrape job straight at it. The response carries the request's
      trace id in an ``X-Trace-Id`` header (the body is not JSON).

    Returns the ``http.server.ThreadingHTTPServer``; the caller runs
    ``serve_forever()`` (and ``shutdown()``/``server_close()`` to
    stop). ``port=0`` binds an ephemeral port. Handler threads submit
    through :func:`handle_line`, so concurrent HTTP clients coalesce
    into block solves exactly like TCP ones.
    """

    class _Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # the CLI's stderr is the server's log, not access lines

        def _respond(self, status: int, text: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _respond_line(self, reply) -> None:
            text = reply()
            self._respond(200 if reply.ok else 400, text)

        def _respond_metrics(self) -> None:
            # The one non-JSON route: raw Prometheus text, trace id in a
            # header since there is no JSON envelope to echo it in.
            trace_id = mint_trace_id()
            try:
                text = render_metrics(server)
            except Exception as exc:  # snapshot failure: JSON error body
                self._respond(500, encode_error(None, exc, trace_id))
                return
            body = text.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", _METRICS_CONTENT_TYPE)
            self.send_header("X-Trace-Id", trace_id)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            # Drain the body before any response: unread bytes would be
            # parsed as the next request line on a keep-alive connection.
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length).decode("utf-8", errors="replace")
            path = urllib.parse.urlsplit(self.path).path
            if path != "/v1/solve":
                self._respond(
                    404,
                    encode_error(
                        None,
                        ServeError(f"no such route {path!r}"),
                        mint_trace_id(),
                    ),
                )
                return
            self._respond_line(handle_line(server, body))

        def do_GET(self):
            split = urllib.parse.urlsplit(self.path)
            query = urllib.parse.parse_qs(split.query)
            if split.path == "/v1/metrics":
                self._respond_metrics()
                return
            if split.path == "/v1/stats":
                request = {"op": "stats"}
                if query.get("matrix"):
                    request["matrix"] = query["matrix"][0]
            elif split.path == "/v1/matrices":
                request = {"op": "matrices"}
            else:
                self._respond(
                    404,
                    encode_error(
                        None,
                        ServeError(f"no such route {split.path!r}"),
                        mint_trace_id(),
                    ),
                )
                return
            self._respond_line(handle_line(server, wire.dumps(request).decode()))

    class _Server(http.server.ThreadingHTTPServer):
        allow_reuse_address = True
        daemon_threads = True

    return _Server((host, int(port)), _Handler)


class _SocketWriter:
    """Adapt a binary socket file to the text writer `_pump` expects."""

    def __init__(self, wfile):
        self._wfile = wfile

    def write(self, text: str) -> None:
        self._wfile.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._wfile.flush()

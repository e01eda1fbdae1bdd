"""Trace-id regression tests: every reply carries one, failures first.

The tracing contract (:mod:`repro.serve.protocol`): a trace id is
minted — or adopted from the client's ``trace_id`` field — the moment a
line arrives at :func:`parse_line`, rides the request through
submission on its handle, and is echoed in **every** response. The
happy path is easy; these tests pin the ``ok: false`` paths, where the
id must be read off whatever the failure left standing — the
:class:`~repro.exceptions.ProtocolError`, the parsed payload, or the
handle — across all three transports (stdin JSON-lines, TCP, HTTP).

Every transport here serves a one-matrix registry, the shape ``repro
serve --problem`` builds. The pool behind it is the simtest
:class:`~tests.serve.simtest.fakes.FakePool` under the *real* threading
runtime: exact diagonal solves and scripted crashes with zero worker
processes and zero sleeps (coordination is joins and scripted failure
indices only).
"""

import io
import json
import socket
import threading

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ServeError
from repro.serve import make_http_server, make_tcp_server, serve_stream
from repro.serve.protocol import encode_error, mint_trace_id, parse_line

from .conftest import WAIT, one_matrix
from .simtest.fakes import diagonal_system, fake_factory

pytestmark = pytest.mark.serve

N = 8
DIAG = 2.0 ** (np.arange(N) % 3)


def _fake_server(fail_on=None, **kwargs):
    return one_matrix(
        diagonal_system(DIAG),
        nproc=1,
        capacity_k=2,
        max_wait=0.0,
        solver_factory=fake_factory(fail_on=fail_on),
        **kwargs,
    )


def _solve_line(trace=None, request_id="r", **extra):
    obj = {"id": request_id, "b": [1.0] * N, **extra}
    if trace is not None:
        obj["trace_id"] = trace
    return json.dumps(obj)


class TestMinting:
    def test_mint_is_unique_and_prefixed(self):
        a, b = mint_trace_id(), mint_trace_id()
        assert a.startswith("t-") and b.startswith("t-")
        assert a != b

    def test_parse_line_mints_per_line(self):
        traces = set()
        for line in ('{"b": [1.0]}', '{"op": "stats"}', '{"op": "metrics"}'):
            _, payload = parse_line(line)
            traces.add(payload["trace_id"])
        assert len(traces) == 3
        assert all(t.startswith("t-") for t in traces)

    def test_client_trace_is_adopted_not_replaced(self):
        _, payload = parse_line('{"b": [1.0], "trace_id": "t-mine-7"}')
        assert payload["trace_id"] == "t-mine-7"
        _, payload = parse_line(
            '{"op": "stats", "trace_id": "t-mine-8"}'
        )
        assert payload["trace_id"] == "t-mine-8"

    @pytest.mark.parametrize("bad", ["7", '""', "[1]"])
    def test_ill_typed_trace_fails_with_a_minted_trace(self, bad):
        """A broken trace field cannot carry the error's trace — the
        response still needs one, so a fresh id is minted."""
        with pytest.raises(ProtocolError) as err:
            parse_line('{"b": [1.0], "trace_id": %s}' % bad)
        assert err.value.trace_id.startswith("t-")

    def test_protocol_errors_always_carry_a_trace(self):
        """Every parse failure — unparseable JSON included — rides out
        with a trace id, so the error response is traceable even when
        the request never was a request."""
        cases = [
            "utterly not json",
            "[1, 2]",
            '{"id": "x", "b": [1], "bogus": 2}',
            '{"op": "dance"}',
            '{"op": "register", "matrix": "m"}',
            '{"op": "metrics", "b": [1.0]}',
        ]
        for line in cases:
            with pytest.raises(ProtocolError) as err:
                parse_line(line)
            assert err.value.trace_id.startswith("t-"), line

    def test_encode_error_reads_the_trace_off_the_exception(self):
        exc = ProtocolError("nope", request_id="q", trace_id="t-exc-1")
        obj = json.loads(encode_error("q", exc))
        assert obj == {
            "id": "q", "ok": False, "trace_id": "t-exc-1", "error": "nope",
        }


class TestStdinErrorPaths:
    def test_every_response_carries_a_trace(self):
        """One stream mixing success, client-traced requests, parse
        failures, and a validation failure: each reply line carries a
        trace id, and a client-supplied one comes back verbatim."""
        lines = [
            _solve_line(request_id="ok1"),
            _solve_line(trace="t-client-1", request_id="ok2"),
            "not json at all",
            '{"id": "bad1", "b": [1.0], "bogus": 2}',
            '{"id": "bad2", "b": [1.0], "bogus": 2, "trace_id": "t-client-2"}',
            json.dumps({"id": "bad3", "b": [1.0, 2.0],
                        "trace_id": "t-client-3"}),  # wrong length rhs
        ]
        out = io.StringIO()
        with _fake_server() as server:
            handled = serve_stream(server, iter(lines), out)
        assert handled == len(lines)
        replies = {}
        for ln in out.getvalue().splitlines():
            obj = json.loads(ln)
            assert obj["trace_id"], f"untraced reply: {obj}"
            replies[obj["id"]] = obj
        assert replies["ok1"]["ok"] and replies["ok2"]["ok"]
        assert replies["ok2"]["trace_id"] == "t-client-1"
        assert replies[None]["ok"] is False  # the unparseable line
        assert replies[None]["trace_id"].startswith("t-")
        assert replies["bad1"]["ok"] is False
        assert replies["bad2"]["trace_id"] == "t-client-2"
        # The submit-failure path (parsed fine, rejected by validation).
        assert replies["bad3"]["ok"] is False
        assert replies["bad3"]["trace_id"] == "t-client-3"

    def test_crash_containment_keeps_the_trace_on_the_handle(self):
        """A batch that dies mid-solve answers ``ok: false`` with the
        *request's* trace — read off its handle, since no exception or
        payload survives to the response path — and the healed pool
        echoes traces again."""
        lines = [
            _solve_line(trace="t-doomed-1", request_id="doomed"),
            # A different tolerance keeps this out of the doomed batch:
            # incompatible keys never coalesce, so it is the respawned
            # pool's first solve.
            _solve_line(trace="t-healed-1", request_id="healed", tol=1e-3),
        ]
        out = io.StringIO()
        with _fake_server(
            fail_on={1: Exception("injected worker crash")}
        ) as server:
            serve_stream(server, iter(lines), out)
        doomed, healed = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert doomed["id"] == "doomed" and doomed["ok"] is False
        assert "injected worker crash" in doomed["error"]
        assert doomed["trace_id"] == "t-doomed-1"
        assert healed["ok"] and healed["trace_id"] == "t-healed-1"

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_broken_server_fast_fail_echoes_the_trace(self):
        """After a BaseException kills the dispatcher, later requests
        fail at ``submit()`` — the parsed payload is all that exists,
        and its trace must come back on the error. (The dispatcher
        thread dying with the injected BaseException is the scenario,
        hence the suppressed thread-exception warning.)"""
        with _fake_server(fail_on={1: KeyboardInterrupt("killed")}) as server:
            first = io.StringIO()
            serve_stream(
                server,
                iter([_solve_line(trace="t-first-1", request_id="first")]),
                first,
            )
            # The death is now fully landed.
            server._entries["default"].server._dispatcher.join()
            out = io.StringIO()
            serve_stream(
                server,
                iter([_solve_line(trace="t-late-1", request_id="late")]),
                out,
            )
        (late,) = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert late["ok"] is False and late["id"] == "late"
        assert "KeyboardInterrupt" in late["error"]
        assert late["trace_id"] == "t-late-1"


class TestTCPErrorPaths:
    def test_malformed_and_traced_lines_over_a_socket(self):
        with _fake_server() as server:
            tcp = make_tcp_server(server, "127.0.0.1", 0)
            host, port = tcp.server_address[:2]
            runner = threading.Thread(target=tcp.serve_forever, daemon=True)
            runner.start()
            try:
                with socket.create_connection(
                    (host, port), timeout=WAIT
                ) as sock:
                    payload = (
                        "garbage\n"
                        + _solve_line(trace="t-tcp-1", request_id="tr")
                        + "\n"
                        + '{"id": "tb", "b": [1.0], "bogus": 2, '
                        '"trace_id": "t-tcp-2"}\n'
                    )
                    sock.sendall(payload.encode())
                    sock.shutdown(socket.SHUT_WR)
                    raw = b""
                    while chunk := sock.recv(65536):
                        raw += chunk
            finally:
                tcp.shutdown()
                tcp.server_close()
        bad, ok, traced_bad = [
            json.loads(ln) for ln in raw.decode().splitlines()
        ]
        assert bad["ok"] is False and bad["trace_id"].startswith("t-")
        assert ok["ok"] and ok["trace_id"] == "t-tcp-1"
        assert traced_bad["ok"] is False
        assert traced_bad["trace_id"] == "t-tcp-2"


class TestHTTPErrorPaths:
    @pytest.fixture()
    def http_front(self):
        import http.client

        with _fake_server() as server:
            httpd = make_http_server(server, "127.0.0.1", 0)
            runner = threading.Thread(target=httpd.serve_forever, daemon=True)
            runner.start()
            host, port = httpd.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=WAIT)
            try:
                yield conn
            finally:
                conn.close()
                httpd.shutdown()
                httpd.server_close()

    def _request(self, conn, method, path, body=None):
        conn.request(
            method, path, body=None if body is None else body.encode()
        )
        resp = conn.getresponse()
        return resp, resp.read().decode()

    def test_400_paths_carry_the_trace(self, http_front):
        resp, body = self._request(
            http_front, "POST", "/v1/solve",
            '{"id": "hb", "b": [1.0], "bogus": 2, "trace_id": "t-http-1"}',
        )
        obj = json.loads(body)
        assert resp.status == 400 and obj["ok"] is False
        assert obj["trace_id"] == "t-http-1"
        resp, body = self._request(
            http_front, "POST", "/v1/solve", "not json"
        )
        obj = json.loads(body)
        assert resp.status == 400
        assert obj["id"] is None and obj["trace_id"].startswith("t-")

    def test_404_routes_are_traced_too(self, http_front):
        for method, path in (("POST", "/v1/nope"), ("GET", "/v1/nope")):
            resp, body = self._request(http_front, method, path, "{}")
            obj = json.loads(body)
            assert resp.status == 404 and obj["ok"] is False
            assert obj["trace_id"].startswith("t-")

    def test_metrics_route_traces_via_header(self, http_front):
        """The one non-JSON route: the trace rides an ``X-Trace-Id``
        header instead of a body field."""
        resp, body = self._request(http_front, "GET", "/v1/metrics")
        assert resp.status == 200
        assert resp.getheader("X-Trace-Id", "").startswith("t-")
        assert resp.getheader("Content-Type", "").startswith("text/plain")
        assert "repro_requests_served_total" in body

"""Front-end tests: JSON-lines over a stream, over TCP, and the CLI.

All transports speak the protocol of :mod:`repro.serve.protocol`;
responses always come back in submission order, and a malformed line
answers with ``ok: false`` instead of killing the stream.
"""

import io
import json
import socket
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.serve import MatrixRegistry, make_tcp_server, serve_stream
from repro.serve.frontend import handle_line

from .conftest import WAIT, one_matrix
from .simtest.fakes import diagonal_system, fake_factory

pytestmark = pytest.mark.serve


@pytest.fixture()
def server(system):
    A, _, _ = system
    with one_matrix(
        A, nproc=1, capacity_k=4, tol=1e-8, max_sweeps=300,
        sync_every_sweeps=10, max_wait=0.05,
    ) as srv:
        yield srv


def request_line(request_id, b, **extra) -> str:
    return json.dumps({"id": request_id, "b": np.asarray(b).tolist(), **extra})


class TestStream:
    def test_responses_in_submission_order(self, server, system):
        A, b, _ = system
        lines = [request_line(f"r{j}", b * (j + 1.0)) for j in range(4)]
        out = io.StringIO()
        handled = serve_stream(server, iter(lines), out)
        assert handled == 4
        responses = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == ["r0", "r1", "r2", "r3"]
        for j, r in enumerate(responses):
            assert r["ok"] and r["converged"]
            x = np.asarray(r["x"])
            resid = np.linalg.norm(b * (j + 1.0) - A.matvec(x))
            assert resid < 1e-6 * np.linalg.norm(b * (j + 1.0))

    def test_malformed_line_answers_without_killing_stream(self, server, system):
        _, b, _ = system
        lines = [
            request_line("good-1", b),
            "this is not json",
            json.dumps({"b": b.tolist(), "bogus_field": 1}),
            request_line("good-2", b * 2.0),
        ]
        out = io.StringIO()
        handled = serve_stream(server, iter(lines), out)
        assert handled == 4
        responses = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [True, False, False, True]
        assert responses[0]["id"] == "good-1"
        assert responses[3]["id"] == "good-2"
        assert "JSON" in responses[1]["error"]
        assert responses[1]["id"] is None  # unparseable: nothing to echo
        assert "unknown request field" in responses[2]["error"]

    def test_protocol_violation_with_parseable_json_echoes_id(
        self, server, system
    ):
        """A line that is valid JSON but violates the protocol carries a
        usable id — the client must be able to correlate the error.
        ``id: null`` is strictly for lines that did not parse at all."""
        _, b, _ = system
        lines = [
            json.dumps({"id": "bad-field", "b": b.tolist(), "bogus": 1}),
            json.dumps({"id": "no-b", "tol": 1e-6}),
            json.dumps({"id": "bad-type", "b": b.tolist(), "tol": "tight"}),
            json.dumps({"id": "bad-op", "op": "dance", "b": b.tolist()}),
        ]
        out = io.StringIO()
        handled = serve_stream(server, iter(lines), out)
        assert handled == 4
        responses = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert all(r["ok"] is False for r in responses)
        assert [r["id"] for r in responses] == [
            "bad-field", "no-b", "bad-type", "bad-op",
        ]

    def test_output_stream_closing_mid_burst_does_not_wedge(
        self, server, system
    ):
        """A text out-stream that dies mid-burst raises ValueError
        ("I/O operation on closed file"), not OSError; the writer must
        treat both as a dead pipe — keep draining results, stop writing
        — or serve_stream wedges forever on the writer join."""
        _, b, _ = system

        class _DiesAfterFirstWrite(io.StringIO):
            def write(self, text):
                alive_before = not self.closed
                result = super().write(text)
                if alive_before:
                    self.close()  # next write raises ValueError
                return result

        out = _DiesAfterFirstWrite()
        lines = [request_line(f"r{j}", b * (j + 1.0)) for j in range(5)]
        handled = serve_stream(server, iter(lines), out)
        assert handled == 5  # every request was still served
        stats = server.stats()
        assert stats.requests_served >= 5
        assert stats.requests_failed == 0

    def test_shape_violation_answers_inline_echoing_id(self, server, system):
        """A line that parses but fails validation echoes its id — id
        null is reserved for lines with nothing trustworthy to echo."""
        _, b, _ = system
        lines = [request_line("short", b[:-1])]
        out = io.StringIO()
        serve_stream(server, iter(lines), out)
        (resp,) = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert resp["ok"] is False
        assert resp["id"] == "short"
        assert "expected" in resp["error"]

    def test_block_request_roundtrip(self, server, block_system):
        _, B, _ = block_system
        lines = [request_line("blk", B[:, :2])]  # rows of 2 columns
        out = io.StringIO()
        serve_stream(server, iter(lines), out)
        (resp,) = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert resp["ok"] and resp["converged"]
        assert np.asarray(resp["x"]).shape == (B.shape[0], 2)
        assert resp["column_converged"] == [True, True]

    def test_blank_lines_skipped(self, server, system):
        _, b, _ = system
        lines = ["", "   ", request_line("only", b), ""]
        out = io.StringIO()
        handled = serve_stream(server, iter(lines), out)
        assert handled == 1
        assert len(out.getvalue().splitlines()) == 1


def _strict_loads(text: str):
    """RFC 8259 parsing: NaN and Infinity are not JSON."""

    def _refuse(name):
        raise ValueError(f"non-JSON constant {name} in reply")

    return json.loads(text, parse_constant=_refuse)


def _list_with_first(values, literal: str) -> str:
    """A JSON list whose first entry is the raw ``literal``."""
    rest = [json.dumps(float(v)) for v in values[1:]]
    return "[" + ", ".join([literal, *rest]) + "]"


@pytest.fixture(scope="module")
def registry(system):
    A, _, _ = system
    with MatrixRegistry(nproc=1, tol=1e-8, max_sweeps=300) as reg:
        reg.register("m", A)
        yield reg


class TestNonFiniteNumbers:
    """Non-finite numbers are refused on the way in, so every reply
    stays strict JSON and the connection keeps serving."""

    @staticmethod
    def lines(b):
        n = len(b)
        b_json = json.dumps(b.tolist())
        return {
            "nan-in-b": '{"id": "q", "b": %s}' % _list_with_first(b, "NaN"),
            "infinity-in-x0": '{"id": "q", "b": %s, "x0": %s}'
            % (b_json, _list_with_first(np.zeros(n), "Infinity")),
            "overflow-in-b": '{"id": "q", "b": %s}'
            % _list_with_first(b, "1e400"),
            "huge-int-in-b": '{"id": "q", "b": %s}'
            % _list_with_first(b, "1" + "0" * 400),
            "nan-tol": '{"id": "q", "b": %s, "tol": NaN}' % b_json,
        }

    @pytest.mark.parametrize(
        "case",
        ["nan-in-b", "infinity-in-x0", "overflow-in-b", "huge-int-in-b",
         "nan-tol"],
    )
    def test_rejected_with_strict_json_reply(self, registry, system, case):
        _, b, _ = system
        reply = _strict_loads(handle_line(registry, self.lines(b)[case])())
        assert reply["ok"] is False
        assert isinstance(reply["trace_id"], str) and reply["trace_id"]
        assert "finite" in reply["error"]
        if case in ("overflow-in-b", "huge-int-in-b"):  # valid JSON lines
            assert reply["id"] == "q"
        good = _strict_loads(handle_line(registry, request_line("ok", b))())
        assert good["ok"] and good["id"] == "ok"


def _diverging_factory(column: int):
    """The simtest fake pool, whose solves put ``inf`` into one column of
    the batch's iterate."""
    build = fake_factory()

    def factory(*args, **kwargs):
        pool = build(*args, **kwargs)
        solve = pool.solve

        def diverge(*a, **kw):
            out = solve(*a, **kw)
            out.x[:, column] = np.inf
            return out

        pool.solve = diverge
        return pool

    return factory


class TestDivergedSolves:
    """A solve that diverges from finite input answers ``ok: false``,
    traceable and naming the non-finite columns: its ``x`` would need the
    ``Infinity``/``NaN`` tokens that strict JSON lacks."""

    N = 6

    def _server(self, column):
        return one_matrix(
            diagonal_system(np.full(self.N, 2.0)), nproc=1, capacity_k=2,
            max_wait=0.0, solver_factory=_diverging_factory(column),
        )

    def test_single_request(self):
        with self._server(0) as srv:
            line = request_line("d", np.ones(self.N), trace_id="t-div-1")
            reply = _strict_loads(handle_line(srv, line)())
        assert reply == {
            "id": "d", "ok": False, "trace_id": "t-div-1",
            "error": reply["error"],
        }
        assert "diverged" in reply["error"] and "[0]" in reply["error"]

    def test_block_request_names_its_column(self):
        with self._server(1) as srv:
            line = request_line("blk", np.ones((self.N, 2)))
            reply = _strict_loads(handle_line(srv, line)())
            assert reply["ok"] is False
            assert reply["trace_id"].startswith("t-")
            assert "[1]" in reply["error"] and "[0, 1]" not in reply["error"]


class TestReplyOk:
    """``handle_line``'s callable reports its reply's ``ok`` field, so
    the HTTP front-end picks the status without parsing the reply."""

    def test_ok_matches_the_reply_of_every_kind(self):
        rows = np.ones(4)
        with MatrixRegistry(
            nproc=1, capacity_k=2, max_wait=0.0, solver_factory=fake_factory()
        ) as reg:
            reg.register("diag", diagonal_system(np.full(4, 2.0)))
            lines = [
                request_line("good", rows),
                request_line("bad-shape", np.ones(3)),
                request_line("ghost", rows, matrix="ghost"),
                "not json",
                '{"op": "stats"}',
                '{"op": "stats", "matrix": "ghost"}',
                '{"op": "matrices"}',
                '{"op": "register", "matrix": "x", "problem": "no-such"}',
            ]
            for line in lines:
                reply = handle_line(reg, line)
                assert reply.ok is None  # not answered yet
                text = reply()
                assert reply.ok is json.loads(text)["ok"], line
        with TestDivergedSolves()._server(0) as srv:
            reply = handle_line(srv, request_line("d", np.ones(TestDivergedSolves.N)))
            assert json.loads(reply())["ok"] is False
            assert reply.ok is False


class TestEpochArguments:
    """An out-of-range epoch argument is refused at submission: the
    reply names the parameter, and the request is never counted,
    batched or failed."""

    @pytest.mark.parametrize(
        "field,value", [("sync_every_sweeps", 0), ("max_sweeps", -3)]
    )
    def test_refused_before_counting(self, registry, system, field, value):
        _, b, _ = system
        before = registry.stats_payload()["aggregate"]
        line = request_line("q", b, **{field: value})
        reply = _strict_loads(handle_line(registry, line)())
        assert reply["ok"] is False
        assert reply["id"] == "q"
        assert reply["trace_id"].startswith("t-")
        assert field in reply["error"]
        after = registry.stats_payload()["aggregate"]
        for counter in ("requests_submitted", "requests_failed", "batches"):
            assert after[counter] == before[counter], counter


class TestTCP:
    def test_roundtrip_over_socket(self, server, system):
        A, b, _ = system
        tcp = make_tcp_server(server, "127.0.0.1", 0)  # ephemeral port
        host, port = tcp.server_address
        runner = threading.Thread(target=tcp.serve_forever, daemon=True)
        runner.start()
        try:
            with socket.create_connection((host, port), timeout=WAIT) as sock:
                sock.settimeout(WAIT)
                f = sock.makefile("rw", encoding="utf-8")
                for j in range(3):
                    f.write(request_line(j, b * (j + 1.0)) + "\n")
                f.flush()
                sock.shutdown(socket.SHUT_WR)
                responses = [json.loads(ln) for ln in f]
        finally:
            tcp.shutdown()
            tcp.server_close()
        assert [r["id"] for r in responses] == [0, 1, 2]
        assert all(r["ok"] and r["converged"] for r in responses)

    def test_client_disconnect_before_reading_survives(self, server, system):
        """A client that submits and vanishes without reading its
        responses must not kill the writer thread or the server: the
        next healthy connection is answered normally."""
        _, b, _ = system
        tcp = make_tcp_server(server, "127.0.0.1", 0)
        host, port = tcp.server_address
        runner = threading.Thread(target=tcp.serve_forever, daemon=True)
        runner.start()
        try:
            rude = socket.create_connection((host, port), timeout=WAIT)
            rude.sendall(
                (request_line(1, b) + "\n" + request_line(2, b) + "\n").encode()
            )
            rude.close()  # gone before any response is written
            with socket.create_connection((host, port), timeout=WAIT) as sock:
                sock.settimeout(WAIT)
                f = sock.makefile("rw", encoding="utf-8")
                f.write(request_line(3, b) + "\n")
                f.flush()
                sock.shutdown(socket.SHUT_WR)
                (resp,) = [json.loads(ln) for ln in f]
        finally:
            tcp.shutdown()
            tcp.server_close()
        assert resp["ok"] and resp["id"] == 3

    def test_invalid_utf8_gets_error_response_not_a_dead_connection(
        self, server, system
    ):
        """A client sending bytes that are not UTF-8 must get an
        ``ok: false`` line and keep its connection — the decode error
        used to unwind the handler and kill the socket with a
        socketserver traceback."""
        _, b, _ = system
        tcp = make_tcp_server(server, "127.0.0.1", 0)
        host, port = tcp.server_address
        runner = threading.Thread(target=tcp.serve_forever, daemon=True)
        runner.start()
        try:
            with socket.create_connection((host, port), timeout=WAIT) as sock:
                sock.settimeout(WAIT)
                sock.sendall(b"\xff\xfe{not utf8\n")
                sock.sendall((request_line("after", b) + "\n").encode())
                sock.shutdown(socket.SHUT_WR)
                f = sock.makefile("r", encoding="utf-8")
                responses = [json.loads(ln) for ln in f]
        finally:
            tcp.shutdown()
            tcp.server_close()
        assert len(responses) == 2
        assert responses[0]["ok"] is False
        assert "JSON" in responses[0]["error"]
        # The same connection stays alive for well-formed traffic.
        assert responses[1]["ok"] is True
        assert responses[1]["id"] == "after"

    def test_two_connections_share_one_pool(self, server, system):
        _, b, _ = system
        tcp = make_tcp_server(server, "127.0.0.1", 0)
        host, port = tcp.server_address
        runner = threading.Thread(target=tcp.serve_forever, daemon=True)
        runner.start()
        try:
            for round_ in range(2):
                with socket.create_connection((host, port), timeout=WAIT) as sock:
                    sock.settimeout(WAIT)
                    f = sock.makefile("rw", encoding="utf-8")
                    f.write(request_line(round_, b) + "\n")
                    f.flush()
                    sock.shutdown(socket.SHUT_WR)
                    (resp,) = [json.loads(ln) for ln in f]
                assert resp["ok"] and resp["id"] == round_
        finally:
            tcp.shutdown()
            tcp.server_close()
        assert server.stats().spawn_count == 1


class TestCLI:
    def test_stdin_mode_serves_problem(self, monkeypatch, capsys):
        from repro.workloads import get_problem

        prob = get_problem("social-small")
        lines = "\n".join(
            request_line(j, prob.b * (j + 1.0), tol=1e-4) for j in range(3)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        rc = main([
            "serve", "--problem", "social-small", "--nproc", "1",
            "--capacity", "4", "--max-sweeps", "800",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        responses = [json.loads(ln) for ln in captured.out.splitlines()]
        assert [r["id"] for r in responses] == [0, 1, 2]
        assert all(r["ok"] for r in responses)
        assert "served 3 request(s)" in captured.err
        assert "pool spawn(s)" in captured.err

    def test_stdin_mode_routes_across_registered_matrices(
        self, monkeypatch, capsys
    ):
        """Two --matrix registrations behind one stdin gateway: requests
        route by their "matrix" field, unrouted ones hit the first
        registered (default) matrix, and the matrices verb lists both."""
        from repro.workloads import get_problem

        prob = get_problem("social-small")
        lines = "\n".join(
            [
                json.dumps(
                    {"id": "a1", "b": prob.b.tolist(), "matrix": "alpha",
                     "tol": 1e-4}
                ),
                json.dumps(
                    {"id": "b1", "b": (2.0 * prob.b).tolist(),
                     "matrix": "beta", "tol": 1e-4}
                ),
                json.dumps({"id": "d1", "b": prob.b.tolist(), "tol": 1e-4}),
                json.dumps({"id": "mx", "op": "matrices"}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        rc = main([
            "serve", "--matrix", "alpha=social-small",
            "--matrix", "beta=social-small", "--nproc", "1",
            "--capacity", "4", "--max-sweeps", "800",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        responses = {}
        for ln in captured.out.splitlines():
            obj = json.loads(ln)
            responses[obj["id"]] = obj
        assert responses["a1"]["ok"] and responses["a1"]["converged"]
        assert responses["b1"]["ok"] and responses["b1"]["converged"]
        assert responses["d1"]["ok"]  # unrouted -> default (alpha)
        listing = {m["matrix"]: m for m in responses["mx"]["matrices"]}
        assert set(listing) == {"alpha", "beta"}
        assert listing["alpha"]["default"] is True
        assert "served 3 request(s)" in captured.err

    def test_requires_exactly_one_source(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one" in capsys.readouterr().out
        assert main(["serve", "foo.mtx", "--problem", "social-small"]) == 2
        assert main([
            "serve", "--problem", "social-small",
            "--matrix", "x=social-small",
        ]) == 2

    def test_malformed_matrix_spec_is_a_clean_error(self, capsys):
        rc = main(["serve", "--matrix", "nospec"])
        assert rc == 2
        assert "NAME=SPEC" in capsys.readouterr().out

    def test_unservable_matrix_backing_is_a_clean_error(
        self, monkeypatch, capsys
    ):
        """Registration refuses a sharded AsyRK matrix before serving:
        one ``error:`` line and exit code 2, not a server that answers
        nothing and exits 0."""
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc = main(["serve", "--matrix", "a=laplace2d,method=asyrk,shards=2"])
        captured = capsys.readouterr()
        assert rc == 2
        errors = [ln for ln in captured.out.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "asyrgs" in errors[0]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("max_wait", ["inf", "nan", "1e300"])
    def test_unwaitable_max_wait_is_a_clean_error(
        self, max_wait, monkeypatch, capsys
    ):
        """A linger window the dispatcher could not wait is refused at
        startup: one ``error:`` line and exit code 2."""
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc = main([
            "serve", "--problem", "social-small", "--max-wait", max_wait,
        ])
        captured = capsys.readouterr()
        assert rc == 2
        errors = [ln for ln in captured.out.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "max_wait" in errors[0]
        assert "Traceback" not in captured.out + captured.err

    def test_duplicate_matrix_name_is_a_clean_error(self, capsys):
        rc = main([
            "serve", "--matrix", "a=social-small",
            "--matrix", "a=social-small",
        ])
        assert rc == 2
        assert "more than once" in capsys.readouterr().out

    def test_tcp_and_http_transports_are_exclusive(self, capsys):
        rc = main([
            "serve", "--problem", "social-small", "--port", "0",
            "--http", "0",
        ])
        assert rc == 2
        assert "one transport" in capsys.readouterr().out

    def test_unknown_problem_is_a_clean_error(self, capsys):
        rc = main(["serve", "--problem", "no-such-problem"])
        assert rc == 2
        assert "unknown problem" in capsys.readouterr().out

    def test_help_epilog_documents_serving(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "Serving:" in out
        assert "repro experiment serve" in out

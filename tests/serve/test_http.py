"""HTTP front-end tests: the same protocol over ``POST /v1/solve``,
``GET /v1/stats``, and ``GET /v1/matrices``, and a traced JSON error
for every request the handler cannot read.

The HTTP handler submits through the same :func:`handle_line` seam as
the JSON-lines transports, so everything the stream tests pin —
correctness against the serial solve, error envelopes, id echo — holds
here too; these tests pin the HTTP-specific surface (routes, status
codes, concurrent handler threads coalescing, worker-crash containment
over a web request).
"""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

import repro.execution.pool as processes_module
from repro.serve import MatrixRegistry, make_http_server

from .conftest import WAIT, one_matrix
from .simtest.fakes import diagonal_system, fake_factory
from .test_frontend import _strict_loads

pytestmark = pytest.mark.serve


@pytest.fixture()
def server(system):
    A, _, _ = system
    with one_matrix(
        A, nproc=1, capacity_k=4, tol=1e-8, max_sweeps=300,
        sync_every_sweeps=10, max_wait=0.05,
    ) as srv:
        yield srv


class _Client:
    """One keep-alive HTTP/1.1 connection to the front-end under test."""

    def __init__(self, address):
        host, port = address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=WAIT)

    def request(self, method, path, body=None):
        self.conn.request(
            method, path,
            body=None if body is None else body.encode("utf-8"),
        )
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))

    def close(self):
        self.conn.close()


@pytest.fixture()
def http_front(server):
    httpd = make_http_server(server, "127.0.0.1", 0)
    runner = threading.Thread(target=httpd.serve_forever, daemon=True)
    runner.start()
    client = _Client(httpd.server_address)
    try:
        yield client, server
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()


class TestSolveRoute:
    def test_solve_roundtrip(self, http_front, system):
        A, b, _ = system
        client, _ = http_front
        status, resp = client.request(
            "POST", "/v1/solve", json.dumps({"id": "h1", "b": b.tolist()})
        )
        assert status == 200
        assert resp["ok"] and resp["converged"]
        assert resp["id"] == "h1"
        x = np.asarray(resp["x"])
        assert np.linalg.norm(b - A.matvec(x)) < 1e-6 * np.linalg.norm(b)

    def test_malformed_body_is_400_with_id_echo(self, http_front):
        client, _ = http_front
        status, resp = client.request(
            "POST", "/v1/solve", json.dumps({"id": "bad", "b": [1.0], "huh": 2})
        )
        assert status == 400
        assert resp["ok"] is False
        assert resp["id"] == "bad"  # valid JSON => id echoed
        assert "unknown request field" in resp["error"]

    def test_unparseable_body_is_400_with_null_id(self, http_front):
        client, _ = http_front
        status, resp = client.request("POST", "/v1/solve", "not json at all")
        assert status == 400
        assert resp["ok"] is False and resp["id"] is None

    def test_unknown_route_is_404(self, http_front):
        client, _ = http_front
        status, resp = client.request("POST", "/v1/nope", "{}")
        assert status == 404 and resp["ok"] is False
        status, resp = client.request("GET", "/v1/nope")
        assert status == 404 and resp["ok"] is False

    def test_concurrent_posts_coalesce_on_one_pool(self, system):
        """Handler threads share the submission seam, so simultaneous
        HTTP clients batch together exactly like TCP ones."""
        A, b, _ = system
        n_clients = 6
        with one_matrix(
            A, nproc=1, capacity_k=n_clients, tol=1e-8, max_sweeps=300,
            sync_every_sweeps=10, max_wait=2.0,
        ) as srv:
            httpd = make_http_server(srv, "127.0.0.1", 0)
            runner = threading.Thread(target=httpd.serve_forever, daemon=True)
            runner.start()
            results = [None] * n_clients
            errors = []

            def post(j):
                try:
                    client = _Client(httpd.server_address)
                    try:
                        results[j] = client.request(
                            "POST", "/v1/solve",
                            json.dumps(
                                {"id": j, "b": (b * (1.0 + j)).tolist()}
                            ),
                        )
                    finally:
                        client.close()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            try:
                threads = [
                    threading.Thread(target=post, args=(j,))
                    for j in range(n_clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                stats = srv.stats()
            finally:
                httpd.shutdown()
                httpd.server_close()
        assert not errors, errors
        for j, (status, resp) in enumerate(results):
            assert status == 200
            assert resp["ok"] and resp["converged"] and resp["id"] == j
        # The burst really shared solves: fewer batches than requests
        # (the first may have launched alone before the burst landed).
        assert stats.batches < n_clients
        assert stats.max_batch_size >= 2

    def test_get_stats(self, http_front, system):
        _, b, _ = system
        client, _ = http_front
        client.request(
            "POST", "/v1/solve", json.dumps({"b": b.tolist()})
        )
        status, resp = client.request("GET", "/v1/stats")
        assert status == 200 and resp["ok"]
        assert list(resp["matrices"]) == ["default"]
        assert resp["aggregate"]["requests_served"] == 1
        assert resp["matrices"]["default"]["requests_served"] == 1
        assert "policy" not in resp["aggregate"]

    def test_get_matrices(self, http_front, system):
        client, _ = http_front
        status, resp = client.request("GET", "/v1/matrices")
        assert status == 200 and resp["ok"]
        (entry,) = resp["matrices"]
        assert entry["matrix"] == "default" and entry["default"] is True
        assert entry["n"] == 30


class TestRegistryOverHTTP:
    @pytest.fixture()
    def registry_front(self, system, block_system):
        A, _, _ = system
        with MatrixRegistry(
            nproc=1, capacity_k=4, tol=1e-8, max_sweeps=300,
            sync_every_sweeps=10, max_wait=0.0,
        ) as reg:
            reg.register("main", A)
            httpd = make_http_server(reg, "127.0.0.1", 0)
            runner = threading.Thread(target=httpd.serve_forever, daemon=True)
            runner.start()
            client = _Client(httpd.server_address)
            try:
                yield client, reg
            finally:
                client.close()
                httpd.shutdown()
                httpd.server_close()

    def test_routes_by_matrix_field_and_lists_matrices(
        self, registry_front, system
    ):
        A, b, _ = system
        client, _ = registry_front
        status, resp = client.request(
            "POST", "/v1/solve",
            json.dumps({"id": "r", "b": b.tolist(), "matrix": "main"}),
        )
        assert status == 200 and resp["ok"]
        status, resp = client.request(
            "POST", "/v1/solve",
            json.dumps({"id": "r2", "b": b.tolist(), "matrix": "ghost"}),
        )
        assert status == 400
        assert "unknown matrix" in resp["error"]
        status, resp = client.request("GET", "/v1/matrices")
        assert status == 200
        assert [m["matrix"] for m in resp["matrices"]] == ["main"]

    def test_register_verb_through_solve_route(self, registry_front):
        """POST /v1/solve speaks the whole protocol — control verbs
        included — because it rides the shared handle_line seam."""
        from repro.workloads import get_problem

        client, reg = registry_front
        status, resp = client.request(
            "POST", "/v1/solve",
            json.dumps(
                {"op": "register", "id": "reg1", "matrix": "soc",
                 "problem": "social-small"}
            ),
        )
        assert status == 200 and resp["ok"]
        assert resp["registered"] == "soc"
        assert "soc" in reg.matrices()
        prob = get_problem("social-small")
        status, resp = client.request(
            "POST", "/v1/solve",
            json.dumps(
                {"id": "s", "b": prob.b.tolist(), "matrix": "soc",
                 "tol": 1e-4, "max_sweeps": 800}
            ),
        )
        assert status == 200 and resp["ok"] and resp["converged"]

    def test_per_matrix_stats_query(self, registry_front, system):
        _, b, _ = system
        client, _ = registry_front
        client.request(
            "POST", "/v1/solve", json.dumps({"b": b.tolist()})
        )
        status, resp = client.request("GET", "/v1/stats?matrix=main")
        assert status == 200
        assert resp["matrix"] == "main"
        assert resp["requests_served"] == 1
        status, resp = client.request("GET", "/v1/stats")
        assert status == 200
        assert resp["aggregate"]["requests_served"] == 1
        status, resp = client.request("GET", "/v1/stats?matrix=ghost")
        assert status == 400
        assert "unknown matrix" in resp["error"]


class TestWorkerCrashOverHTTP:
    @pytest.mark.usefixtures("no_leaks")
    def test_crash_is_a_400_naming_the_worker_and_the_server_recovers(
        self, system, tmp_path, monkeypatch
    ):
        """The stress suite's monkeypatched fault injection, replayed
        over a web request: a worker dying mid-solve answers this
        request ``ok: false`` with the guilty worker id, and the next
        request respawns the pool and succeeds."""
        A, b, _ = system
        flag = tmp_path / "crash-armed"
        flag.touch()
        real_loop = processes_module._worker_loop

        def crashing_loop(wid, *args, **kwargs):
            if wid == 1 and flag.exists():
                raise RuntimeError("injected worker crash")
            return real_loop(wid, *args, **kwargs)

        monkeypatch.setattr(processes_module, "_worker_loop", crashing_loop)
        with one_matrix(
            A, nproc=2, capacity_k=2, tol=1e-8, max_sweeps=200,
            sync_every_sweeps=10, max_wait=0.0,
            barrier_timeout=60.0,
        ) as srv:
            httpd = make_http_server(srv, "127.0.0.1", 0)
            runner = threading.Thread(target=httpd.serve_forever, daemon=True)
            runner.start()
            client = _Client(httpd.server_address)
            try:
                status, resp = client.request(
                    "POST", "/v1/solve",
                    json.dumps({"id": "doomed", "b": b.tolist()}),
                )
                assert status == 400
                assert resp["ok"] is False and resp["id"] == "doomed"
                assert "worker 1 crashed" in resp["error"]

                flag.unlink()  # heal: the respawned pool is clean
                status, resp = client.request(
                    "POST", "/v1/solve",
                    json.dumps({"id": "healed", "b": b.tolist()}),
                )
                assert status == 200
                assert resp["ok"] and resp["converged"]
            finally:
                client.close()
                httpd.shutdown()
                httpd.server_close()
        assert srv.stats().spawn_count == 2  # the one honest respawn


class TestUnreadableRequests:
    """A request the handler cannot read is answered, never met with a
    traceback, an HTML page or silence: strict JSON, ``ok: false``, a
    trace id, and nothing on stderr. Each request is the whole of what
    the client sends, and it keeps its side open, as a client awaiting
    its reply does."""

    REQUESTS = {
        "length-not-digits": (
            b"POST /v1/solve HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
        ),
        "length-overflows": (
            b"POST /v1/solve HTTP/1.1\r\n"
            b"Content-Length: 99999999999999999999\r\n\r\n"
        ),
        "length-negative": (
            b"POST /v1/solve HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
        ),
        "unknown-method": (
            b"PUT /v1/solve HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        ),
        "garbled-request-line": b"GARBAGE\r\n",
    }

    @pytest.fixture()
    def address(self):
        with one_matrix(
            diagonal_system(np.full(4, 2.0)), nproc=1, capacity_k=2,
            max_wait=0.0, solver_factory=fake_factory(),
        ) as registry:
            httpd = make_http_server(registry, "127.0.0.1", 0)
            threading.Thread(target=httpd.serve_forever, daemon=True).start()
            try:
                yield httpd.server_address[:2]
            finally:
                httpd.shutdown()
                httpd.server_close()

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_answered_with_a_traced_json_error(self, address, capfd, name):
        with socket.create_connection(address, timeout=WAIT) as sock:
            sock.sendall(self.REQUESTS[name])
            raw = b""
            while chunk := sock.recv(65536):  # the server closes
                raw += chunk
        if raw.startswith(b"HTTP/"):
            head, _, body = raw.partition(b"\r\n\r\n")
            status = int(head.split()[1])
            assert 400 <= status < 600, head
            assert b"Content-Type: application/json" in head, head
        else:  # a request line without a version is answered HTTP/0.9
            body = raw
        reply = _strict_loads(body.decode("utf-8"))
        assert reply["ok"] is False and reply["error"], reply
        assert reply["trace_id"].startswith("t-"), reply
        assert capfd.readouterr().err == ""

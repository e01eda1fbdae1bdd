"""Unit tests for :class:`repro.serve.SolverServer` and the protocol.

The concurrency/stress side lives in ``test_stress.py``; this file pins
the per-feature contracts: request/response correctness against the
serial solver, batching and the linger window, per-request overrides,
lifecycle, stats, and the JSON-lines protocol.
"""

import hashlib
import json
import queue

import numpy as np
import pytest

from repro.exceptions import ServeError, ShapeError
from repro.execution import ProcessAsyRGS
from repro.serve import MatrixRegistry, SolverServer
from repro.serve import cache as cache_module
from repro.serve.protocol import (
    encode_error,
    encode_info,
    encode_result,
    parse_line,
)

from repro.serve.runtime import ThreadRuntime

from .conftest import WAIT
from .simtest.fakes import diagonal_system, fake_factory

pytestmark = pytest.mark.serve


@pytest.fixture()
def server(system):
    A, _, _ = system
    with SolverServer(
        A, nproc=1, capacity_k=6, tol=1e-8, max_sweeps=300,
        sync_every_sweeps=10, max_wait=0.0,
    ) as srv:
        yield srv


class TestSingleRequests:
    def test_matches_equivalent_serial_solve(self, server, block_system):
        """A served request must answer exactly like ProcessAsyRGS.solve
        on the same stream (nproc=1 is deterministic; the capacity pool
        takes the same scalar gather path for a lone active column)."""
        A, B, _ = block_system
        res = server.solve(B[:, 0], timeout=WAIT)
        ref = ProcessAsyRGS(A, B[:, 0], nproc=1).solve(
            tol=1e-8, max_sweeps=300, sync_every_sweeps=10
        )
        assert res.converged and ref.converged
        np.testing.assert_array_equal(res.x, ref.x)
        assert res.sweeps == int(ref.column_sweeps[0])

    def test_repeated_request_is_bit_deterministic(self, server, system):
        """Pool reuse must not leak state: the same request twice on one
        live pool returns identical bytes."""
        _, b, _ = system
        r1 = server.solve(b, timeout=WAIT)
        r2 = server.solve(b, timeout=WAIT)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.sweeps == r2.sweeps
        assert server.spawn_count == 1

    def test_result_shape_and_metadata(self, server, system):
        _, b, _ = system
        res = server.solve(b, timeout=WAIT)
        assert res.x.shape == b.shape
        assert res.converged
        assert res.residual < 1e-8
        assert res.batch_size == 1
        assert res.latency >= res.queue_wait >= 0.0
        assert res.solve_wall > 0.0
        assert res.column_sweeps is None  # per-column detail is for blocks

    def test_submit_copies_payload(self, server, system):
        """The request is not read until its batch launches, so the
        payload must be snapshotted at submit: a caller reusing its
        buffer must not retroactively change what is solved."""
        A, b, _ = system
        buf = b.copy()
        handle = server.submit(buf)
        buf[:] = 0.0  # client reuses its buffer immediately
        res = handle.result(WAIT)
        assert res.converged
        resid = np.linalg.norm(b - A.matvec(res.x))
        assert resid < 1e-6 * np.linalg.norm(b)

    def test_per_request_x0_warm_start(self, server, system):
        """A warm start at the exact solution converges at sweep 0."""
        A, b, x_star = system
        res = server.solve(b, x0=x_star, timeout=WAIT)
        assert res.converged
        assert res.sweeps == 0
        np.testing.assert_array_equal(res.x, x_star)

    def test_per_request_tolerance(self, server, system):
        """A looser per-request tol retires earlier than the default."""
        _, b, _ = system
        loose = server.solve(b, tol=1e-2, timeout=WAIT)
        tight = server.solve(b, tol=1e-10, timeout=WAIT)
        assert loose.converged and tight.converged
        assert loose.sweeps <= tight.sweeps
        assert loose.residual < 1e-2 and tight.residual < 1e-10


class TestBlockRequests:
    def test_block_matches_equivalent_serial_solve(self, server, block_system):
        A, B, _ = block_system
        res = server.solve(B, timeout=WAIT)
        ref = ProcessAsyRGS(A, B, nproc=1).solve(
            tol=1e-8, max_sweeps=300, sync_every_sweeps=10
        )
        assert res.converged and ref.converged
        np.testing.assert_array_equal(res.x, ref.x)
        np.testing.assert_array_equal(res.column_sweeps, ref.column_sweeps)
        assert res.column_converged.all()
        assert (res.column_residuals < 1e-8).all()
        assert res.batch_size == 1  # blocks are never coalesced

    def test_narrow_block_on_wide_pool(self, server, block_system):
        _, B, X_star = block_system
        res = server.solve(B[:, :3], timeout=WAIT)
        assert res.x.shape == (B.shape[0], 3)
        assert res.converged
        assert np.abs(res.x - X_star[:, :3]).max() < 1e-5
        assert server.spawn_count == 1

    def test_block_wider_than_capacity_rejected(self, server, block_system):
        _, B, _ = block_system
        too_wide = np.hstack([B, B])  # 12 > capacity 6
        with pytest.raises(ShapeError, match="layout capacity"):
            server.submit(too_wide)


class TestBatching:
    def test_quiet_queue_batches_alone(self, server, system):
        """max_wait=0: a lone request must not linger for company."""
        _, b, _ = system
        res = server.solve(b, timeout=WAIT)
        assert res.batch_size == 1

    def test_compatible_singles_coalesce(self, block_system):
        """With a lingering dispatcher, a burst of compatible requests
        rides one block solve and every slice is correct."""
        A, B, X_star = block_system
        k = B.shape[1]
        with SolverServer(
            A, nproc=1, capacity_k=k, tol=1e-8, max_sweeps=300,
            sync_every_sweeps=10, max_wait=2.0,
        ) as srv:
            handles = [srv.submit(B[:, j]) for j in range(k)]
            results = [h.result(WAIT) for h in handles]
            stats = srv.stats()
        assert all(r.converged for r in results)
        for j, r in enumerate(results):
            assert np.abs(r.x - X_star[:, j]).max() < 1e-5
        # The burst coalesced: far fewer batches than requests (the
        # first may have launched alone before the burst landed).
        assert stats.batches < k
        assert stats.max_batch_size >= 2
        assert any(r.batch_size >= 2 for r in results)

    def test_incompatible_tolerances_split_batches(self, block_system):
        """Different solve parameters must never share a batch — each
        request's tolerance is honored exactly."""
        A, B, _ = block_system
        with SolverServer(
            A, nproc=1, capacity_k=4, tol=1e-8, max_sweeps=300,
            sync_every_sweeps=10, max_wait=2.0,
        ) as srv:
            h1 = srv.submit(B[:, 0], tol=1e-3)
            h2 = srv.submit(B[:, 1], tol=1e-9)
            r1, r2 = h1.result(WAIT), h2.result(WAIT)
            stats = srv.stats()
        assert stats.batches == 2
        assert r1.batch_size == r2.batch_size == 1
        assert r1.residual < 1e-3 and r2.residual < 1e-9

    def test_max_batch_caps_coalescing(self, block_system):
        A, B, _ = block_system
        k = B.shape[1]
        with SolverServer(
            A, nproc=1, capacity_k=k, tol=1e-8, max_sweeps=300,
            sync_every_sweeps=10, max_wait=2.0, max_batch=2,
        ) as srv:
            handles = [srv.submit(B[:, j]) for j in range(k)]
            results = [h.result(WAIT) for h in handles]
            stats = srv.stats()
        assert all(r.converged for r in results)
        assert stats.max_batch_size <= 2
        assert stats.batches >= k // 2

    def test_max_batch_bounded_by_capacity(self, system):
        A, _, _ = system
        srv = SolverServer(A, nproc=1, capacity_k=3, max_batch=100)
        try:
            assert srv.max_batch == 3
        finally:
            srv.close()


class _OverflowingQueue(queue.Queue):
    """A queue whose first timed ``get`` raises what ``queue.get``
    raises for a timeout it cannot wait."""

    def __init__(self):
        super().__init__()
        self.fault = True

    def get(self, block=True, timeout=None):
        if timeout is not None and self.fault:
            self.fault = False
            raise OverflowError("timeout value is too large")
        return super().get(block, timeout)


class _OverflowRuntime(ThreadRuntime):
    @staticmethod
    def queue():
        return _OverflowingQueue()


class TestLingerWindow:
    @pytest.mark.parametrize(
        "max_wait", [float("nan"), -0.1, float("inf"), 1e300]
    )
    def test_unwaitable_window_refused(self, max_wait):
        """A window ``queue.get`` cannot wait is refused up front, by the
        server, the registry and a registration override alike."""
        A = diagonal_system(np.ones(4))
        with pytest.raises(ServeError, match="max_wait"):
            SolverServer(
                A, nproc=1, max_wait=max_wait, solver_factory=fake_factory()
            )
        with pytest.raises(ServeError, match="max_wait"):
            MatrixRegistry(nproc=1, max_wait=max_wait)
        with MatrixRegistry(nproc=1, solver_factory=fake_factory()) as reg:
            with pytest.raises(ServeError, match="max_wait"):
                reg.register("a", A, max_wait=max_wait)
            assert reg.matrices() == []

    def test_gather_failure_fails_its_batch(self):
        """A fault while lingering fails the request being gathered,
        like a crashed solve, and the dispatcher keeps serving."""
        with SolverServer(
            diagonal_system(2.0 * np.ones(4)), nproc=1, max_wait=0.05,
            runtime=_OverflowRuntime(), solver_factory=fake_factory(),
        ) as srv:
            handle = srv.submit(np.ones(4))
            with pytest.raises(ServeError, match="batch of 1 request"):
                handle.result(timeout=10.0)
            res = srv.solve(np.ones(4), timeout=10.0)
            np.testing.assert_array_equal(res.x, np.full(4, 0.5))
            stats = srv.stats()
        assert (stats.requests_failed, stats.requests_served) == (1, 1)


class TestLifecycle:
    def test_submit_after_close_raises(self, system):
        A, b, _ = system
        srv = SolverServer(A, nproc=1, capacity_k=2)
        srv.close()
        with pytest.raises(ServeError, match="closed"):
            srv.submit(b)

    def test_close_is_idempotent(self, system):
        A, _, _ = system
        srv = SolverServer(A, nproc=1, capacity_k=2)
        srv.close()
        srv.close()

    def test_close_drains_inflight_requests(self, system):
        """Requests submitted before close() are served, not dropped."""
        A, b, _ = system
        srv = SolverServer(
            A, nproc=1, capacity_k=2, tol=1e-8, max_sweeps=300, max_wait=0.0
        )
        handles = [srv.submit(b * (j + 1.0)) for j in range(4)]
        srv.close()
        for h in handles:
            assert h.result(WAIT).converged

    def test_result_timeout_raises_without_cancelling(self, server, system):
        _, b, _ = system
        handle = server.submit(b)
        with pytest.raises(ServeError, match="did not complete"):
            handle.result(0.0)
        assert handle.result(WAIT).converged  # still completes

    def test_invalid_request_shapes_rejected_at_submit(self, server, system):
        _, b, _ = system
        with pytest.raises(ShapeError):
            server.submit(b[:-1])
        with pytest.raises(ShapeError):
            server.submit(np.zeros((b.shape[0], 2, 2)))
        with pytest.raises(ShapeError):
            server.submit(b, x0=np.zeros(5))


class TestStats:
    def test_counters_add_up(self, server, system):
        _, b, _ = system
        for j in range(3):
            server.solve(b * (j + 1.0), timeout=WAIT)
        stats = server.stats()
        assert stats.requests_submitted == 3
        assert stats.requests_served == 3
        assert stats.requests_failed == 0
        assert stats.batches == 3  # sequential solves cannot coalesce
        assert stats.latency_mean > 0.0
        assert stats.latency_max >= stats.latency_mean
        assert stats.spawn_count == 1
        assert stats.mean_batch_size == 1.0


class TestCache:
    def test_a_cache_miss_hashes_its_rhs_once(self, system, monkeypatch):
        """The miss's lookup and the store after its solve share one
        SHA-1 fingerprint of ``b``."""
        A, b, _ = system
        digests = []

        class CountingHashlib:
            @staticmethod
            def sha1():
                digests.append(1)
                return hashlib.sha1()

        monkeypatch.setattr(cache_module, "hashlib", CountingHashlib)
        cache = cache_module.SolutionCache()
        with SolverServer(
            A, nproc=1, tol=1e-8, max_sweeps=300, max_wait=0.0, cache=cache
        ) as srv:
            assert srv.solve(b, timeout=WAIT).converged
        stats = cache.stats()
        assert (stats["misses"], stats["stores"]) == (1, 1)
        assert len(digests) == 1


class TestProtocol:
    def test_parse_minimal_request(self):
        op, kwargs = parse_line('{"b": [1.0, 2.0]}')
        assert op == "solve"
        trace = kwargs.pop("trace_id")
        assert trace.startswith("t-")  # minted at the parse seam
        b = kwargs.pop("b")
        assert b.dtype == np.float64 and b.tolist() == [1.0, 2.0]
        assert kwargs == {}

    def test_parse_full_request(self):
        op, kwargs = parse_line(
            '{"id": "r1", "b": [1, 2], "tol": 0.5, "max_sweeps": 7, '
            '"sync_every_sweeps": 3, "x0": [0, 0]}'
        )
        assert op == "solve"
        assert kwargs["request_id"] == "r1"
        assert kwargs["tol"] == 0.5
        assert kwargs["max_sweeps"] == 7
        assert kwargs["sync_every_sweeps"] == 3
        assert kwargs["x0"].dtype == np.float64
        assert kwargs["x0"].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize(
        "line, match",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "must be a JSON object"),
            ('{"tol": 1.0}', 'required "b"'),
            ('{"b": [1], "bogus": 2}', "unknown request field"),
            ('{"b": [1], "tol": 1e400}', '"tol" must be finite'),
            ('{"b": [1], "max_sweeps": 1e400}', "ill-typed solve parameter"),
            ('{"id": 1e400, "b": [1]}', '"id" must be finite'),
        ],
    )
    def test_parse_rejects_malformed(self, line, match):
        with pytest.raises(ServeError, match=match):
            parse_line(line)

    def test_encode_roundtrip(self, server, system):
        _, b, _ = system
        res = server.solve(b, request_id="req-7", timeout=WAIT)
        obj = json.loads(encode_result(res))
        assert obj["id"] == "req-7"
        assert obj["ok"] is True
        assert obj["converged"] is True
        assert obj["sweeps"] == res.sweeps
        np.testing.assert_allclose(obj["x"], res.x)

    def test_encode_block_result_has_column_detail(self, server, block_system):
        _, B, _ = block_system
        res = server.solve(B[:, :2], timeout=WAIT)
        obj = json.loads(encode_result(res))
        assert len(obj["column_sweeps"]) == 2
        assert obj["column_converged"] == [True, True]

    def test_encode_error(self):
        obj = json.loads(encode_error("r9", ValueError("boom")))
        assert obj == {
            "id": "r9", "ok": False, "trace_id": None, "error": "boom",
        }
        obj = json.loads(encode_error("r9", ValueError("boom"), "t-x-1"))
        assert obj["trace_id"] == "t-x-1"

    def test_encode_info(self):
        obj = json.loads(encode_info("r2", {"registered": "m", "n": 4}))
        assert obj == {
            "id": "r2", "ok": True, "trace_id": None,
            "registered": "m", "n": 4,
        }

    def test_parse_matrix_field(self):
        _, kwargs = parse_line('{"b": [1.0], "matrix": "lap"}')
        kwargs.pop("trace_id")
        assert kwargs.pop("b").tolist() == [1.0]
        assert kwargs == {"matrix": "lap"}
        with pytest.raises(ServeError, match="string id"):
            parse_line('{"b": [1.0], "matrix": 7}')

    def test_protocol_errors_carry_the_id_when_json_parsed(self):
        """The id-echo contract: valid JSON => the error names the
        request; unparseable line => request_id is None."""
        from repro.exceptions import ProtocolError

        cases = [
            ('{"id": "x", "b": [1], "bogus": 2}', "x"),
            ('{"id": "y", "tol": 1.0}', "y"),
            ('{"id": "z", "b": [1], "tol": "huh"}', "z"),
            ("utterly not json", None),
        ]
        for line, expected_id in cases:
            with pytest.raises(ProtocolError) as err:
                parse_line(line)
            assert err.value.request_id == expected_id

    def test_parse_line_dispatches_verbs(self):
        op, payload = parse_line('{"b": [1.0]}')
        assert (op, payload["b"]) == ("solve", [1.0])
        assert payload["trace_id"].startswith("t-")
        op, payload = parse_line(
            '{"op": "register", "id": "r", "matrix": "m", "problem": "p"}'
        )
        assert op == "register"
        payload.pop("trace_id")
        assert payload == {"request_id": "r", "matrix": "m", "problem": "p"}
        op, payload = parse_line('{"op": "stats", "matrix": "m"}')
        assert (op, payload["matrix"]) == ("stats", "m")
        op, payload = parse_line('{"op": "stats", "id": "q"}')
        assert (op, payload["request_id"]) == ("stats", "q")
        op, payload = parse_line('{"op": "matrices"}')
        assert op == "matrices"
        assert payload["request_id"] is None
        assert payload["trace_id"].startswith("t-")

    @pytest.mark.parametrize(
        "line, match",
        [
            ('{"op": "dance"}', 'unknown "op"'),
            ('{"op": "register", "matrix": "m"}', "exactly one"),
            (
                '{"op": "register", "matrix": "m", "problem": "p", '
                '"path": "q"}',
                "exactly one",
            ),
            ('{"op": "register", "problem": "p"}', '"matrix" id'),
            ('{"op": "stats", "b": [1.0]}', "unknown stats field"),
            ('{"op": "matrices", "matrix": "m"}', "unknown matrices field"),
            ('{"op": "solve"}', 'required "b"'),
        ],
    )
    def test_parse_line_rejects_malformed_verbs(self, line, match):
        with pytest.raises(ServeError, match=match):
            parse_line(line)


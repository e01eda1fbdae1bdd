"""Unit tests for :class:`repro.serve.MatrixRegistry`.

The routing contracts: requests reach exactly the matrix they name (or
the default when they name none), pools spawn lazily and are LRU-evicted
when idle past the cap, eviction is invisible in results and counters,
and the wire protocol's ``matrix`` field / ``register`` / ``stats`` /
``matrices`` verbs round-trip through the front-end seam.
"""

import io
import json

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.execution import ProcessAsyRGS
from repro.serve import MatrixRegistry, serve_stream
from repro.serve.metrics import ServerStats, fold_stats
from repro.sparse import write_matrix_market
from repro.workloads import random_least_squares, random_unit_diagonal_spd

from ..conftest import manufactured_system
from .conftest import WAIT
from .simtest.fakes import diagonal_system, fake_factory

pytestmark = pytest.mark.serve

SOLVE = dict(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)


@pytest.fixture(scope="module")
def two_systems():
    """Two same-shape, different-content systems: a request routed to
    the wrong matrix still runs (shapes agree) but converges to a
    visibly wrong answer — exactly the failure routing must prevent."""
    A1 = random_unit_diagonal_spd(30, nnz_per_row=4, offdiag_scale=0.6, seed=8)
    A2 = random_unit_diagonal_spd(30, nnz_per_row=4, offdiag_scale=0.6, seed=21)
    b1, x1 = manufactured_system(A1, seed=9)
    b2, x2 = manufactured_system(A2, seed=22)
    return (A1, b1, x1), (A2, b2, x2)


@pytest.fixture()
def registry(two_systems):
    (A1, _, _), (A2, _, _) = two_systems
    with MatrixRegistry(
        nproc=1, capacity_k=4, max_live_pools=2, max_wait=0.0, **SOLVE
    ) as reg:
        reg.register("one", A1)
        reg.register("two", A2)
        yield reg


def _snapshot(
    method: str = "asyrgs",
    served: int = 1,
    latency_mean: float = 0.5,
    latency_max: float = 1.0,
) -> ServerStats:
    """A minimal per-pool snapshot for merge arithmetic tests."""
    return ServerStats(
        requests_submitted=served,
        requests_served=served,
        requests_failed=0,
        batches=1,
        batched_singles=0,
        max_batch_size=1,
        max_queue_depth=1,
        latency_mean=latency_mean,
        latency_max=latency_max,
        spawn_count=1,
        method=method,
    )


class TestMergeStats:
    """The aggregate's ``method`` field must describe the fleet, not
    whichever pool's snapshot happened to come last."""

    def test_single_snapshot_passes_through(self):
        # Even an already-folded breakdown: re-folding one aggregate
        # returns it unchanged.
        mixed = {"method": "mixed", "methods": {"asyrgs": 1, "asyrk": 1}}
        assert fold_stats([_snapshot("asyrk")]).method == "asyrk"
        assert fold_stats([_snapshot(mixed)]).method == mixed

    def test_unanimous_fleet_reports_the_name(self):
        merged = fold_stats([_snapshot("asyrk") for _ in range(3)])
        assert merged.method == "asyrk"

    def test_mixed_fleet_reports_the_breakdown(self):
        merged = fold_stats(
            [_snapshot("asyrgs"), _snapshot("asyrk"), _snapshot("asyrgs")]
        )
        assert merged.method == {
            "method": "mixed",
            "methods": {"asyrgs": 2, "asyrk": 1},
        }

    def test_empty_merge_is_the_zero_record(self):
        assert fold_stats([]) == ServerStats()


class TestMergeLatency:
    """The aggregate latency mean must be served-count-weighted — a
    busy pool's mean outweighs an idle one's — and the max is the max
    over pools. Naive mean-of-means would let a one-request pool skew
    the fleet number; these pin the exact arithmetic the metrics
    endpoint and ``/v1/stats`` report."""

    def test_mean_is_served_weighted(self):
        merged = fold_stats(
            [
                _snapshot(served=9, latency_mean=0.1),
                _snapshot(served=1, latency_mean=1.1),
            ]
        )
        # (9*0.1 + 1*1.1) / 10, not (0.1 + 1.1) / 2.
        assert merged.latency_mean == pytest.approx(0.2)
        assert merged.requests_served == 10

    def test_max_is_max_over_pools(self):
        merged = fold_stats(
            [
                _snapshot(latency_max=0.3),
                _snapshot(latency_max=2.5),
                _snapshot(latency_max=0.9),
            ]
        )
        assert merged.latency_max == 2.5

    def test_zero_served_pools_cannot_poison_the_mean(self):
        """An idle pool (served=0, mean=0) contributes nothing to the
        weighted sum; a fleet of only idle pools reports 0.0, never a
        division error."""
        merged = fold_stats(
            [
                _snapshot(served=4, latency_mean=0.25),
                _snapshot(served=0, latency_mean=0.0),
            ]
        )
        assert merged.latency_mean == pytest.approx(0.25)
        idle = fold_stats(
            [
                _snapshot(served=0, latency_mean=0.0),
                _snapshot(served=0, latency_mean=0.0),
            ]
        )
        assert idle.latency_mean == 0.0
        assert fold_stats([]).latency_mean == 0.0
        assert fold_stats([]).latency_max == 0.0


class TestRegistration:
    def test_pools_spawn_lazily(self, registry, two_systems):
        (_, b1, _), _ = two_systems
        assert registry.live_pools() == []
        registry.solve(b1, matrix="one", timeout=WAIT)
        assert registry.live_pools() == ["one"]

    def test_duplicate_id_rejected(self, registry, two_systems):
        (A1, _, _), _ = two_systems
        with pytest.raises(ServeError, match="already registered"):
            registry.register("one", A1)

    def test_bad_id_rejected(self, registry, two_systems):
        (A1, _, _), _ = two_systems
        for bad in ("", None, 7):
            with pytest.raises(ServeError, match="non-empty string"):
                registry.register(bad, A1)

    def test_unknown_override_refused(self, registry, two_systems):
        """A key no server takes is refused at ``register``, not by every
        later request for the matrix."""
        (A1, _, _), _ = two_systems
        with pytest.raises(ServeError, match="unknown server option 'polcy'"):
            registry.register("typo", A1, polcy="typo")
        assert registry.matrices() == ["one", "two"]

    def test_unknown_default_refused(self):
        with pytest.raises(ServeError, match="unknown server option 'polcy'"):
            MatrixRegistry(nproc=1, polcy="typo")

    def test_register_spec_problem(self, registry):
        info = registry.register_spec("lap", problem="laplace2d")
        assert info["registered"] == "lap"
        assert info["n"] > 0 and info["nnz"] > 0
        assert "lap" in registry.matrices()

    def test_register_spec_requires_exactly_one_source(self, registry):
        with pytest.raises(ServeError, match="exactly one"):
            registry.register_spec("x")
        with pytest.raises(ServeError, match="exactly one"):
            registry.register_spec("x", problem="laplace2d", path="foo.mtx")

    def test_register_spec_missing_file_is_a_serve_error(self, registry):
        with pytest.raises(ServeError, match="cannot read"):
            registry.register_spec("x", path="no/such/file.mtx")

    def test_register_after_close_rejected(self, two_systems):
        (A1, _, _), _ = two_systems
        reg = MatrixRegistry(nproc=1)
        reg.close()
        with pytest.raises(ServeError, match="closed"):
            reg.register("one", A1)


#: Backings that could never serve, and the rule each one breaks.
UNSERVABLE = [
    ({"method": "asyrk", "shards": 2}, "'asyrgs' only"),
]


class TestUnservableBackingRefused:
    """A ``(method, shards)`` backing that could never serve is
    refused at registration — on the wire and through ``register`` —
    instead of failing every later solve on that matrix."""

    @pytest.mark.parametrize(
        "fields, message", UNSERVABLE, ids=["asyrk-sharded"]
    )
    def test_wire_register_fails_with_a_trace_id(self, registry, fields, message):
        lines = [
            json.dumps(
                {"op": "register", "id": "reg", "matrix": "bad",
                 "problem": "laplace2d", **fields}
            ),
            json.dumps({"op": "matrices", "id": "mx"}),
        ]
        out = io.StringIO()
        serve_stream(registry, iter(lines), out)
        reg, mx = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert reg["ok"] is False and reg["id"] == "reg"
        assert reg["trace_id"].startswith("t-")
        assert message in reg["error"]
        assert mx["ok"]
        assert {m["matrix"] for m in mx["matrices"]} == {"one", "two"}

    @pytest.mark.parametrize(
        "fields, message", UNSERVABLE, ids=["asyrk-sharded"]
    )
    def test_register_raises_serve_error(
        self, registry, two_systems, fields, message
    ):
        (A1, _, _), _ = two_systems
        with pytest.raises(ServeError, match=message):
            registry.register("bad", A1, **fields)
        assert registry.matrices() == ["one", "two"]


class TestRouting:
    def test_requests_reach_the_matrix_they_name(self, registry, two_systems):
        (A1, b1, _), (A2, b2, _) = two_systems
        r1 = registry.solve(b1, matrix="one", timeout=WAIT)
        r2 = registry.solve(b2, matrix="two", timeout=WAIT)
        ref1 = ProcessAsyRGS(A1, b1, nproc=1).solve(**SOLVE)
        ref2 = ProcessAsyRGS(A2, b2, nproc=1).solve(**SOLVE)
        np.testing.assert_array_equal(r1.x, ref1.x)
        np.testing.assert_array_equal(r2.x, ref2.x)

    def test_unrouted_requests_go_to_the_default(self, registry, two_systems):
        (A1, b1, x1), _ = two_systems
        assert registry.default_matrix == "one"  # first registered
        res = registry.solve(b1, timeout=WAIT)
        assert np.abs(res.x - x1).max() < 1e-5

    def test_explicit_default_overrides_registration_order(self, two_systems):
        (A1, _, _), (A2, b2, x2) = two_systems
        with MatrixRegistry(
            nproc=1, capacity_k=4, default="two", max_wait=0.0, **SOLVE
        ) as reg:
            reg.register("one", A1)
            reg.register("two", A2)
            res = reg.solve(b2, timeout=WAIT)
        assert np.abs(res.x - x2).max() < 1e-5

    def test_unknown_matrix_names_the_known_ones(self, registry, two_systems):
        (_, b1, _), _ = two_systems
        with pytest.raises(ServeError, match=r"unknown matrix 'three'.*one.*two"):
            registry.submit(b1, matrix="three")

    def test_empty_registry_rejects_requests(self):
        with MatrixRegistry(nproc=1) as reg:
            with pytest.raises(ServeError, match="no matrices registered"):
                reg.submit(np.ones(3))

    def test_submit_after_close_rejected(self, two_systems):
        (A1, b1, _), _ = two_systems
        reg = MatrixRegistry(nproc=1, capacity_k=4, **SOLVE)
        reg.register("one", A1)
        reg.close()
        with pytest.raises(ServeError, match="closed"):
            reg.submit(b1)


class TestEviction:
    def test_lru_eviction_and_respawn(self, two_systems):
        (A1, b1, x1), (A2, b2, x2) = two_systems
        with MatrixRegistry(
            nproc=1, capacity_k=4, max_live_pools=1, max_wait=0.0, **SOLVE
        ) as reg:
            reg.register("one", A1)
            reg.register("two", A2)
            reg.solve(b1, matrix="one", timeout=WAIT)
            assert reg.live_pools() == ["one"]
            # Routing to "two" must evict the idle "one" pool first.
            reg.solve(b2, matrix="two", timeout=WAIT)
            assert reg.live_pools() == ["two"]
            # Coming back respawns "one" — invisible in the result...
            res = reg.solve(b1, matrix="one", timeout=WAIT)
            assert np.abs(res.x - x1).max() < 1e-5
            # ...and the counters accumulate across the pool lifetimes.
            one = reg.stats("one")
            assert one.requests_served == 2
            assert one.spawn_count == 2  # original + post-eviction respawn
            assert reg.stats("two").spawn_count == 1
            assert reg.stats().requests_served == 3

    def test_counters_accumulate_across_evictions(self):
        """Each matrix's counters sum over its pool lifetimes and never
        mix with another matrix's."""
        with MatrixRegistry(
            nproc=2, capacity_k=2, max_live_pools=1, max_wait=0.0,
            solver_factory=fake_factory(),
        ) as reg:
            reg.register("one", diagonal_system(np.ones(4)))
            reg.register("two", diagonal_system(2.0 * np.ones(4)))
            for name in ("one", "two", "one"):
                reg.solve(np.ones(4), matrix=name, timeout=WAIT)
            one, two = reg.stats("one"), reg.stats("two")
        assert (one.requests_served, one.spawn_count) == (2, 2)
        assert (two.requests_served, two.spawn_count) == (1, 1)

    def test_busy_pools_are_never_evicted(self, two_systems):
        """The cap is soft: with a request in flight on the only other
        pool, the new spawn proceeds anyway instead of tearing down a
        pool mid-solve (or deadlocking)."""
        (A1, b1, _), (A2, b2, _) = two_systems
        with MatrixRegistry(
            nproc=1, capacity_k=4, max_live_pools=1, max_wait=0.0, **SOLVE
        ) as reg:
            reg.register("one", A1)
            reg.register("two", A2)
            reg.solve(b1, matrix="one", timeout=WAIT)
            srv_one = reg._entries["one"].server
            # Pin "one" as busy deterministically: an in-flight request
            # is exactly a submitted-but-not-finished counter gap.
            with srv_one._lock:
                srv_one._counts.requests_submitted += 1
            try:
                fast = reg.solve(b2, matrix="two", timeout=WAIT)
            finally:
                with srv_one._lock:
                    srv_one._counts.requests_submitted -= 1
            assert fast.converged
            assert set(reg.live_pools()) == {"one", "two"}
            assert reg.stats("one").spawn_count == 1  # never torn down

    def test_max_live_pools_validated(self):
        with pytest.raises(ServeError, match="at least 1"):
            MatrixRegistry(nproc=1, max_live_pools=0)


class TestObservability:
    def test_matrices_payload(self, registry, two_systems):
        (_, b1, _), _ = two_systems
        registry.solve(b1, matrix="one", timeout=WAIT)
        payload = registry.matrices_payload()
        by_name = {entry["matrix"]: entry for entry in payload}
        assert set(by_name) == {"one", "two"}
        assert by_name["one"]["default"] and not by_name["two"]["default"]
        assert by_name["one"]["live"] and not by_name["two"]["live"]
        assert by_name["one"]["requests_served"] == 1
        assert by_name["two"]["requests_served"] == 0
        assert by_name["one"]["n"] == 30

    def test_stats_payload_shapes(self, registry, two_systems):
        (_, b1, _), _ = two_systems
        registry.solve(b1, matrix="one", timeout=WAIT)
        everything = registry.stats_payload()
        assert everything["aggregate"]["requests_served"] == 1
        assert set(everything["matrices"]) == {"one", "two"}
        just_one = registry.stats_payload("one")
        assert just_one["matrix"] == "one"
        assert just_one["requests_served"] == 1

    def test_stats_survive_close(self, two_systems):
        (A1, b1, _), _ = two_systems
        reg = MatrixRegistry(nproc=1, capacity_k=4, max_wait=0.0, **SOLVE)
        reg.register("one", A1)
        reg.solve(b1, matrix="one", timeout=WAIT)
        reg.close()
        reg.close()  # idempotent
        assert reg.stats("one").requests_served == 1

    def test_close_counts_requests_served_during_the_drain(self, two_systems):
        """close() drains in-flight work before snapshotting a pool's
        counters — a request completing during the drain must appear in
        the lifetime stats, not vanish into a pre-drain snapshot."""
        (A1, b1, _), _ = two_systems
        reg = MatrixRegistry(nproc=1, capacity_k=4, max_wait=0.0, **SOLVE)
        reg.register("one", A1)
        handles = [reg.submit(b1 * (j + 1.0), matrix="one") for j in range(4)]
        reg.close()
        for h in handles:
            assert h.result(WAIT).converged
        stats = reg.stats("one")
        assert stats.requests_submitted == 4
        assert stats.requests_served == 4


class TestWireProtocol:
    def test_matrix_field_routes_and_default_wire_format_works(
        self, registry, two_systems
    ):
        (_, b1, x1), (_, b2, x2) = two_systems
        lines = [
            json.dumps({"id": "r1", "b": b1.tolist()}),  # default -> "one"
            json.dumps({"id": "r2", "b": b2.tolist(), "matrix": "two"}),
            json.dumps({"id": "r3", "b": b1.tolist(), "matrix": "nope"}),
        ]
        out = io.StringIO()
        handled = serve_stream(registry, iter(lines), out)
        assert handled == 3
        r1, r2, r3 = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert r1["ok"] and np.abs(np.asarray(r1["x"]) - x1).max() < 1e-5
        assert r2["ok"] and np.abs(np.asarray(r2["x"]) - x2).max() < 1e-5
        assert r3["ok"] is False and r3["id"] == "r3"
        assert "unknown matrix" in r3["error"]

    def test_register_stats_matrices_verbs(self, registry, two_systems):
        from repro.workloads import get_problem

        prob = get_problem("social-small")
        prob_b = prob.b
        lines = [
            json.dumps(
                {"op": "register", "id": "reg", "matrix": "soc",
                 "problem": "social-small"}
            ),
            json.dumps(
                {"id": "s1", "b": prob_b.tolist(), "matrix": "soc",
                 "tol": 1e-4, "max_sweeps": 800}
            ),
            json.dumps({"op": "stats", "id": "st", "matrix": "soc"}),
            json.dumps({"op": "matrices", "id": "mx"}),
        ]
        out = io.StringIO()
        serve_stream(registry, iter(lines), out)
        reg, s1, st, mx = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert reg.pop("trace_id").startswith("t-")
        assert reg == {
            "id": "reg", "ok": True, "registered": "soc",
            "n": prob.n, "nnz": prob.A.nnz, "source": "social-small",
            "method": "asyrgs", "shards": 1,
        }
        assert s1["ok"] and s1["converged"]
        assert st["ok"] and st["matrix"] == "soc"
        assert st["requests_served"] == 1
        assert mx["ok"]
        assert {m["matrix"] for m in mx["matrices"]} == {"one", "two", "soc"}


class TestAsyRKOverTheWire:
    """The acceptance path for per-matrix update methods: a rectangular
    least-squares system registered with ``method=asyrk`` solves to its
    normal-equations tolerance over the JSON-lines wire, next to a
    square AsyRGS matrix, and the method is visible on every
    observability surface (register echo, per-matrix stats, the
    matrices listing, and the mixed aggregate breakdown)."""

    def test_rectangular_ls_solves_and_reports_method(
        self, two_systems, tmp_path
    ):
        (A1, b1, x1), _ = two_systems
        prob = random_least_squares(
            60, 20, nnz_per_row=5, noise_scale=0.01, seed=7
        )
        path = tmp_path / "ls.mtx"
        write_matrix_market(prob.A, path)
        lines = [
            json.dumps({"op": "register", "id": "reg", "matrix": "ls",
                        "path": str(path), "method": "asyrk"}),
            json.dumps({"id": "q1", "b": b1.tolist()}),
            json.dumps({"id": "q2", "b": prob.b.tolist(), "matrix": "ls",
                        "tol": 2e-2, "max_sweeps": 400}),
            json.dumps({"op": "stats", "id": "st", "matrix": "ls"}),
            json.dumps({"op": "matrices", "id": "mx"}),
        ]
        with MatrixRegistry(
            nproc=1, capacity_k=2, max_wait=0.0, **SOLVE
        ) as reg:
            reg.register("sq", A1)
            out = io.StringIO()
            handled = serve_stream(reg, iter(lines), out)
            agg = reg.stats()
        regd, q1, q2, st, mx = [
            json.loads(ln) for ln in out.getvalue().splitlines()
        ]
        assert handled == 5
        assert regd["ok"] and regd["method"] == "asyrk"
        assert q1["ok"] and np.abs(np.asarray(q1["x"]) - x1).max() < 1e-5
        assert q2["ok"] and q2["converged"]
        x = np.asarray(q2["x"])
        assert x.shape == (prob.A.shape[1],)
        # The request's tolerance is on the normal-equations residual —
        # the plain residual cannot vanish on this noisy system.
        At = prob.A.transpose()
        ne = float(
            np.linalg.norm(At.matvec(prob.b - prob.A.matvec(x)))
            / np.linalg.norm(At.matvec(prob.b))
        )
        assert ne < 2e-2
        assert st["ok"] and st["method"] == "asyrk"
        methods = {m["matrix"]: m["method"] for m in mx["matrices"]}
        assert methods == {"sq": "asyrgs", "ls": "asyrk"}
        assert agg.method == {
            "method": "mixed", "methods": {"asyrgs": 1, "asyrk": 1}
        }

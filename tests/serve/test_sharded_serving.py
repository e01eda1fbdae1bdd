"""Shard-aware serving: ``shards=N`` from the wire to the pools.

The serving-layer half of the sharded-solver contract: per-matrix shard
counts validate and travel through registration, the registry weighs a
sharded matrix as N pools against the live-pool cap (and retires its
shards together), stats report shard counts and per-shard update
breakdowns honestly (``mixed`` across heterogeneous matrices), and a
real ``shards=2`` pool set serves exact-routing traffic end to end.
"""

import io
import json

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ServeError
from repro.serve import MatrixRegistry, SolverServer, serve_stream
from repro.serve.metrics import ServerStats, fold_stats
from repro.serve.protocol import parse_line
from repro.workloads import laplacian_2d

from .conftest import WAIT
from .simtest.fakes import diagonal_system, fake_factory

pytestmark = [pytest.mark.serve, pytest.mark.shard]

SOLVE = dict(tol=1e-8, max_sweeps=5000, sync_every_sweeps=2)


def _snapshot(shards=1, shard_updates=(), served: int = 1) -> ServerStats:
    return ServerStats(
        requests_submitted=served,
        requests_served=served,
        requests_failed=0,
        batches=1,
        batched_singles=0,
        max_batch_size=1,
        max_queue_depth=1,
        latency_mean=0.5,
        latency_max=1.0,
        spawn_count=1,
        shards=shards,
        shard_updates=list(shard_updates),
    )


class TestMergeShards:
    def test_unanimous_count_stays_a_scalar(self):
        agg = fold_stats([_snapshot(shards=3), _snapshot(shards=3)])
        assert agg.shards == 3

    def test_heterogeneous_counts_report_the_breakdown(self):
        agg = fold_stats(
            [_snapshot(shards=3), _snapshot(shards=1), _snapshot(shards=1)]
        )
        assert agg.shards == {"shards": "mixed", "counts": {3: 1, 1: 2}}

    def test_empty_merge_defaults_to_one(self):
        assert fold_stats([]).shards == 1

    def test_shard_updates_pad_and_sum_elementwise(self):
        agg = fold_stats(
            [
                _snapshot(shards=3, shard_updates=[10, 20, 30]),
                _snapshot(shards=3, shard_updates=[1, 2, 3]),
                _snapshot(shards=1, shard_updates=[]),
            ]
        )
        assert agg.shard_updates == [11, 22, 33]


class TestValidation:
    def test_server_rejects_nonpositive_shards(self, system):
        A, _, _ = system
        with pytest.raises(ServeError, match="shards must be at least 1"):
            SolverServer(A, nproc=1, shards=0)

    def test_register_spec_rejects_nonpositive_shards(self):
        with MatrixRegistry(nproc=1) as reg:
            with pytest.raises(ServeError, match="shards must be at least 1"):
                reg.register_spec("m", problem="laplace2d", shards=0)

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5, "2"])
    def test_wire_register_rejects_bad_shards(self, bad):
        line = json.dumps(
            {"op": "register", "matrix": "m", "problem": "laplace2d",
             "shards": bad}
        )
        with pytest.raises(ProtocolError, match="integer >= 1"):
            parse_line(line)

    def test_wire_register_accepts_shard_count(self):
        op, payload = parse_line(
            json.dumps(
                {"op": "register", "matrix": "m", "problem": "laplace2d",
                 "shards": 4}
            )
        )
        assert op == "register" and payload["shards"] == 4


class TestShardWeightedEviction:
    """``max_live_pools`` counts pools, not matrices (fake pools: the
    policy under test is the registry's, not the solver's)."""

    def test_sharded_matrix_weighs_its_shard_count(self):
        pools: list = []
        with MatrixRegistry(
            nproc=1,
            max_live_pools=3,
            capacity_k=2,
            max_wait=0.0,
            solver_factory=fake_factory(made=pools),
        ) as reg:
            d = 2.0 ** (np.arange(8) % 3)
            reg.register("sh", diagonal_system(d), shards=3)
            reg.register("plain", diagonal_system(2.0 * d))
            b = np.arange(1.0, 9.0)
            res = reg.submit(b, matrix="sh").result(WAIT)
            np.testing.assert_array_equal(res.x, b / d)
            assert reg.live_pools() == ["sh"]
            # Spawning plain's 1 pool alongside sh's 3 would hold
            # 4 >= max_live_pools: the idle sharded matrix is evicted,
            # all of its shards retired together.
            res = reg.submit(b, matrix="plain").result(WAIT)
            np.testing.assert_array_equal(res.x, b / (2.0 * d))
            assert reg.live_pools() == ["plain"]
            # Lifetime stats survive the eviction, shard count intact.
            sh = reg.stats("sh")
            assert sh.shards == 3
            assert sh.requests_served == 1
            assert len(sh.shard_updates) == 3
            agg = reg.stats()
            assert agg.shards == {"shards": "mixed", "counts": {3: 1, 1: 1}}

    def test_unsharded_matrices_still_weigh_one_pool_each(self):
        """Two single-pool matrices fit side by side under a cap of 2 —
        the shard weighting must not inflate the classic accounting."""
        pools: list = []
        with MatrixRegistry(
            nproc=1,
            max_live_pools=2,
            capacity_k=2,
            max_wait=0.0,
            solver_factory=fake_factory(made=pools),
        ) as reg:
            d = np.ones(8)
            for name in ("a", "b"):
                reg.register(name, diagonal_system(d))
            bvec = np.arange(1.0, 9.0)
            reg.submit(bvec, matrix="a").result(WAIT)
            reg.submit(bvec, matrix="b").result(WAIT)
            assert reg.live_pools() == ["a", "b"]


class TestShardedEndToEnd:
    """A real ``shards=2`` pool set behind the server: exact answers,
    honest shard books, the full wire path."""

    def test_server_solves_and_reports_shards(self):
        A = laplacian_2d(6)
        n = A.shape[0]
        x_star = np.sin(np.linspace(0.0, 2.0 * np.pi, n))
        b = A.matvec(x_star)
        with SolverServer(
            A, nproc=1, capacity_k=2, shards=2, max_wait=0.0, **SOLVE
        ) as srv:
            res = srv.submit(b).result(WAIT)
            assert res.converged
            np.testing.assert_allclose(res.x, x_star, rtol=0, atol=1e-5)
            stats = srv.stats()
            assert stats.shards == 2
            assert len(stats.shard_updates) == 2
            assert min(stats.shard_updates) > 0
            assert stats.spawn_count == 2  # both shards, one cold start

    def test_registry_wire_round_trip_with_shards(self):
        A = laplacian_2d(6)
        n = A.shape[0]
        x_star = np.cos(np.linspace(0.0, np.pi, n))
        b = A.matvec(x_star)
        with MatrixRegistry(
            nproc=1, capacity_k=2, max_wait=0.0, **SOLVE
        ) as reg:
            reg.register("lap", A, shards=2)
            lines = [
                json.dumps({"id": "s1", "b": b.tolist(), "matrix": "lap"}),
                json.dumps({"op": "stats", "id": "st", "matrix": "lap"}),
                json.dumps({"op": "matrices", "id": "mx"}),
            ]
            out = io.StringIO()
            serve_stream(reg, iter(lines), out)
        s1, st, mx = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert s1["ok"] and s1["converged"]
        np.testing.assert_allclose(s1["x"], x_star, rtol=0, atol=1e-5)
        assert st["ok"] and st["shards"] == 2
        assert len(st["shard_updates"]) == 2
        (entry,) = mx["matrices"]
        assert entry["matrix"] == "lap" and entry["shards"] == 2

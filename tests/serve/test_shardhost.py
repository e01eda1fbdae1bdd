"""Shard-host serving tests: ``repro serve --shard-of`` end to end.

Three layers:

* :class:`ShardHost` verb validation with no pools and no wire — the
  refusals and geometry checks a mis-addressed or mis-ordered request
  hits, all cheap.
* One host driving a real ``nproc=1`` pool through the shard verbs
  directly (no sockets): begin → advance epochs → pull → stop, with
  the monitoring payloads checked at each step.
* The tentpole e2e: two shard hosts behind real TCP front-ends
  exchanging halos on their peer ring while a
  :class:`~repro.execution.ShardedSolver` coordinator drives them via
  ``nodes=[...]`` — the in-process version of the multinode CI job —
  plus the same ring behind a :class:`MatrixRegistry` entry registered
  with ``nodes=[...]``, and the ``repro_halo_*`` metrics scrape.
"""

import threading

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.execution import ShardedSolver
from repro.serve import (
    MatrixRegistry,
    ShardHost,
    make_tcp_server,
    render_metrics,
)

from .conftest import WAIT

pytestmark = pytest.mark.serve


@pytest.fixture()
def host(system):
    A, _, _ = system
    with ShardHost(A, name="m") as h:
        yield h


def _begin_payload(n, shards=1, shard=0, bounds=None, **extra):
    bounds = bounds if bounds is not None else [[0, n]]
    r0, r1 = bounds[shard] if shard < len(bounds) else bounds[0]
    payload = {
        "matrix": "m",
        "shard": shard,
        "shards": shards,
        "bounds": bounds,
        "x0": [0.0] * n,
        "b": [1.0] * (r1 - r0),
        "nproc": 1,
        "seed": 3,
        "params": {},
    }
    payload.update(extra)
    return payload


class TestVerbValidation:
    def test_submit_refuses_with_a_pointer_at_the_coordinator(self, host):
        with pytest.raises(ServeError, match="does not take solve requests"):
            host.submit(b=[1.0])

    def test_wrong_matrix_rejected_by_every_verb(self, host, system):
        A, _, _ = system
        n = A.shape[0]
        for call in (
            lambda: host.shard_begin(_begin_payload(n, matrix="other")),
            lambda: host.shard_advance({"matrix": "other", "count": n}),
            lambda: host.halo_pull({"matrix": "other", "rows": [0]}),
            lambda: host.stats_payload("other"),
        ):
            with pytest.raises(ServeError, match="serves shards of 'm'"):
                call()

    def test_advance_and_pull_before_begin_are_errors(self, host, system):
        A, _, _ = system
        with pytest.raises(ServeError, match="no active shard"):
            host.shard_advance({"matrix": "m", "count": A.shape[0]})
        with pytest.raises(ServeError, match="no active shard"):
            host.halo_pull({"matrix": "m", "rows": [0]})

    def test_push_before_begin_is_tolerated(self, host):
        """A peer's first publish can beat this host's shard_begin; the
        push is dropped (staleness, not an error) so the ring never
        deadlocks on start order."""
        reply = host.halo_push(
            {"matrix": "m", "shard": 1, "r0": 10, "r1": 20,
             "rows": [[0.0]] * 10, "generation": 1}
        )
        assert reply == {"matrix": "m", "applied": False,
                        "reason": "no active shard"}

    def test_stop_without_begin_reports_nothing_stopped(self, host):
        assert host.shard_stop({"matrix": "m"}) == {
            "matrix": "m", "stopped": False,
        }

    def test_bounds_must_tile_this_hosts_system(self, host, system):
        A, _, _ = system
        n = A.shape[0]
        with pytest.raises(ServeError, match="do not tile"):
            host.shard_begin(
                _begin_payload(n, shards=2, bounds=[[0, 10], [10, n + 5]])
            )

    def test_shard_index_and_bounds_count_validated(self, host, system):
        A, _, _ = system
        n = A.shape[0]
        with pytest.raises(ServeError, match="out of range"):
            host.shard_begin(_begin_payload(n, shard=2, shards=1))
        with pytest.raises(ServeError, match="bound pair"):
            host.shard_begin(
                _begin_payload(n, shards=2, bounds=[[0, n]], shard=0)
            )

    def test_geometry_mismatch_names_the_shapes(self, host, system):
        A, _, _ = system
        n = A.shape[0]
        with pytest.raises(ServeError, match="geometry mismatch"):
            host.shard_begin(_begin_payload(n, x0=[0.0] * (n - 1)))

    def test_closed_host_refuses_begin(self, system):
        A, _, _ = system
        h = ShardHost(A, name="m")
        h.close()
        with pytest.raises(ServeError, match="closed"):
            h.shard_begin(_begin_payload(A.shape[0]))


@pytest.mark.pool
class TestHostEpochLoop:
    """One host, real nproc=1 pool, no sockets: the verb sequence a
    coordinator drives, with the monitoring payloads along the way."""

    def test_begin_advance_pull_stop(self, host, system):
        A, b, _ = system
        n = A.shape[0]
        reply = host.shard_begin(
            _begin_payload(n, b=b.tolist(), x0=[0.0] * n)
        )
        assert reply["rows"] == [0, n]
        assert reply["shard"] == 0 and reply["shards"] == 1
        assert reply["halo_rows"] == 0  # whole system owned: no halo
        assert reply["spawn_count"] == 1
        for epoch in range(1, 4):
            adv = host.shard_advance({"matrix": "m", "count": n})
            assert adv["generation"] == epoch
            assert len(adv["rows"]) == n
            assert adv["stats"]["per_worker"][0] > 0
        # The epochs made progress on the owned block.
        x = np.asarray(host.halo_pull({"matrix": "m", "rows": list(range(n))})["values"])
        r = b - A.matvec(x[:, 0])
        assert np.linalg.norm(r) < np.linalg.norm(b)
        stats = host.stats_payload("m")
        assert stats["role"] == "shard_host"
        assert stats["epochs"] == 3 and stats["begins"] == 1
        assert stats["halo"]["pull_serves"] == 1
        (entry,) = host.matrices_payload()
        assert entry["role"] == "shard_host" and entry["matrix"] == "m"
        assert host.shard_stop({"matrix": "m"})["stopped"] is True
        # Post-stop scrapes keep the last exchange counters.
        assert host.stats_payload()["halo"]["pull_serves"] == 1

    def test_rebegin_replaces_the_active_shard(self, host, system):
        A, b, _ = system
        n = A.shape[0]
        host.shard_begin(_begin_payload(n, b=b.tolist()))
        host.shard_advance({"matrix": "m", "count": n})
        host.shard_begin(_begin_payload(n, b=b.tolist()))
        stats = host.stats_payload()
        assert stats["begins"] == 2
        assert stats["epochs"] == 0  # the new shard starts fresh


@pytest.fixture()
def ring(system):
    """Two shard hosts for the session system behind real TCP
    front-ends, peered with each other — the in-process twin of the
    multinode CI job's two ``repro serve --shard-of`` processes."""
    A, _, _ = system
    hosts, servers, threads, addrs = [], [], [], []
    for _ in range(2):
        h = ShardHost(A, name="m", nproc=1)
        srv = make_tcp_server(h, "127.0.0.1", 0)
        t = threading.Thread(target=srv.serve_forever, daemon=True)
        t.start()
        hosts.append(h)
        servers.append(srv)
        threads.append(t)
        addr_host, addr_port = srv.server_address[:2]
        addrs.append(f"{addr_host}:{addr_port}")
    # Peer each host at the other; the ring is built before any
    # shard_begin constructs a WireHalo from it.
    hosts[0].peers = [addrs[1]]
    hosts[1].peers = [addrs[0]]
    try:
        yield hosts, addrs
    finally:
        for srv in servers:
            srv.shutdown()
            srv.server_close()
        for h in hosts:
            h.close()


@pytest.mark.pool
class TestTwoNodeRing:
    def test_coordinated_solve_converges_with_halo_traffic(
        self, ring, system
    ):
        """The acceptance e2e: a 2-node WireHalo solve converges on the
        coordinator's assembled global residual, and both hosts counted
        per-peer halo pushes with zero failures."""
        hosts, addrs = ring
        A, b, x_star = system
        solver = ShardedSolver(
            A, b, shards=2, nproc=1, seed=3, nodes=addrs,
            node_matrix="m", barrier_timeout=WAIT / 4,
        )
        result = solver.solve(1e-8, 5000, sync_every_sweeps=2)
        assert result.converged
        assert np.abs(result.x - x_star).max() < 1e-5
        for h, peer in zip(hosts, reversed(addrs)):
            stats = h.stats_payload()
            halo = stats["halo"]
            assert halo["pushes"][peer] > 0
            assert halo["push_failures"][peer] == 0
            assert halo["received"] > 0
            assert stats["epochs"] > 0

    def test_metrics_scrape_renders_the_halo_families(self, ring, system):
        hosts, addrs = ring
        A, b, _ = system
        ShardedSolver(
            A, b, shards=2, nproc=1, seed=3, nodes=addrs,
            node_matrix="m", barrier_timeout=WAIT / 4,
        ).solve(1e-8, 5000, sync_every_sweeps=2)
        text = render_metrics(hosts[0])
        peer = addrs[1]
        assert f'repro_halo_pushes_total{{matrix="m",shard="0",peer="{peer}"}}' in text
        assert f'repro_halo_push_failures_total{{matrix="m",shard="0",peer="{peer}"}} 0' in text
        assert 'repro_halo_received_total{matrix="m",shard="0"}' in text
        assert 'repro_shard_epochs_total{matrix="m",shard="0"}' in text
        assert 'repro_shard_host_info{matrix="m",shard="0",shards="2"} 1' in text
        # No solve-server families leak into a shard host's scrape.
        assert "repro_requests_served_total" not in text

    def test_registry_matrix_registered_with_nodes(self, ring, system):
        """The gateway path: a registry entry backed by the ring routes
        ordinary solve requests through the node-backed coordinator,
        weighs one pool slot, and lists its nodes."""
        _, addrs = ring
        A, b, x_star = system
        with MatrixRegistry(
            nproc=1, capacity_k=2, tol=1e-8, max_sweeps=5000,
            sync_every_sweeps=2, max_wait=0.0, barrier_timeout=WAIT / 4,
        ) as reg:
            reg.register("m", A, nodes=addrs)
            res = reg.solve(b, matrix="m", timeout=WAIT)
            assert res.converged
            assert np.abs(res.x - x_star).max() < 1e-5
            (entry,) = reg.matrices_payload()
            assert entry["nodes"] == addrs
            assert reg.live_pools() == ["m"]

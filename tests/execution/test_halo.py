"""Tests for the halo transport seam (`execution.halo`).

Three layers, cheapest first:

* :class:`LocalBoard` against an inline re-implementation of the PR 8
  board/lock code it was extracted from — random publish/pull/snapshot
  sequences must agree bit for bit (the refactor's behavior-preserving
  claim, as a property test).
* :class:`WireHalo` and :class:`NodeShard` against scripted fake wire
  clients — push payload shapes, best-effort failure counting,
  generation-rewind drops, and crash attribution naming the peer — no
  sockets, tier-1 fast.
* End-to-end transport-seam bit-identity on real ``nproc=1`` pools
  (``pool`` marker): a ``shards=N`` solve through the default
  :class:`LocalBoard` equals the same solve through the inline
  reference transport, float for float, on the same seeds
  ``tests/execution/test_sharded.py`` pins.
"""

import threading

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.execution import (
    HaloTransport,
    LocalBoard,
    NodeShard,
    ShardedSolver,
    WireHalo,
    split_address,
)
from repro.workloads import laplacian_2d

pytestmark = pytest.mark.shard


class TestSplitAddress:
    def test_host_port(self):
        assert split_address("10.0.0.7:7101") == ("10.0.0.7", 7101)

    def test_hostname(self):
        assert split_address("node-b:80") == ("node-b", 80)

    @pytest.mark.parametrize(
        "bad", ["nodeb", ":7101", "node:b:", "node:0", "node:65536", "node:x"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ModelError, match="HOST:PORT|port"):
            split_address(bad)


# ---------------------------------------------------------------------------
# LocalBoard vs the inline PR 8 board it was extracted from
# ---------------------------------------------------------------------------


class _ReferenceBoard:
    """The pre-seam exchange, re-implemented inline exactly as
    ``ShardedSolver.solve`` used to hold it: one (n, k) array, one
    mutex, publishes locked, pulls deliberately not."""

    def __init__(self, x0, bounds):
        self._board = np.array(x0, dtype=np.float64, copy=True)
        self._bounds = [(int(r0), int(r1)) for r0, r1 in bounds]
        self._gen = np.zeros(len(self._bounds), dtype=np.int64)
        self._lock = threading.Lock()

    def publish(self, shard, rows, generation):
        r0, r1 = self._bounds[shard]
        with self._lock:
            self._board[r0:r1] = rows
            self._gen[shard] = generation

    def pull(self, halo_rows):
        return self._board[halo_rows]

    def snapshot(self):
        with self._lock:
            return self._board.copy()

    def close(self):
        pass


class TestLocalBoardExtraction:
    BOUNDS = [(0, 5), (5, 11), (11, 16)]

    def _pair(self, k, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((16, k))
        return (
            LocalBoard(x0, self.BOUNDS),
            _ReferenceBoard(x0, self.BOUNDS),
            rng,
        )

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_sequences_bit_identical(self, k, seed):
        """Any interleaving of publishes and pulls observes the same
        floats through the extracted board as through the inline one."""
        board, ref, rng = self._pair(k, seed)
        gens = [0, 0, 0]
        for _ in range(200):
            op = rng.integers(0, 3)
            if op == 0:
                s = int(rng.integers(0, 3))
                r0, r1 = self.BOUNDS[s]
                rows = rng.standard_normal((r1 - r0, k))
                gens[s] += 1
                board.publish(s, rows, gens[s])
                ref.publish(s, rows, gens[s])
            elif op == 1:
                halo = np.unique(rng.integers(0, 16, size=6))
                got, _ages = board.pull(halo)
                assert np.array_equal(got, ref.pull(halo))
            else:
                assert np.array_equal(board.snapshot(), ref.snapshot())
        assert np.array_equal(board.snapshot(), ref.snapshot())

    def test_pull_reports_publisher_generation(self):
        board, _, rng = self._pair(1, 1)
        board.publish(1, np.zeros((6, 1)), 4)
        _values, ages = board.pull(np.array([0, 6, 12]))
        # Row 0 owned by shard 0 (never published), row 6 by shard 1
        # (generation 4), row 12 by shard 2 (never published).
        assert list(ages) == [0, 4, 0]
        assert list(board.generations()) == [0, 4, 0]

    def test_snapshot_is_a_copy(self):
        board, _, _ = self._pair(1, 2)
        snap = board.snapshot()
        board.publish(0, np.full((5, 1), 9.0), 1)
        assert not np.array_equal(board.snapshot()[:5], snap[:5])


# ---------------------------------------------------------------------------
# WireHalo against scripted fake clients
# ---------------------------------------------------------------------------


class _FakeClient:
    """A scripted peer: records requests, answers ok, and fails on
    command (``fail_next`` raises once, ``dead`` raises forever)."""

    def __init__(self, address):
        self.address = address
        self.requests: list[dict] = []
        self.fail_next = False
        self.dead = False
        self.closed = False

    def request(self, payload):
        if self.dead or self.fail_next:
            self.fail_next = False
            raise ConnectionError(f"peer {self.address} unreachable")
        self.requests.append(payload)
        return {"ok": True}

    def close(self):
        self.closed = True


def _wire(peers=("p1:1", "p2:2"), k=1, n=10, shard=0):
    bounds = [(0, 4), (4, 10)]
    made = {}

    def factory(addr):
        made[addr] = _FakeClient(addr)
        return made[addr]

    halo = WireHalo(
        np.zeros((n, k)), bounds, shard=shard, peers=list(peers),
        matrix="m", client_factory=factory,
    )
    return halo, made


class TestWireHalo:
    def test_publish_pushes_owned_block_to_every_peer(self):
        halo, made = _wire()
        rows = np.arange(4.0).reshape(4, 1)
        halo.publish(0, rows, 3)
        for addr, client in made.items():
            (req,) = client.requests
            assert req["op"] == "halo_push"
            assert req["matrix"] == "m"
            assert (req["shard"], req["r0"], req["r1"]) == (0, 0, 4)
            assert req["generation"] == 3
            assert req["rows"] == rows.tolist()
            assert halo.pushes[addr] == 1
        values, ages = halo.pull(np.array([1, 5]))
        assert values[0, 0] == 1.0
        assert list(ages) == [3, 0]

    def test_dead_peer_costs_staleness_never_an_epoch(self):
        halo, made = _wire()
        made["p2:2"].dead = True
        for g in range(1, 4):
            halo.publish(0, np.full((4, 1), float(g)), g)
        assert halo.pushes["p1:1"] == 3
        assert halo.push_failures["p2:2"] == 3
        assert halo.pushes["p2:2"] == 0
        # The local mirror still advanced: pulls serve the latest.
        assert halo.pull(np.array([0]))[0][0, 0] == 3.0

    def test_reconnect_counted_when_the_ring_heals(self):
        halo, made = _wire()
        made["p1:1"].fail_next = True
        halo.publish(0, np.zeros((4, 1)), 1)
        assert halo.push_failures["p1:1"] == 1
        halo.publish(0, np.zeros((4, 1)), 2)
        assert halo.reconnects["p1:1"] == 1
        assert halo.pushes["p1:1"] == 1

    def test_receive_applies_and_drops_generation_rewinds(self):
        halo, _ = _wire()
        rows = np.full((6, 1), 2.0)
        assert halo.receive(shard=1, r0=4, r1=10, rows=rows.tolist(), generation=5)
        assert halo.pull(np.array([7]))[0][0, 0] == 2.0
        # A reordered/duplicated delivery carrying an older epoch.
        stale = np.full((6, 1), 9.0)
        assert not halo.receive(
            shard=1, r0=4, r1=10, rows=stale.tolist(), generation=4
        )
        assert halo.stale_drops == 1
        assert halo.pull(np.array([7]))[0][0, 0] == 2.0

    def test_receive_rejects_misshapen_blocks(self):
        halo, _ = _wire()
        with pytest.raises(ModelError, match="shape"):
            halo.receive(shard=1, r0=4, r1=10, rows=[[1.0]], generation=1)

    def test_read_rows_serves_snapshot_and_validates_range(self):
        halo, _ = _wire()
        halo.publish(0, np.full((4, 1), 5.0), 2)
        values, ages = halo.read_rows([0, 3])
        assert values.tolist() == [[5.0], [5.0]]
        assert list(ages) == [2, 2]
        assert halo.pull_serves == 1
        with pytest.raises(ModelError, match="out of range"):
            halo.read_rows([10])

    def test_age_is_own_minus_stalest_foreign(self):
        halo, _ = _wire()
        halo.publish(0, np.zeros((4, 1)), 7)
        assert halo.age() == 7  # peer never pushed
        halo.receive(
            shard=1, r0=4, r1=10, rows=np.zeros((6, 1)).tolist(), generation=5
        )
        assert halo.age() == 2
        halo.receive(
            shard=1, r0=4, r1=10, rows=np.zeros((6, 1)).tolist(), generation=9
        )
        assert halo.age() == 0  # never negative

    def test_counters_snapshot_shape(self):
        halo, made = _wire()
        made["p2:2"].dead = True
        halo.publish(0, np.zeros((4, 1)), 1)
        counters = halo.counters()
        assert counters["pushes"] == {"p1:1": 1, "p2:2": 0}
        assert counters["push_failures"] == {"p1:1": 0, "p2:2": 1}
        assert counters["generation"] == 1
        halo.close()
        assert all(c.closed for c in made.values())


# ---------------------------------------------------------------------------
# NodeShard proxy against a scripted host
# ---------------------------------------------------------------------------


class _FakeHostClient:
    """Scripted shard host: answers begin/advance/stop like a real one,
    optionally failing or rejecting."""

    def __init__(self, address):
        self.address = address
        self.requests: list[dict] = []
        self.dead = False
        self.reject = None

    def request(self, payload):
        if self.dead:
            raise ConnectionError("connection refused")
        self.requests.append(payload)
        if self.reject is not None:
            return {"ok": False, "error": self.reject}
        op = payload["op"]
        if op == "shard_begin":
            return {"ok": True, "spawn_count": 1}
        if op == "shard_advance":
            r0, r1 = 0, 4
            return {
                "ok": True,
                "rows": np.full((r1 - r0, 1), 8.0).tolist(),
                "generation": 1,
                "stats": {
                    "per_worker": [12],
                    "sync_points": 1,
                    "wall_time": 0.5,
                    "column_updates": 12,
                    "total_row_nnz": 30,
                    "delay": {"count": 12, "mean": 1.5, "max": 4},
                },
            }
        return {"ok": True}

    def close(self):
        pass


def _node(client=None):
    client = client if client is not None else _FakeHostClient("h:1")
    shard = NodeShard(
        0, address="h:1", matrix="m", bounds=[(0, 4), (4, 10)],
        shards=2, n=10, nproc=1, capacity_k=1, seed=5,
        params={"beta": 1.0}, client_factory=lambda addr: client,
    )
    return shard, client


class TestNodeShard:
    def test_begin_scatters_the_partition(self):
        shard, client = _node()
        x0 = np.zeros((10, 1))
        b = np.ones((4, 1))
        shard._ensure_pool().begin(x0, b)
        (req,) = client.requests
        assert req["op"] == "shard_begin"
        assert req["matrix"] == "m"
        assert (req["shard"], req["shards"]) == (0, 2)
        assert req["bounds"] == [[0, 4], [4, 10]]
        assert req["seed"] == 5
        assert req["params"] == {"beta": 1.0}
        assert shard.spawn_count == 1
        assert shard.pool_active

    def test_advance_applies_rows_and_caches_stats(self):
        shard, client = _node()
        pool = shard._ensure_pool()
        pool.begin(np.zeros((10, 1)), np.ones((4, 1)))
        pool.retire_columns(np.array([0]))
        pool.advance(40)
        req = client.requests[-1]
        assert req["op"] == "shard_advance"
        assert req["count"] == 40
        assert req["retire"] == [0]  # piggybacked, not a separate verb
        assert pool.x()[0, 0] == 8.0
        assert pool.x()[5, 0] == 0.0  # foreign rows untouched
        assert pool.per_worker() == [12]
        assert pool.sync_points == 1
        assert pool.column_updates() == 12
        assert pool.total_row_nnz() == 30
        assert pool.delay_stats().mean == 1.5

    def test_unreachable_peer_names_the_address(self):
        shard, client = _node()
        client.dead = True
        with pytest.raises(
            ModelError, match=r"peer h:1 \(shard 0 of 2\) is unreachable"
        ):
            shard._ensure_pool().begin(np.zeros((10, 1)), np.ones((4, 1)))

    def test_rejection_names_the_verb(self):
        shard, client = _node()
        client.reject = "wrong matrix"
        with pytest.raises(ModelError, match="rejected 'shard_begin'"):
            shard._ensure_pool().begin(np.zeros((10, 1)), np.ones((4, 1)))

    def test_x_before_begin_is_an_error(self):
        shard, _ = _node()
        with pytest.raises(ModelError, match="before begin"):
            shard._ensure_pool().x()

    def test_close_sends_stop_once(self):
        shard, client = _node()
        shard._ensure_pool().begin(np.zeros((10, 1)), np.ones((4, 1)))
        shard.close()
        assert client.requests[-1]["op"] == "shard_stop"
        assert not shard.pool_active


# ---------------------------------------------------------------------------
# ShardedSolver wiring: nodes validation and the transport seam
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lap_system():
    A = laplacian_2d(8)
    n = A.shape[0]
    x_star = np.sin(np.linspace(0.0, 2.0 * np.pi, n))
    return A, A.matvec(x_star)


class TestNodesValidation:
    def test_shards_must_match_node_count(self, lap_system):
        A, b = lap_system
        with pytest.raises(ModelError, match="does not match the 2 node"):
            ShardedSolver(A, b, shards=3, nodes=["h:1", "h:2"])

    def test_single_node_is_refused(self, lap_system):
        A, b = lap_system
        with pytest.raises(ModelError, match="nothing to distribute"):
            ShardedSolver(A, b, shards=1, nodes=["h:1"])

    def test_addresses_validated_up_front(self, lap_system):
        A, b = lap_system
        with pytest.raises(ModelError, match="HOST:PORT"):
            ShardedSolver(A, b, shards=2, nodes=["h:1", "no-port"])

    def test_nodes_exclude_shard_factory(self, lap_system):
        A, b = lap_system
        with pytest.raises(ModelError, match="mutually exclusive"):
            ShardedSolver(
                A, b, shards=2, nodes=["h:1", "h:2"],
                shard_factory=lambda *a, **k: None,
            )


class _MirrorTransport(HaloTransport):
    """Drives a LocalBoard and the inline PR 8 reference side by side
    and asserts they agree bit for bit on every pull and snapshot.

    Free-running shard drivers make two *separate* solves incomparable
    (the interleaving is the randomness — by design), so the
    behavior-preserving claim is checked the only honest way: one real
    schedule, both boards, byte equality at every observation point.
    """

    instances: list["_MirrorTransport"] = []

    def __init__(self, x0, bounds):
        self.board = LocalBoard(x0, bounds)
        self.ref = _ReferenceBoard(x0, bounds)
        self.observations = 0
        self._lock = threading.Lock()
        _MirrorTransport.instances.append(self)

    def publish(self, shard, rows, generation):
        # One mutex around the pair so both boards always see publishes
        # in the same order; each pull compares a locked joint read.
        with self._lock:
            self.board.publish(shard, rows, generation)
            self.ref.publish(shard, rows, generation)

    def pull(self, halo_rows):
        with self._lock:
            values, ages = self.board.pull(halo_rows)
            assert np.array_equal(values, self.ref.pull(halo_rows))
            self.observations += 1
        return values, ages

    def snapshot(self):
        with self._lock:
            snap = self.board.snapshot()
            assert np.array_equal(snap, self.ref.snapshot())
            self.observations += 1
        return snap


@pytest.mark.pool
class TestTransportSeamBitIdentity:
    @pytest.mark.parametrize("shards,seed", [(3, 5), (2, 0)])
    def test_localboard_matches_inline_reference_end_to_end(
        self, lap_system, shards, seed
    ):
        """The refactor's behavior-preserving claim on real nproc=1
        pools (seeds from test_sharded.py's TestRealPools): every halo
        pull and every residual snapshot of a shards=N solve observes
        identical bits through the extracted LocalBoard and through
        the inline pre-seam board."""
        _MirrorTransport.instances.clear()
        A, b = lap_system
        result = ShardedSolver(
            A, b, shards=shards, nproc=1, seed=seed,
            transport_factory=_MirrorTransport,
        ).solve(1e-8, 20000, sync_every_sweeps=2)
        assert result.converged
        (mirror,) = _MirrorTransport.instances
        assert mirror.observations > shards  # pulls ran, not just finals
        # The final iterate is exactly the board's last snapshot.
        assert np.array_equal(result.x, mirror.board.snapshot()[:, 0])

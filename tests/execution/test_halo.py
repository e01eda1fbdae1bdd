"""Tests for the halo board (`execution.halo`).

Two layers, cheapest first:

* :class:`LocalBoard` against an inline re-implementation of the PR 8
  board/lock code it was extracted from — random publish/pull/snapshot
  sequences must agree bit for bit (the refactor's behavior-preserving
  claim, as a property test).
* End-to-end bit-identity on real ``nproc=1`` pools (``pool`` marker):
  a ``shards=N`` solve through :class:`LocalBoard` equals the same
  solve through the inline reference board, float for float, on the
  same seeds ``tests/execution/test_sharded.py`` pins.
"""

import threading

import numpy as np
import pytest

from repro.execution import ShardedSolver, sharded
from repro.execution.halo import LocalBoard
from repro.workloads import laplacian_2d

pytestmark = pytest.mark.shard


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
# ShardedSolver's board, mirrored against the inline reference
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lap_system():
    A = laplacian_2d(8)
    n = A.shape[0]
    x_star = np.sin(np.linspace(0.0, 2.0 * np.pi, n))
    return A, A.matvec(x_star)


class _MirrorTransport:
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
        self, lap_system, shards, seed, monkeypatch
    ):
        """The refactor's behavior-preserving claim on real nproc=1
        pools (seeds from test_sharded.py's TestRealPools): every halo
        pull and every residual snapshot of a shards=N solve observes
        identical bits through the extracted LocalBoard and through
        the inline pre-seam board."""
        _MirrorTransport.instances.clear()
        monkeypatch.setattr(sharded, "LocalBoard", _MirrorTransport)
        A, b = lap_system
        result = ShardedSolver(
            A, b, shards=shards, nproc=1, seed=seed,
        ).solve(1e-8, 20000, sync_every_sweeps=2)
        assert result.converged
        (mirror,) = _MirrorTransport.instances
        assert mirror.observations > shards  # pulls ran, not just finals
        # The final iterate is exactly the board's last snapshot.
        assert np.array_equal(result.x, mirror.board.snapshot()[:, 0])

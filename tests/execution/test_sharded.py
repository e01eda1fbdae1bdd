"""Tests for the row-partitioned multi-pool solver (`execution.sharded`).

Split by cost, not by topic:

* Everything driven through the ``shard_factory`` seam — partition
  regressions, argument checks, crash attribution, coordinator
  bookkeeping — runs fake shards in-process and stays in tier-1.
* The properties that only mean anything against real pools — the
  bit-identity of ``make_solver(..., shards=1)`` with the plain pool and
  sharded convergence to the direct solution across pool reuse — start
  pool workers and carry the ``pool`` marker.

Both halves carry the ``shard`` marker (CI's sharded slice).
"""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.execution import (
    AsyRK,
    ProcessAsyRGS,
    ShardedSolver,
    balanced_partition,
    contiguous_partition,
    make_solver,
    segment_bytes,
)
from repro.execution.pool import DelayStats
from repro.execution.sharded import ShardedRunResult
from repro.rng import DirectionStream
from repro.sparse import CSRMatrix
from repro.workloads import laplacian_2d

pytestmark = pytest.mark.shard


def diagonal_csr(d: np.ndarray) -> CSRMatrix:
    n = d.shape[0]
    return CSRMatrix(
        (n, n),
        np.arange(n + 1, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        np.asarray(d, dtype=np.float64).copy(),
    )


# ---------------------------------------------------------------------------
# Owner-block partitions
# ---------------------------------------------------------------------------


class TestPartitions:
    @pytest.mark.parametrize("fn", [balanced_partition, contiguous_partition])
    def test_covers_exactly_once(self, fn):
        blocks = fn(17, 4)
        all_rows = np.sort(np.concatenate(blocks))
        np.testing.assert_array_equal(all_rows, np.arange(17))

    @pytest.mark.parametrize("fn", [balanced_partition, contiguous_partition])
    def test_nproc_equals_n_is_singletons(self, fn):
        blocks = fn(5, 5)
        assert [b.size for b in blocks] == [1] * 5

    @pytest.mark.parametrize("fn", [balanced_partition, contiguous_partition])
    def test_rejects_more_owners_than_coordinates(self, fn):
        """Regression: nproc > n used to silently produce empty owner
        blocks — an owner with nothing to draw from downstream."""
        with pytest.raises(ModelError) as err:
            fn(4, 5)
        msg = str(err.value)
        assert "cannot split 4 coordinate(s) into 5" in msg
        assert fn.__name__ in msg
        assert "nproc <= n" in msg

    @pytest.mark.parametrize("fn", [balanced_partition, contiguous_partition])
    def test_rejects_nonpositive_owner_count(self, fn):
        with pytest.raises(ModelError, match="at least one owner block"):
            fn(4, 0)

    def test_contiguous_blocks_are_contiguous(self):
        for blk in contiguous_partition(23, 4):
            np.testing.assert_array_equal(
                blk, np.arange(blk[0], blk[-1] + 1)
            )


# ---------------------------------------------------------------------------
# Shared-memory accounting
# ---------------------------------------------------------------------------


class TestSegmentBytes:
    def test_monotone_in_every_dimension(self):
        base = dict(
            n_rows=100, x_rows=100, b_rows=100, nnz=500,
            capacity_k=4, nproc=2,
        )
        ref = segment_bytes(**base)
        for key in ("n_rows", "x_rows", "b_rows", "capacity_k"):
            grown = dict(base, **{key: base[key] * 2})
            assert segment_bytes(**grown) > ref, key
        # The kernel reads the matrix's own CSR: nnz adds no bytes.
        assert segment_bytes(**dict(base, nnz=10 * base["nnz"])) == ref

    def test_rectangular_shard_is_cheaper_than_the_square_pool(self):
        """A shard keeps all n iterate rows but only its slice of RHS,
        norms and CDF — its buffer must be strictly smaller."""
        full = segment_bytes(
            n_rows=400, x_rows=400, b_rows=400, nnz=2000,
            capacity_k=4, nproc=2,
        )
        shard = segment_bytes(
            n_rows=100, x_rows=400, b_rows=100, nnz=500,
            capacity_k=4, nproc=2,
        )
        assert shard < full


# ---------------------------------------------------------------------------
# Constructor / solve-argument contracts (no pools spawned)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lap_system():
    A = laplacian_2d(8)
    n = A.shape[0]
    x_star = np.sin(np.linspace(0.0, 2.0 * np.pi, n))
    return A, A.matvec(x_star)


class TestContracts:
    def test_rejects_nonpositive_shards(self, lap_system):
        A, b = lap_system
        with pytest.raises(ModelError, match="shards must be at least 1"):
            ShardedSolver(A, b, shards=0)

    def test_rejects_more_shards_than_rows(self):
        A = diagonal_csr(np.ones(3))
        with pytest.raises(ModelError, match="cannot split 3"):
            ShardedSolver(A, np.ones(3), shards=4)

    def test_rejects_asyrk_sharding(self, lap_system):
        A, b = lap_system
        with pytest.raises(ModelError, match="method 'asyrgs' only"):
            make_solver("asyrk", A, b, shards=2)

    def test_sharded_solver_needs_two_shards(self, lap_system):
        """One shard is make_solver's plain pool, never a coordinator."""
        A, b = lap_system
        with pytest.raises(ModelError, match="at least 2 shards"):
            ShardedSolver(A, b, shards=1)

    @pytest.mark.parametrize(
        "method, kwargs, cls",
        [
            ("asyrgs", {}, ProcessAsyRGS),
            ("asyrk", {}, AsyRK),
            ("asyrgs", {"shards": 2}, ShardedSolver),
        ],
        ids=["asyrgs", "asyrk", "shards"],
    )
    def test_make_solver_picks_the_backing(self, lap_system, method, kwargs, cls):
        A, b = lap_system
        solver = make_solver(method, A, b, nproc=1, **kwargs)
        assert type(solver) is cls
        if cls is ShardedSolver:
            assert solver.shards == 2

    def test_rejects_custom_metric(self, lap_system):
        A, b = lap_system
        solver = ShardedSolver(A, b, shards=2)
        with pytest.raises(ModelError, match="assembled global residual"):
            solver.solve(1e-6, 10, metric=lambda x: 0.0)

    def test_rejects_nonpositive_cadence(self, lap_system):
        A, b = lap_system
        solver = ShardedSolver(A, b, shards=2)
        with pytest.raises(ModelError, match="sync_every_sweeps"):
            solver.solve(1e-6, 10, sync_every_sweeps=0)

    def test_early_exit_on_converged_start(self, lap_system):
        """A zero RHS converges at x0 = 0 before any shard opens: the
        result must carry the sharded shape with zero work."""
        A, _ = lap_system
        res = ShardedSolver(A, np.zeros(A.shape[0]), shards=3).solve(
            1e-6, 100
        )
        assert isinstance(res, ShardedRunResult)
        assert res.converged
        assert res.iterations == 0
        assert res.shards == 3
        assert res.shard_updates == [0] * 3
        assert res.shard_sweeps == [0] * 3


# ---------------------------------------------------------------------------
# Fake shards through the documented shard_factory seam
# ---------------------------------------------------------------------------


class _FakeShardPool:
    """The pool-side driving surface the coordinator uses, per the
    ``sharded`` module docstring's seam contract."""

    def __init__(self, shard):
        self._shard = shard
        self.sync_points = 0
        self.wall_time = 0.0
        self._updates = 0
        self._x = None
        self._k = 1

    def begin(self, x0, b):
        self._x = np.array(x0, dtype=np.float64)
        self._k = self._x.shape[1]

    def advance(self, n_updates):
        sh = self._shard
        if sh.fail_next:
            sh.fail_next = False
            raise RuntimeError("worker 0 died (injected)")
        # An "exact jump": one epoch lands this shard's owned rows on
        # the true solution — deterministic coordinator-side progress
        # without any real iteration.
        r0, r1 = sh.r0, sh.r1
        self._x[r0:r1] = sh.solution[r0:r1, : self._k]
        self._updates += int(n_updates)
        self.sync_points += 1

    def x(self):
        return self._x

    def retire_columns(self, cols):
        self._shard.retired.extend(int(c) for c in cols)

    def per_worker(self):
        return [self._updates]

    def column_updates(self):
        return np.zeros(self._k, dtype=np.int64)

    def total_row_nnz(self):
        return 0

    def delay_stats(self):
        return DelayStats(0, 0.0, 0, np.empty(0, dtype=np.int64))


class _FakeShard:
    """Fake shard honoring the lifecycle half of the seam contract."""

    def __init__(self, index, offset, n_rows, solution, made):
        self.index = index
        self.r0 = offset
        self.r1 = offset + n_rows
        self.n_rows = n_rows
        self.solution = solution
        self.spawn_count = 0
        self.closed = 0
        self.fail_next = False
        self.retired: list[int] = []
        self._live = False
        self._pool = _FakeShardPool(self)
        made.append(self)

    def open(self):
        self._ensure_pool()

    def close(self):
        self._live = False
        self.closed += 1

    def _ensure_pool(self):
        if not self._live:
            self._live = True
            self.spawn_count += 1
        return self._pool


def fake_shard_factory(solution, made):
    def factory(index, A_s, b_s, norms_s, *, offset, n_rows, **kwargs):
        return _FakeShard(index, offset, n_rows, solution, made)

    return factory


class TestFakeShards:
    def _solver(self, shards=3, n=12):
        d = 2.0 ** (np.arange(n) % 3)
        A = diagonal_csr(d)
        b = np.arange(1.0, n + 1.0)
        solution = (b / d).reshape(n, 1)
        made: list[_FakeShard] = []
        solver = ShardedSolver(
            A, b, shards=shards,
            shard_factory=fake_shard_factory(solution, made),
        )
        return solver, made, b / d

    def test_coordinator_assembles_and_converges(self):
        """Each fake shard jumps its owned rows to the exact solution;
        the coordinator must assemble them into the converged global
        iterate and keep honest per-shard books."""
        solver, made, x_star = self._solver()
        res = solver.solve(1e-10, 10)
        assert res.converged
        np.testing.assert_allclose(res.x, x_star, rtol=0, atol=1e-14)
        assert res.shards == 3
        assert len(res.shard_updates) == 3
        assert all(u > 0 for u in res.shard_updates)
        assert res.iterations == sum(res.shard_updates)
        assert solver.shard_update_counts() == res.shard_updates
        # Non-persistent: the pools were torn down after the call.
        assert all(sh.closed >= 1 for sh in made)

    @pytest.mark.usefixtures("no_leaks")
    def test_crash_names_the_guilty_shard(self):
        solver, made, _ = self._solver()
        made[1].fail_next = True
        with pytest.raises(
            ModelError,
            match=r"shard 1 of 3 failed mid-solve: worker 0 died",
        ) as err:
            solver.solve(1e-10, 5)
        assert isinstance(err.value.__cause__, RuntimeError)
        # The shards' pools live and die together: the crash tore down
        # every shard, not just the guilty one.
        assert all(sh.closed >= 1 for sh in made)

    @pytest.mark.usefixtures("no_leaks")
    def test_persistent_mode_respawns_all_shards_after_crash(self):
        """After a mid-solve shard death the solver stays persistent
        (the serving layer keeps it resident); the next solve respawns
        the full shard set, visible in spawn_count steps of N."""
        solver, made, x_star = self._solver()
        solver.open()
        assert solver.spawn_count == 3
        made[2].fail_next = True
        with pytest.raises(ModelError, match="shard 2 of 3"):
            solver.solve(1e-10, 5)
        assert all(not sh._live for sh in made)
        res = solver.solve(1e-10, 10)
        assert res.converged
        np.testing.assert_allclose(res.x, x_star, rtol=0, atol=1e-14)
        assert solver.spawn_count == 6  # one cold start + one respawn
        solver.close()

    def test_reuse_without_crash_never_respawns(self):
        solver, made, _ = self._solver()
        solver.open()
        for _ in range(3):
            assert solver.solve(1e-10, 10).converged
        assert solver.spawn_count == 3
        solver.close()
        assert all(sh.closed == 1 for sh in made)


# ---------------------------------------------------------------------------
# Real pools: one-shard bit-identity and sharded convergence
# ---------------------------------------------------------------------------


@pytest.mark.pool
class TestRealPools:
    def test_shards1_is_bit_identical_to_the_plain_pool(self):
        """make_solver builds the plain pool at shards=1, so at nproc=1
        (the only deterministic regime) its iterate must equal the
        unsharded solver's bit for bit — same stream, same schedule,
        same floats.
        """
        A = laplacian_2d(10)
        n = A.shape[0]
        x_star = np.sin(np.linspace(0.0, 2.0 * np.pi, n))
        b = A.matvec(x_star)
        r_one = make_solver(
            "asyrgs", A, b, shards=1, nproc=1,
            directions=DirectionStream(n, seed=5),
        ).solve(1e-8, 300, sync_every_sweeps=2)
        r_ref = ProcessAsyRGS(
            A, b, nproc=1, directions=DirectionStream(n, seed=5)
        ).solve(1e-8, 300, sync_every_sweeps=2)
        assert np.array_equal(r_one.x, r_ref.x)
        assert r_one.iterations == r_ref.iterations
        assert r_one.converged == r_ref.converged

    def test_sharded_nproc1_converges_across_pool_reuse(self):
        """Sharded solves at nproc=1 reach the direct solution on the
        Laplacian workload, twice on the same persistent shard set —
        fresh RHS per call, zero respawns."""
        A = laplacian_2d(8)
        n = A.shape[0]
        dense = A.to_dense()
        rng = np.random.default_rng(3)
        with ShardedSolver(A, np.zeros(n), shards=3, nproc=1, seed=0) as s:
            spawned = s.spawn_count
            assert spawned == 3
            for _ in range(2):
                b = rng.standard_normal(n)
                res = s.solve(1e-9, 20000, b=b, sync_every_sweeps=2)
                assert res.converged
                np.testing.assert_allclose(
                    res.x, np.linalg.solve(dense, b), rtol=0, atol=1e-6
                )
                assert res.shards == 3
                assert sum(res.shard_updates) == res.iterations
            assert s.spawn_count == spawned

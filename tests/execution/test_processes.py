"""Tests for the true shared-memory multiprocess backend.

Everything here must hold on any machine, including single-CPU boxes
(processes still exist and race there — they just don't speed up); the
one genuinely hardware-conditional check skips itself when fewer than
two CPUs are available.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro
from repro.core import AsyRGS, randomized_gauss_seidel
from repro.exceptions import ModelError, ShapeError
from repro.execution import ProcessAsyRGS, available_cpus
from repro.execution.pool import LOG_CAPACITY
from repro.rng import DirectionStream
from repro.sparse import CSRMatrix
from repro.workloads import laplacian_2d, random_unit_diagonal_spd, social_media_problem

from ..conftest import manufactured_system, pid_alive

pytestmark = pytest.mark.multiprocess


@pytest.fixture(scope="module")
def system():
    A = random_unit_diagonal_spd(30, nnz_per_row=4, offdiag_scale=0.6, seed=8)
    b, x_star = manufactured_system(A, seed=9)
    return A, b, x_star


@pytest.fixture(scope="module")
def block_system(system):
    """The module system extended to a 4-column RHS block."""
    A, b, _ = system
    n = A.shape[0]
    rng = DirectionStream(n, seed=44)
    X_star = np.column_stack(
        [rng.directions(j * n, n).astype(np.float64) / n - 0.5 for j in range(4)]
    )
    return A, A.matmat(X_star), X_star


@pytest.fixture(scope="module")
def laplace_system():
    A = laplacian_2d(12, 12)
    n = A.shape[0]
    x_star = np.sin(np.linspace(0.0, 2.0 * np.pi, n))
    return A, A.matvec(x_star), x_star


def identity_csr(n: int) -> CSRMatrix:
    return CSRMatrix(
        (n, n),
        indptr=np.arange(n + 1, dtype=np.int64),
        indices=np.arange(n, dtype=np.int64),
        data=np.ones(n),
    )


class TestSingleProcess:
    def test_one_process_matches_serial_rgs(self, system):
        """With one worker there is no concurrency: the run must equal
        sequential randomized Gauss-Seidel on the same stream."""
        A, b, _ = system
        n = A.shape[0]
        ref = randomized_gauss_seidel(
            A, b, sweeps=5, directions=DirectionStream(n, seed=3), record_history=False
        )
        p = ProcessAsyRGS(A, b, nproc=1, directions=DirectionStream(n, seed=3))
        out = p.run(np.zeros(n), 5 * n)
        np.testing.assert_allclose(out.x, ref.x, rtol=1e-12, atol=1e-14)
        assert out.iterations == 5 * n
        assert out.tau_observed.max == 0  # no foreign commits exist

    def test_zero_iterations(self, system):
        A, b, _ = system
        out = ProcessAsyRGS(A, b, nproc=2).run(None, 0)
        assert out.iterations == 0
        np.testing.assert_array_equal(out.x, np.zeros(A.shape[0]))


class TestDirectionStreams:
    @pytest.mark.parametrize("nproc", [2, 3])
    def test_union_equals_serial_prefix(self, nproc):
        """On the identity matrix every update writes x[r] = b[r], so the
        set of touched coordinates reveals exactly which directions the
        workers consumed — it must equal the serial stream's prefix (the
        paper's Random123 property, verified end-to-end through real
        processes). The prefix length is chosen so its coordinates are
        pairwise distinct (guarded below): each coordinate then has
        exactly one writer and the check is race-free — with duplicate
        draws, two workers racing the x[r] += (b[r] − x[r]) read-modify-
        write on one coordinate can leave 2·b[r] behind (legitimate
        non-atomic noise, but a flaky exact-value assert under heavy
        scheduling pressure)."""
        n, m = 40, 14
        serial = DirectionStream(n, seed=0).directions(0, m)
        assert len(set(int(r) for r in serial)) == m  # distinct ⇒ no races
        A = identity_csr(n)
        b = np.arange(1.0, n + 1.0)  # all nonzero
        directions = DirectionStream(n, seed=0)
        out = ProcessAsyRGS(A, b, nproc=nproc, directions=directions).run(None, m)
        touched = set(np.flatnonzero(out.x != 0.0))
        expected = set(int(r) for r in serial)
        assert touched == expected
        np.testing.assert_allclose(out.x[sorted(touched)], b[sorted(touched)])

    def test_per_worker_shares_follow_interleave_counts(self, system):
        """Workers split one stream round-robin: worker ``p`` of ``P``
        applies exactly its :func:`interleave_counts` share of the
        total."""
        from repro.rng import interleave_counts

        A, b, _ = system
        total = 157
        out = ProcessAsyRGS(A, b, nproc=3).run(None, total)
        np.testing.assert_array_equal(
            out.per_worker_iterations, interleave_counts(total, 3)
        )


class TestConvergence:
    @pytest.mark.parametrize("nproc", [2, 4])
    def test_converges_unitdiag(self, system, nproc):
        A, b, x_star = system
        res = ProcessAsyRGS(A, b, nproc=nproc).solve(
            tol=1e-8, max_sweeps=400, sync_every_sweeps=10
        )
        assert res.converged
        assert np.abs(res.x - x_star).max() < 1e-5

    def test_converges_laplacian(self, laplace_system):
        A, b, x_star = laplace_system
        res = ProcessAsyRGS(A, b, nproc=2).solve(
            tol=1e-7, max_sweeps=2000, sync_every_sweeps=25
        )
        assert res.converged
        assert np.abs(res.x - x_star).max() < 1e-4

    def test_atomic_mode_converges(self, system):
        A, b, x_star = system
        res = ProcessAsyRGS(A, b, nproc=2, atomic=True).solve(
            tol=1e-8, max_sweeps=400, sync_every_sweeps=10
        )
        assert res.converged
        assert res.atomic

    def test_spawn_start_method(self, system):
        A, b, _ = system
        res = ProcessAsyRGS(A, b, nproc=2, start_method="spawn").solve(
            tol=1e-6, max_sweeps=200, sync_every_sweeps=20
        )
        assert res.converged


class TestEpochs:
    def test_sync_points_follow_epoch_schedule(self, system):
        """tol=0 never converges: the solver must run exactly max_sweeps
        and synchronize once per sync_every_sweeps epoch."""
        A, b, _ = system
        n = A.shape[0]
        res = ProcessAsyRGS(A, b, nproc=2).solve(
            tol=0.0, max_sweeps=20, sync_every_sweeps=7
        )
        assert not res.converged
        assert res.iterations == 20 * n
        assert res.sync_points == 3  # epochs of 7, 7, 6 sweeps
        # One checkpoint per sync point plus the initial metric.
        assert len(res.checkpoints) == 4
        assert res.checkpoints[-1][0] == 20 * n

    def test_checkpoints_decrease(self, system):
        A, b, _ = system
        res = ProcessAsyRGS(A, b, nproc=2).solve(
            tol=1e-8, max_sweeps=400, sync_every_sweeps=10
        )
        values = [v for _, v in res.checkpoints]
        assert values[-1] < values[0] * 1e-4

    def test_immediate_convergence_spawns_nothing(self, system):
        A, b, x_star = system
        res = ProcessAsyRGS(A, b, nproc=2).solve(
            tol=1.0, max_sweeps=100, x0=x_star
        )
        assert res.converged
        assert res.iterations == 0
        assert res.sync_points == 0


class TestDelayMeasurement:
    def test_write_log_accounts_every_update(self, system):
        A, b, _ = system
        n = A.shape[0]
        res = ProcessAsyRGS(A, b, nproc=2).solve(
            tol=0.0, max_sweeps=10, sync_every_sweeps=10
        )
        stats = res.tau_observed
        assert stats.count == res.iterations == 10 * n
        assert stats.max >= 0
        assert stats.mean >= 0.0
        assert stats.samples.size == min(stats.count, 2 * LOG_CAPACITY)
        assert stats.tau_observed == stats.max

    def test_log_capacity_bounds_samples(self, system):
        A, b, _ = system
        sweeps = 2 * LOG_CAPACITY // A.shape[0] + 2
        res = ProcessAsyRGS(A, b, nproc=2).solve(
            tol=0.0, max_sweeps=sweeps, sync_every_sweeps=sweeps
        )
        # Every worker ran past the capacity, so each kept exactly
        # LOG_CAPACITY samples.
        assert min(res.per_worker_iterations) > LOG_CAPACITY
        assert res.tau_observed.samples.size == 2 * LOG_CAPACITY
        assert res.tau_observed.count == res.iterations  # aggregate stays exact

    def test_total_row_nnz_exact(self, system):
        """The budget is direction-pinned, so Σ nnz(row) is reproducible
        from the stream regardless of races."""
        A, b, _ = system
        n = A.shape[0]
        m = 3 * n
        out = ProcessAsyRGS(A, b, nproc=2).run(None, m)
        rows = DirectionStream(n, seed=0).directions(0, m)
        expected = int((A.indptr[rows + 1] - A.indptr[rows]).sum())
        assert out.total_row_nnz == expected


class TestBlockRHS:
    def test_block_equals_per_column_serial(self, block_system):
        """With one worker the execution is deterministic, so the block
        run must reproduce k independent single-RHS runs on the same
        direction stream (each column is an independent system; only the
        amortized row gather is shared)."""
        A, B, _ = block_system
        n, k = B.shape
        blk = ProcessAsyRGS(
            A, B, nproc=1, directions=DirectionStream(n, seed=3)
        ).run(None, 6 * n)
        assert blk.x.shape == (n, k)
        for j in range(k):
            col = ProcessAsyRGS(
                A, B[:, j], nproc=1, directions=DirectionStream(n, seed=3)
            ).run(None, 6 * n)
            np.testing.assert_allclose(blk.x[:, j], col.x, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("nproc", [2, 3])
    def test_block_converges_multiproc(self, block_system, nproc):
        A, B, X_star = block_system
        res = ProcessAsyRGS(A, B, nproc=nproc).solve(
            tol=1e-8, max_sweeps=400, sync_every_sweeps=10
        )
        assert res.converged
        assert res.x.shape == B.shape
        assert np.abs(res.x - X_star).max() < 1e-5

    def test_block_accounting_counts_row_updates_once(self, block_system, system):
        """A block update of all k columns is one commit: iterations,
        write-log counts, and Σ nnz(row) must match the single-RHS run
        on the same stream."""
        A, B, _ = block_system
        _, b, _ = system
        n = A.shape[0]
        m = 3 * n
        blk = ProcessAsyRGS(A, B, nproc=2).run(None, m)
        single = ProcessAsyRGS(A, b, nproc=2).run(None, m)
        assert blk.iterations == single.iterations == m
        assert blk.total_row_nnz == single.total_row_nnz
        assert blk.tau_observed.count == m

    def test_block_atomic_mode(self, block_system):
        A, B, X_star = block_system
        res = ProcessAsyRGS(A, B, nproc=2, atomic=True).solve(
            tol=1e-8, max_sweeps=400, sync_every_sweeps=10
        )
        assert res.converged
        assert res.atomic

    def test_zero_column_block_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ShapeError):
            ProcessAsyRGS(A, np.empty((A.shape[0], 0)), nproc=2)

    def test_three_dim_b_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ShapeError):
            ProcessAsyRGS(A, np.zeros((A.shape[0], 2, 2)), nproc=2)

    def test_fifty_one_label_social_block(self):
        """The paper's headline regime end to end: a social-media Gram
        system with a 51-column label block, solved simultaneously; at
        nproc=1 every column must match its own single-RHS solve."""
        prob = social_media_problem(n_terms=40, n_docs=150, n_labels=51, seed=5)
        A, B = prob.G, prob.B
        n, k = B.shape
        assert k == 51
        blk = ProcessAsyRGS(
            A, B, nproc=1, directions=DirectionStream(n, seed=7)
        ).run(None, 8 * n)
        for j in (0, 17, 50):  # spot-check columns across the block
            col = ProcessAsyRGS(
                A, B[:, j], nproc=1, directions=DirectionStream(n, seed=7)
            ).run(None, 8 * n)
            np.testing.assert_allclose(blk.x[:, j], col.x, rtol=1e-9, atol=1e-12)
        # And the block converges under real concurrency (the Gram
        # matrix is ill-conditioned by construction, so the tolerance
        # is modest to keep the test fast).
        res = ProcessAsyRGS(A, B, nproc=2).solve(
            tol=1e-4, max_sweeps=2000, sync_every_sweeps=50
        )
        assert res.converged


class TestColumnRetirement:
    def test_retired_column_is_bit_frozen(self, block_system):
        """nproc=1 is deterministic: a column whose x0 is exact retires
        before the first epoch and its shared slot is never written."""
        A, B, X_star = block_system
        n, k = B.shape
        x0 = np.zeros((n, k))
        x0[:, 2] = X_star[:, 2]
        res = ProcessAsyRGS(
            A, B, nproc=1, directions=DirectionStream(n, seed=3)
        ).solve(tol=1e-10, max_sweeps=300, x0=x0, sync_every_sweeps=10)
        assert res.converged
        assert res.column_sweeps[2] == 0
        np.testing.assert_array_equal(res.x[:, 2], X_star[:, 2])
        assert (res.column_residuals < 1e-10).all()

    def test_column_update_accounting(self, block_system):
        """Exact work accounting at nproc=1: column j is refreshed n
        times per epoch until its retirement epoch, never after; without
        retirement every commit refreshes all k columns."""
        A, B, _ = block_system
        n, k = B.shape
        res = ProcessAsyRGS(
            A, B, nproc=1, directions=DirectionStream(n, seed=3)
        ).solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=5)
        assert res.converged
        expected = n * int(
            sum(cs if cs >= 0 else res.sweeps_done for cs in res.column_sweeps)
        )
        assert res.column_updates == expected
        full = ProcessAsyRGS(
            A, B, nproc=1, directions=DirectionStream(n, seed=3)
        ).solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=5, retire=False)
        assert full.converged
        assert full.column_updates == full.iterations * k

    @pytest.mark.parametrize("nproc", [2, 3])
    def test_retirement_under_real_concurrency(self, block_system, nproc):
        A, B, X_star = block_system
        res = ProcessAsyRGS(A, B, nproc=nproc).solve(
            tol=1e-8, max_sweeps=400, sync_every_sweeps=10
        )
        assert res.converged
        assert res.converged_columns.all()
        assert (res.column_residuals < 1e-8).all()
        assert np.abs(res.x - X_star).max() < 1e-5

    def test_skewed_block_saves_updates(self):
        """The 51-label social workload has skewed label difficulty, so
        retirement must shrink the active set well before the slowest
        label and save a measurable share of the column updates."""
        A_B = social_media_problem(n_terms=60, n_docs=250, n_labels=12, seed=5)
        A, B = A_B.G, A_B.B
        kwargs = dict(tol=1e-3, max_sweeps=600, sync_every_sweeps=10)
        ret = ProcessAsyRGS(A, B, nproc=2).solve(**kwargs)
        full = ProcessAsyRGS(A, B, nproc=2).solve(**kwargs, retire=False)
        assert ret.converged and full.converged
        assert ret.column_updates < full.column_updates
        # Every retired column honored the tolerance at the final sync.
        assert (ret.column_residuals < 1e-3).all()
        retired = ret.column_sweeps[ret.column_sweeps >= 0]
        assert retired.min() < retired.max()  # genuinely skewed difficulty

    def test_custom_metric_keeps_aggregate_path(self, block_system):
        from repro.core.residuals import relative_residual

        A, B, _ = block_system
        res = ProcessAsyRGS(A, B, nproc=2).solve(
            tol=1e-6, max_sweeps=300, sync_every_sweeps=10,
            metric=lambda xv: relative_residual(A, xv, B),
        )
        assert res.converged
        assert res.converged_columns is None

    def test_retire_with_custom_metric_rejected(self, block_system):
        A, B, _ = block_system
        with pytest.raises(ModelError, match="per-column"):
            ProcessAsyRGS(A, B, nproc=2).solve(
                tol=1e-6, max_sweeps=10, retire=True,
                metric=lambda xv: float(np.linalg.norm(xv)),
            )

    def test_pool_reuse_resets_active_mask(self, block_system):
        """A solve that retired columns must not leak its mask into the
        next call on the same pool: the second solve re-activates every
        column and reproduces the first bit for bit (nproc=1)."""
        A, B, _ = block_system
        with ProcessAsyRGS(
            A, B, nproc=1, directions=DirectionStream(A.shape[0], seed=3)
        ) as solver:
            r1 = solver.solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)
            r2 = solver.solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)
            assert solver.spawn_count == 1
        assert r1.converged and r2.converged
        np.testing.assert_array_equal(r1.x, r2.x)
        np.testing.assert_array_equal(r1.column_sweeps, r2.column_sweeps)
        assert r1.column_updates == r2.column_updates


class TestPersistentPool:
    def test_reused_pool_matches_oneshot_exactly(self, block_system):
        """nproc=1 is deterministic: two solves on one pool must equal
        two one-shot solves bit for bit, with one spawn and one CSR copy."""
        A, B, _ = block_system
        with ProcessAsyRGS(A, B, nproc=1) as solver:
            assert solver.pool_active
            r1 = solver.solve(tol=1e-10, max_sweeps=200, sync_every_sweeps=10)
            r2 = solver.solve(tol=1e-10, max_sweeps=200, sync_every_sweeps=10)
            assert solver.spawn_count == 1
            assert solver.csr_copies == 1
        assert not solver.pool_active
        one = ProcessAsyRGS(A, B, nproc=1).solve(
            tol=1e-10, max_sweeps=200, sync_every_sweeps=10
        )
        np.testing.assert_array_equal(r1.x, one.x)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations == one.iterations
        assert r1.sweeps_done == one.sweeps_done

    def test_workers_survive_group_delivered_signals(self, system):
        """A terminal ^C or a supervisor's TERM hits the whole process
        group, workers included. Workers must shrug it off — their
        lifecycle belongs to the parent's control word; a worker dying
        of it would fail the solve it serves (`repro serve` under
        coreutils `timeout` hit exactly this)."""
        import os
        import signal as signal_module
        import time

        A, b, x_star = system
        with ProcessAsyRGS(A, b, nproc=2) as solver:
            pids = solver.worker_pids()
            r1 = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
            for pid in pids:
                os.kill(pid, signal_module.SIGTERM)
                os.kill(pid, signal_module.SIGINT)
            time.sleep(0.2)  # give a (wrongly) dying worker time to die
            assert solver.worker_pids() == pids
            r2 = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
            assert solver.spawn_count == 1
        assert r1.converged and r2.converged
        assert np.abs(r2.x - x_star).max() < 1e-5

    def test_workers_spawned_once_across_solves(self, system):
        A, b, x_star = system
        with ProcessAsyRGS(A, b, nproc=2) as solver:
            pids_before = solver.worker_pids()
            assert len(pids_before) == 2
            r1 = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
            r2 = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
            assert solver.worker_pids() == pids_before
            assert solver.spawn_count == 1
            assert solver.csr_copies == 1
        assert r1.converged and r2.converged
        assert np.abs(r1.x - x_star).max() < 1e-5
        assert np.abs(r2.x - x_star).max() < 1e-5

    def test_pool_serves_new_rhs_without_respawn(self, system):
        """The serving regime: same A, a different b per request."""
        A, b, x_star = system
        b2 = A.matvec(2.0 * x_star)
        with ProcessAsyRGS(A, b, nproc=2) as solver:
            r1 = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
            r2 = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10, b=b2)
            assert solver.spawn_count == 1
        assert r1.converged and r2.converged
        assert np.abs(r1.x - x_star).max() < 1e-5
        assert np.abs(r2.x - 2.0 * x_star).max() < 1e-5

    def test_rhs_override_shape_checked(self, system):
        A, b, _ = system
        with ProcessAsyRGS(A, b, nproc=2) as solver:
            with pytest.raises(ShapeError):
                solver.run(None, 10, b=np.stack([b, b], axis=1))

    def test_run_reuses_pool_too(self, system):
        A, b, _ = system
        n = A.shape[0]
        with ProcessAsyRGS(A, b, nproc=2) as solver:
            out0 = solver.run(None, 0)
            out1 = solver.run(None, 2 * n)
            out2 = solver.run(None, 2 * n)
            assert solver.spawn_count == 1
        assert out0.iterations == 0
        assert out1.iterations == out2.iterations == 2 * n

    def test_oneshot_spawns_per_call(self, system):
        """Outside a ``with`` block the original lifecycle is preserved:
        every call pays its own pool."""
        A, b, _ = system
        backend = ProcessAsyRGS(A, b, nproc=2)
        backend.run(None, 10)
        backend.run(None, 10)
        assert backend.spawn_count == 2
        assert backend.csr_copies == 2
        assert not backend.pool_active

    def test_close_is_idempotent(self, system):
        A, b, _ = system
        solver = ProcessAsyRGS(A, b, nproc=2)
        with solver:
            solver.solve(tol=1e-6, max_sweeps=100, sync_every_sweeps=20)
        solver.close()
        solver.close()
        assert not solver.pool_active
        # A closed solver still serves one-shot calls.
        out = solver.run(None, 10)
        assert out.iterations == 10


@pytest.mark.skipif(
    available_cpus() < 2,
    reason="needs ≥ 2 CPUs to observe genuine parallel overlap",
)
class TestRealParallelism:
    def test_two_processes_overlap(self, laplace_system):
        """With two real cores, two workers must commit concurrently at
        least once (some update sees a foreign commit mid-flight).

        The run must outlast the skew between the two workers leaving
        the start gate: tens of milliseconds. An update costs ~40 ns, so
        the pool gets 10 000 sweeps."""
        A, b, _ = laplace_system
        with ProcessAsyRGS(A, b, nproc=2) as solver:
            out = solver.run(None, 10_000 * A.shape[0])
        assert out.tau_observed.max > 0


class TestAsyRGSFacade:
    """The pool runs what the simulator facade runs: the same solve,
    free run and block contracts, and the same sweep accounting."""

    def test_solve_via_engine(self, laplace_system):
        A, b, x_star = laplace_system
        solver = ProcessAsyRGS(A, b, nproc=2)
        res = solver.solve(tol=1e-6, max_sweeps=1500, sync_every_sweeps=25)
        assert res.converged
        assert res.tau_observed.count == res.iterations
        assert res.wall_time > 0
        assert res.checkpoints[-1][1] < 1e-6
        assert np.abs(res.x - x_star).max() < 1e-4

    def test_run_sweeps_via_engine(self, system):
        A, b, _ = system
        solver = ProcessAsyRGS(A, b, nproc=2)
        res = solver.run(None, 5 * A.shape[0])
        assert res.iterations == 5 * A.shape[0]
        assert res.sweeps_done == 5
        assert res.sync_points == 1  # one segment, nothing synchronized inside
        assert res.tau_observed.count == res.iterations

    def test_block_solve_via_engine(self, block_system):
        A, B, X_star = block_system
        solver = ProcessAsyRGS(A, B, nproc=2)
        res = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
        assert res.converged
        assert res.x.shape == B.shape
        assert np.abs(res.x - X_star).max() < 1e-5
        assert res.checkpoints[-1][1] < 1e-8

    def test_sweeps_accounting_matches_simulated(self, system):
        """Regression: the pool and the simulators report the same sweep
        quantity — epochs of n updates actually executed (tol=0 pins it
        to max_sweeps on both paths)."""
        A, b, _ = system
        kwargs = dict(tol=0.0, max_sweeps=13, sync_every_sweeps=5)
        res_p = ProcessAsyRGS(A, b, nproc=2).solve(**kwargs)
        res_s = AsyRGS(A, b, nproc=2, engine="phased").solve(**kwargs)
        assert res_p.sweeps_done == res_s.sweeps == 13
        assert res_p.iterations == 13 * A.shape[0]
        # Immediate convergence reports zero sweeps on both paths too.
        res_p0 = ProcessAsyRGS(A, b, nproc=2).solve(tol=np.inf, max_sweeps=10)
        res_s0 = AsyRGS(A, b, nproc=2, engine="phased").solve(
            tol=np.inf, max_sweeps=10
        )
        assert res_p0.sweeps_done == res_s0.sweeps == 0


class TestCapacityLayouts:
    """The capacity-k pool layout: one live pool serves any request
    width ``k ≤ capacity_k`` without a respawn."""

    def test_changed_k_reuses_pool_without_respawn(self, block_system):
        """CONTRACT CHANGE (PR 4): before capacity-k layouts, a per-call
        ``b=`` of a different width against an open pool raised
        ShapeError ("this pool's layout is fixed"); the pool could only
        be escaped by building a new solver. With the layout allocated
        at ``capacity_k``, a narrower request now *reuses* the live
        pool — no respawn, no CSR re-copy, stable worker PIDs."""
        A, B, _ = block_system
        n, k = B.shape
        with ProcessAsyRGS(A, B, nproc=2, capacity_k=k) as solver:
            pids = solver.worker_pids()
            r_block = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
            r_one = solver.solve(
                tol=1e-8, max_sweeps=400, sync_every_sweeps=10, b=B[:, 0]
            )
            r_two = solver.solve(
                tol=1e-8, max_sweeps=400, sync_every_sweeps=10, b=B[:, :2]
            )
            assert solver.spawn_count == 1
            assert solver.csr_copies == 1
            assert solver.worker_pids() == pids
        assert r_block.converged and r_one.converged and r_two.converged
        assert r_block.x.shape == (n, k)
        assert r_one.x.shape == (n,)
        assert r_two.x.shape == (n, 2)

    def test_request_wider_than_capacity_still_raises(self, block_system):
        """The unreusable direction keeps the old contract: a request
        wider than the layout cannot be served without a respawn, so it
        raises (with the shared capacity wording) instead of growing
        the segment silently."""
        A, B, _ = block_system
        with ProcessAsyRGS(A, B[:, 0], nproc=2, capacity_k=2) as solver:
            with pytest.raises(ShapeError, match="layout capacity"):
                solver.run(None, 10, b=B[:, :3])
            # The failed validation must not have hurt the pool.
            assert solver.pool_active
            assert solver.run(None, 10, b=B[:, :2]).iterations == 10
            assert solver.spawn_count == 1

    def test_default_capacity_is_constructor_width(self, block_system):
        """Without capacity_k the old exact-width world survives as the
        degenerate capacity: wider requests raise."""
        A, B, _ = block_system
        solver = ProcessAsyRGS(A, B[:, 0], nproc=2)
        assert solver.capacity_k == 1
        with pytest.raises(ShapeError, match="layout capacity"):
            solver.run(None, 10, b=B)

    def test_capacity_narrower_than_ctor_block_rejected(self, block_system):
        A, B, _ = block_system
        with pytest.raises(ModelError, match="narrower"):
            ProcessAsyRGS(A, B, nproc=2, capacity_k=2)

    def test_k1_request_on_wide_pool_bit_equals_oneshot(self, block_system):
        """A single-RHS request served by a capacity-4 pool takes the
        same scalar gather path as a k=1 layout: bit-identical iterates
        at nproc=1."""
        A, B, _ = block_system
        n = A.shape[0]
        with ProcessAsyRGS(
            A, B, nproc=1, capacity_k=B.shape[1],
            directions=DirectionStream(n, seed=3),
        ) as solver:
            served = solver.solve(
                tol=1e-8, max_sweeps=300, sync_every_sweeps=10, b=B[:, 1]
            )
        one = ProcessAsyRGS(
            A, B[:, 1], nproc=1, directions=DirectionStream(n, seed=3)
        ).solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)
        np.testing.assert_array_equal(served.x, one.x)
        assert served.sweeps_done == one.sweeps_done
        assert served.iterations == one.iterations

    def test_narrow_block_request_matches_oneshot(self, block_system):
        A, B, X_star = block_system
        n = A.shape[0]
        with ProcessAsyRGS(
            A, B, nproc=1, capacity_k=B.shape[1],
            directions=DirectionStream(n, seed=3),
        ) as solver:
            served = solver.solve(
                tol=1e-8, max_sweeps=300, sync_every_sweeps=10, b=B[:, :2]
            )
        one = ProcessAsyRGS(
            A, B[:, :2], nproc=1, directions=DirectionStream(n, seed=3)
        ).solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)
        assert served.converged and one.converged
        np.testing.assert_allclose(served.x, one.x, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(served.column_sweeps, one.column_sweeps)
        assert np.abs(served.x - X_star[:, :2]).max() < 1e-5

    def test_narrowed_request_accounting(self, block_system):
        """column_updates counts only the request's active columns, not
        the layout's spare capacity."""
        A, B, _ = block_system
        n = A.shape[0]
        with ProcessAsyRGS(A, B, nproc=2, capacity_k=B.shape[1]) as solver:
            out = solver.run(None, 3 * n, b=B[:, :2])
            assert out.column_updates == 2 * 3 * n
            out1 = solver.run(None, 3 * n, b=B[:, 0])
            assert out1.column_updates == 3 * n

    def test_spare_columns_stay_zero(self, block_system):
        """Workers must never write the masked spare columns: after a
        narrow request, a full-width request starting from x0=0 sees no
        leakage from the previous call."""
        A, B, X_star = block_system
        with ProcessAsyRGS(
            A, B, nproc=1, capacity_k=B.shape[1],
            directions=DirectionStream(A.shape[0], seed=3),
        ) as solver:
            solver.solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=10, b=B[:, 0])
            full = solver.solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)
        fresh = ProcessAsyRGS(
            A, B, nproc=1, directions=DirectionStream(A.shape[0], seed=3)
        ).solve(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)
        np.testing.assert_array_equal(full.x, fresh.x)

    def test_retirement_on_narrowed_request(self, block_system):
        """Per-column retirement applies to the request's columns, with
        warm-started columns retiring before the first epoch."""
        A, B, X_star = block_system
        n = A.shape[0]
        x0 = np.zeros((n, 3))
        x0[:, 1] = X_star[:, 1]
        with ProcessAsyRGS(A, B, nproc=1, capacity_k=B.shape[1],
                           directions=DirectionStream(n, seed=3)) as solver:
            res = solver.solve(
                tol=1e-9, max_sweeps=300, sync_every_sweeps=10,
                b=B[:, :3], x0=x0,
            )
        assert res.converged
        assert res.column_sweeps.shape == (3,)
        assert res.column_sweeps[1] == 0
        np.testing.assert_array_equal(res.x[:, 1], X_star[:, 1])


class TestWorkerCrashReporting:
    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fault injection rides fork inheritance",
    )
    @pytest.mark.usefixtures("no_leaks")
    def test_crash_raises_with_worker_id(self, system, tmp_path, monkeypatch):
        """A worker that raises mid-epoch surfaces as ModelError naming
        the *guilty* worker (not a sibling the parent killed after), and
        the context exit stays clean."""
        import repro.execution.pool as processes_module

        A, b, _ = system
        flag = tmp_path / "armed"
        flag.touch()
        real_loop = processes_module._worker_loop

        def crashing_loop(wid, *args, **kwargs):
            if wid == 1 and flag.exists():
                raise RuntimeError("injected worker crash")
            return real_loop(wid, *args, **kwargs)

        monkeypatch.setattr(processes_module, "_worker_loop", crashing_loop)
        with ProcessAsyRGS(
            A, b, nproc=3, start_method="fork", barrier_timeout=60.0
        ) as solver:
            with pytest.raises(ModelError, match="worker process 1 crashed"):
                solver.solve(tol=1e-8, max_sweeps=100, sync_every_sweeps=10)
            # The broken pool was dropped; the next call respawns.
            flag.unlink()
            res = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
            assert res.converged
            assert solver.spawn_count == 2

    @pytest.mark.usefixtures("no_leaks")
    def test_killed_worker_fails_the_solve_at_once(self, system):
        """A worker killed by a signal mid-solve fails that solve within
        a gate slice, not after ``barrier_timeout``: the error names the
        worker and the signal, and the next call respawns the pool."""
        A, b, _ = system
        with ProcessAsyRGS(A, b, nproc=2, barrier_timeout=60.0) as solver:
            victim = solver.worker_pids()[1]
            killed_at = []

            def kill():
                killed_at.append(time.monotonic())
                os.kill(victim, signal.SIGKILL)

            timer = threading.Timer(0.3, kill)
            timer.start()
            try:
                # tol=0 never converges: the solve runs until the kill.
                with pytest.raises(ModelError) as info:
                    solver.solve(tol=0.0, max_sweeps=10**7)
                failed_at = time.monotonic()
            finally:
                timer.join()
            assert "worker process 1 crashed" in str(info.value)
            assert "SIGKILL" in str(info.value)
            assert failed_at - killed_at[0] < 5.0
            assert not pid_alive(victim)
            res = solver.solve(tol=1e-8, max_sweeps=400, sync_every_sweeps=10)
            assert res.converged
            assert solver.spawn_count == 2

    @pytest.mark.usefixtures("no_leaks")
    def test_workers_exit_when_their_parent_dies(self, tmp_path):
        """Workers parked at the start gate leave once their parent is
        gone, even when it was SIGKILLed and could not stop them."""
        script = tmp_path / "parent.py"
        script.write_text(textwrap.dedent("""
            import time
            import numpy as np
            from repro.execution import ProcessAsyRGS
            from repro.workloads import random_unit_diagonal_spd

            A = random_unit_diagonal_spd(30, nnz_per_row=4, offdiag_scale=0.6, seed=8)
            solver = ProcessAsyRGS(A, A.matvec(np.ones(30)), nproc=2).open()
            print(*solver.worker_pids(), flush=True)
            time.sleep(120)
        """))
        src = str(pathlib.Path(repro.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        parent = subprocess.Popen(
            [sys.executable, str(script)], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            # The workers share the pipe: wait for the parent, not EOF.
            parent.kill()
            parent.wait()
            parent.stdout.close()
        assert len(workers) == 2
        deadline = time.monotonic() + 5.0
        while any(map(pid_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(pid_alive, workers))


class TestValidation:
    def test_zero_processes_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            ProcessAsyRGS(A, b, nproc=0)

    def test_wrong_length_b_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ShapeError):
            ProcessAsyRGS(A, b[:-1], nproc=2)

    def test_bad_beta_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            ProcessAsyRGS(A, b, nproc=2, beta=2.5)

    def test_bad_x0_rejected(self, system):
        A, b, _ = system
        p = ProcessAsyRGS(A, b, nproc=2)
        with pytest.raises(ShapeError):
            p.run(np.zeros(5), 10)

    def test_negative_iterations_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            ProcessAsyRGS(A, b, nproc=2).run(None, -1)

    def test_stream_dimension_mismatch(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            ProcessAsyRGS(A, b, nproc=2, directions=DirectionStream(7, seed=0))

    def test_complex_b_rejected_as_shape_error(self, system):
        """A wrong-dtype b is a contract violation with the shared
        wording, not a NumPy TypeError from engine depths."""
        A, b, _ = system
        with pytest.raises(ShapeError, match="cannot be converted"):
            ProcessAsyRGS(A, b.astype(np.complex128), nproc=2)

    def test_complex_b_override_rejected(self, system):
        A, b, _ = system
        with ProcessAsyRGS(A, b, nproc=2) as solver:
            with pytest.raises(ShapeError, match="cannot be converted"):
                solver.run(None, 10, b=b.astype(np.complex128))
            assert solver.pool_active  # validation never hurts the pool

    def test_non_contiguous_block_accepted(self, block_system):
        """A non-contiguous RHS block (a strided view) must solve
        identically to its contiguous copy."""
        A, B, _ = block_system
        n = A.shape[0]
        wide = np.empty((n, 2 * B.shape[1]))
        wide[:, ::2] = B
        strided = wide[:, ::2]  # same values, non-contiguous
        assert not strided.flags["C_CONTIGUOUS"]
        res_s = ProcessAsyRGS(
            A, strided, nproc=1, directions=DirectionStream(n, seed=3)
        ).run(None, 3 * n)
        res_c = ProcessAsyRGS(
            A, np.ascontiguousarray(strided), nproc=1,
            directions=DirectionStream(n, seed=3),
        ).run(None, 3 * n)
        np.testing.assert_array_equal(res_s.x, res_c.x)

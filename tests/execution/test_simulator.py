"""Unit tests for the asynchronous simulators.

The anchor identities:

* zero delay ≡ synchronous randomized Gauss-Seidel, exactly;
* the phased engine at P = 1 ≡ synchronous RGS (up to summation order);
* any bounded delay still converges on well-conditioned SPD systems;
* stale-view evaluation agrees with a brute-force reconstruction of
  ``x_{k(j)}`` from the update log.
"""

import numpy as np
import pytest

from repro.core import randomized_gauss_seidel
from repro.exceptions import ModelError, NotPositiveDefiniteError, ShapeError
from repro.execution import (
    AsyncSimulator,
    AtomicWrites,
    FixedDelay,
    InconsistentUniform,
    LossyWrites,
    PhasedSimulator,
    UniformDelay,
    ZeroDelay,
)
from repro.rng import DirectionStream
from repro.workloads import laplacian_2d, random_unit_diagonal_spd

from ..conftest import manufactured_system


@pytest.fixture(scope="module")
def system():
    A = random_unit_diagonal_spd(40, nnz_per_row=5, offdiag_scale=0.7, seed=3)
    b, x_star = manufactured_system(A, seed=4)
    return A, b, x_star


class TestZeroDelayIdentity:
    def test_exact_match_with_rgs(self, system):
        A, b, _ = system
        n = A.shape[0]
        ref = randomized_gauss_seidel(
            A, b, sweeps=4, directions=DirectionStream(n, seed=8), record_history=False
        )
        sim = AsyncSimulator(
            A, b, delay_model=ZeroDelay(), directions=DirectionStream(n, seed=8)
        )
        out = sim.run(np.zeros(n), 4 * n)
        np.testing.assert_array_equal(out.x, ref.x)

    def test_phased_p1_matches_rgs(self, system):
        A, b, _ = system
        n = A.shape[0]
        ref = randomized_gauss_seidel(
            A, b, sweeps=4, directions=DirectionStream(n, seed=8), record_history=False
        )
        sim = PhasedSimulator(A, b, nproc=1, directions=DirectionStream(n, seed=8))
        out = sim.run(np.zeros(n), 4 * n)
        np.testing.assert_array_equal(out.x, ref.x)

    def test_general_engine_fixed_vs_phased_round(self, system):
        """A phased round of size P is the consistent model with lag
        j mod P; check the first round explicitly against the general
        engine with the matching schedule."""
        A, b, _ = system
        n = A.shape[0]
        P = 5

        class PhaseLag(FixedDelay):
            def missed(self, j):
                return self._suffix(j, j % P)

        gen = AsyncSimulator(
            A, b, delay_model=PhaseLag(P - 1), directions=DirectionStream(n, seed=8)
        )
        out_gen = gen.run(np.zeros(n), P)
        ph = PhasedSimulator(A, b, nproc=P, directions=DirectionStream(n, seed=8))
        out_ph = ph.run(np.zeros(n), P)
        np.testing.assert_allclose(out_gen.x, out_ph.x, rtol=1e-12, atol=1e-14)


class TestStaleViewCorrectness:
    def test_matches_bruteforce_reconstruction(self, system):
        """γ_j computed with ring-buffer corrections must equal γ computed
        from an explicitly materialized stale iterate."""
        A, b, _ = system
        n = A.shape[0]
        tau = 6
        model = UniformDelay(tau, seed=13)
        ds = DirectionStream(n, seed=21)
        sim = AsyncSimulator(
            A, b, delay_model=model, directions=ds, record_trace=True
        )
        m = 300
        out = sim.run(np.zeros(n), m)
        # Brute force: replay maintaining full history of iterates.
        x = np.zeros(n)
        history = [x.copy()]
        diag = A.diagonal()
        for j in range(m):
            r = ds.direction(j)
            missed = model.missed(j)
            x_view = x.copy()
            for t in missed:
                t = int(t)
                # Subtract the delta applied at iteration t.
                delta_t = history[t + 1] - history[t]
                x_view -= delta_t
            gamma = (b[r] - A.row_dot(r, x_view)) / diag[r]
            x = x.copy()
            x[r] += gamma
            history.append(x.copy())
            assert out.trace.gammas[j] == pytest.approx(gamma, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(out.x, x, rtol=1e-10, atol=1e-12)

    def test_inconsistent_views_match_bruteforce(self, system):
        A, b, _ = system
        n = A.shape[0]
        model = InconsistentUniform(5, miss_prob=0.6, seed=3)
        ds = DirectionStream(n, seed=33)
        sim = AsyncSimulator(A, b, delay_model=model, directions=ds, record_trace=True)
        m = 200
        out = sim.run(np.zeros(n), m)
        x = np.zeros(n)
        history = [x.copy()]
        diag = A.diagonal()
        for j in range(m):
            r = ds.direction(j)
            x_view = x.copy()
            for t in model.missed(j):
                t = int(t)
                x_view -= history[t + 1] - history[t]
            gamma = (b[r] - A.row_dot(r, x_view)) / diag[r]
            x = x.copy()
            x[r] += gamma
            history.append(x.copy())
        np.testing.assert_allclose(out.x, x, rtol=1e-10, atol=1e-12)


class TestConvergence:
    @pytest.mark.parametrize("tau", [1, 4, 10])
    def test_async_converges_consistent(self, system, tau):
        A, b, x_star = system
        n = A.shape[0]
        sim = AsyncSimulator(
            A,
            b,
            delay_model=UniformDelay(tau, seed=tau),
            directions=DirectionStream(n, seed=5),
        )
        out = sim.run(np.zeros(n), 60 * n)
        assert np.abs(out.x - x_star).max() < 1e-6

    def test_async_converges_inconsistent_small_step(self, system):
        A, b, x_star = system
        n = A.shape[0]
        sim = AsyncSimulator(
            A,
            b,
            delay_model=InconsistentUniform(6, miss_prob=0.5, seed=2),
            directions=DirectionStream(n, seed=5),
            beta=0.8,
        )
        out = sim.run(np.zeros(n), 100 * n)
        assert np.abs(out.x - x_star).max() < 1e-5

    def test_phased_converges_many_procs(self, system):
        A, b, x_star = system
        n = A.shape[0]
        sim = PhasedSimulator(A, b, nproc=8, directions=DirectionStream(n, seed=5))
        out = sim.run(np.zeros(n), 80 * n)
        assert np.abs(out.x - x_star).max() < 1e-6

    def test_laplacian_multirhs(self):
        A = laplacian_2d(7, 7)
        n = A.shape[0]
        X_star = np.stack([np.linspace(0, 1, n), np.linspace(1, 0, n)], axis=1)
        B = A.matmat(X_star)
        sim = PhasedSimulator(A, B, nproc=4, directions=DirectionStream(n, seed=6))
        out = sim.run(np.zeros((n, 2)), 300 * n)
        assert np.abs(out.x - X_star).max() < 1e-6

    def test_multirhs_general_engine(self):
        A = laplacian_2d(5, 5)
        n = A.shape[0]
        X_star = np.stack([np.ones(n), np.arange(n, dtype=float)], axis=1)
        B = A.matmat(X_star)
        sim = AsyncSimulator(
            A, B, delay_model=UniformDelay(3, seed=1),
            directions=DirectionStream(n, seed=2),
        )
        out = sim.run(np.zeros((n, 2)), 400 * n)
        assert np.abs(out.x - X_star).max() < 1e-6


class TestAccounting:
    def test_total_row_nnz(self, system):
        A, b, _ = system
        n = A.shape[0]
        ds = DirectionStream(n, seed=9)
        sim = AsyncSimulator(A, b, delay_model=ZeroDelay(), directions=ds)
        m = 123
        out = sim.run(np.zeros(n), m)
        rows = ds.directions(0, m)
        expected = int((A.indptr[rows + 1] - A.indptr[rows]).sum())
        assert out.total_row_nnz == expected

    def test_phased_total_row_nnz_matches_general(self, system):
        A, b, _ = system
        n = A.shape[0]
        m = 200
        g = AsyncSimulator(
            A, b, delay_model=ZeroDelay(), directions=DirectionStream(n, seed=9)
        ).run(np.zeros(n), m)
        p = PhasedSimulator(
            A, b, nproc=4, directions=DirectionStream(n, seed=9)
        ).run(np.zeros(n), m)
        assert g.total_row_nnz == p.total_row_nnz

    def test_checkpoints_recorded(self, system):
        A, b, _ = system
        n = A.shape[0]
        sim = PhasedSimulator(A, b, nproc=4, directions=DirectionStream(n, seed=9))
        out = sim.run(
            np.zeros(n),
            5 * n,
            checkpoint_every=n,
            checkpoint_metric=lambda x: float(np.linalg.norm(b - A.matvec(x))),
        )
        assert len(out.checkpoints) == 5
        its = [it for it, _ in out.checkpoints]
        assert its == sorted(its)
        values = [v for _, v in out.checkpoints]
        assert values[-1] < values[0]

    def test_start_iteration_continuation(self, system):
        """Splitting a zero-delay run into segments must equal one run."""
        A, b, _ = system
        n = A.shape[0]
        one = AsyncSimulator(
            A, b, delay_model=ZeroDelay(), directions=DirectionStream(n, seed=10)
        ).run(np.zeros(n), 2 * n)
        sim = AsyncSimulator(
            A, b, delay_model=ZeroDelay(), directions=DirectionStream(n, seed=10)
        )
        part = sim.run(np.zeros(n), n)
        part2 = sim.run(part.x, n, start_iteration=n)
        np.testing.assert_array_equal(one.x, part2.x)


class TestWriteModels:
    def test_lossy_writes_lose_updates(self, system):
        A, b, _ = system
        n = A.shape[0]
        sim = AsyncSimulator(
            A,
            b,
            delay_model=FixedDelay(8),
            directions=DirectionStream(n, seed=11),
            write_model=LossyWrites(loss_prob=1.0, seed=1),
        )
        out = sim.run(np.zeros(n), 30 * n)
        assert out.lost_writes > 0

    def test_atomic_writes_lose_nothing(self, system):
        A, b, _ = system
        n = A.shape[0]
        sim = AsyncSimulator(
            A,
            b,
            delay_model=FixedDelay(8),
            directions=DirectionStream(n, seed=11),
            write_model=AtomicWrites(),
        )
        out = sim.run(np.zeros(n), 10 * n)
        assert out.lost_writes == 0

    def test_lossy_still_converges(self, system):
        """The paper's experimental finding: non-atomic writes do not
        noticeably break convergence."""
        A, b, x_star = system
        n = A.shape[0]
        sim = AsyncSimulator(
            A,
            b,
            delay_model=FixedDelay(4),
            directions=DirectionStream(n, seed=11),
            write_model=LossyWrites(loss_prob=0.5, seed=2),
        )
        out = sim.run(np.zeros(n), 80 * n)
        assert np.abs(out.x - x_star).max() < 1e-5

    def test_phased_nonatomic_counts_collisions(self, system):
        A, b, _ = system
        n = A.shape[0]
        sim = PhasedSimulator(
            A, b, nproc=16, directions=DirectionStream(n, seed=12), atomic=False
        )
        out = sim.run(np.zeros(n), 50 * n)
        assert out.lost_writes > 0  # collisions certain with P=16, n=40

    def test_phased_nonatomic_converges(self, system):
        A, b, x_star = system
        n = A.shape[0]
        sim = PhasedSimulator(
            A, b, nproc=8, directions=DirectionStream(n, seed=12), atomic=False
        )
        out = sim.run(np.zeros(n), 100 * n)
        assert np.abs(out.x - x_star).max() < 1e-5


class TestJitter:
    def test_jitter_changes_result(self, system):
        A, b, _ = system
        n = A.shape[0]
        runs = []
        for seed in (1, 2):
            sim = PhasedSimulator(
                A, b, nproc=8, jitter=4, seed=seed,
                directions=DirectionStream(n, seed=13),
            )
            runs.append(sim.run(np.zeros(n), 10 * n).x)
        assert not np.array_equal(runs[0], runs[1])

    def test_jitter_deterministic_per_seed(self, system):
        A, b, _ = system
        n = A.shape[0]
        runs = []
        for _ in range(2):
            sim = PhasedSimulator(
                A, b, nproc=8, jitter=4, seed=7,
                directions=DirectionStream(n, seed=13),
            )
            runs.append(sim.run(np.zeros(n), 10 * n).x)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_invalid_jitter(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            PhasedSimulator(A, b, nproc=4, jitter=4)


class TestValidation:
    def test_rectangular_rejected(self):
        from repro.sparse import CSRMatrix

        A = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            AsyncSimulator(A, np.ones(2))

    def test_nonpositive_diagonal_rejected(self):
        from repro.sparse import CSRMatrix

        A = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            AsyncSimulator(A, np.ones(2))

    def test_bad_beta_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            AsyncSimulator(A, b, beta=0.0)
        with pytest.raises(ModelError):
            PhasedSimulator(A, b, nproc=2, beta=2.0)

    def test_direction_dimension_mismatch(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            AsyncSimulator(A, b, directions=DirectionStream(7, seed=1))

    def test_trace_multirhs_rejected(self, system):
        A, b, _ = system
        B = np.stack([b, b], axis=1)
        with pytest.raises(ModelError):
            AsyncSimulator(A, B, record_trace=True)

    def test_negative_iterations_rejected(self, system):
        A, b, _ = system
        sim = PhasedSimulator(A, b, nproc=2)
        with pytest.raises(ModelError):
            sim.run(np.zeros(A.shape[0]), -1)

    def test_x0_shape_mismatch(self, system):
        A, b, _ = system
        sim = PhasedSimulator(A, b, nproc=2)
        with pytest.raises(ShapeError):
            sim.run(np.zeros(3), 10)

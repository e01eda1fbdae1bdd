"""Unit tests for the AsyRGS solver facade."""

import numpy as np
import pytest

from repro.core import AsyRGS, randomized_gauss_seidel
from repro.exceptions import ModelError, ShapeError
from repro.execution import (
    InconsistentUniform,
    ProcessAsyRGS,
    UniformDelay,
)
from repro.rng import DirectionStream
from repro.workloads import random_unit_diagonal_spd

from ..conftest import manufactured_system


@pytest.fixture(scope="module")
def system():
    A = random_unit_diagonal_spd(45, nnz_per_row=5, offdiag_scale=0.7, seed=21)
    b, x_star = manufactured_system(A, seed=22)
    return A, b, x_star


#: The facade's two engines, and the pool that runs the same algorithm
#: on real worker threads: all three validate ``b`` and ``x0`` by one table.
SOLVERS = {
    "phased": lambda A, b: AsyRGS(A, b, nproc=2),
    "general": lambda A, b: AsyRGS(A, b, engine="general", nproc=2),
    "processes": lambda A, b: ProcessAsyRGS(A, b, nproc=2),
}


def _run_one_sweep(solver, x0):
    if isinstance(solver, AsyRGS):
        return solver.run_sweeps(1, x0=x0)
    return solver.run(x0, solver.n_rows)


class TestEngines:
    def test_phased_solver_converges(self, system):
        A, b, x_star = system
        s = AsyRGS(A, b, nproc=8)
        r = s.solve(tol=1e-8, max_sweeps=300)
        assert r.converged
        assert np.abs(r.x - x_star).max() < 1e-6

    def test_general_solver_converges(self, system):
        A, b, x_star = system
        s = AsyRGS(A, b, nproc=8, engine="general")
        r = s.solve(tol=1e-8, max_sweeps=300)
        assert r.converged
        assert np.abs(r.x - x_star).max() < 1e-6

    def test_custom_delay_model(self, system):
        A, b, x_star = system
        s = AsyRGS(A, b, engine="general", delay_model=UniformDelay(12, seed=3))
        r = s.solve(tol=1e-6, max_sweeps=300)
        assert r.converged

    def test_inconsistent_model_with_auto_beta(self, system):
        A, b, _ = system
        s = AsyRGS(
            A, b, engine="general",
            delay_model=InconsistentUniform(6, miss_prob=0.5, seed=4),
            beta="auto",
        )
        assert 0 < s.beta < 1  # Theorem 4 regime
        r = s.solve(tol=1e-5, max_sweeps=400)
        assert r.converged

    def test_nproc_one_matches_synchronous(self, system):
        A, b, _ = system
        n = A.shape[0]
        s = AsyRGS(A, b, nproc=1, directions=DirectionStream(n, seed=5))
        r = s.run_sweeps(4)
        ref = randomized_gauss_seidel(
            A, b, sweeps=4, directions=DirectionStream(n, seed=5),
            record_history=False,
        )
        np.testing.assert_allclose(r.x, ref.x, rtol=1e-12, atol=1e-14)

    def test_unknown_engine_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            AsyRGS(A, b, engine="warp")
        # Real processes are a pool, built by make_solver, not an engine.
        with pytest.raises(ModelError, match="make_solver"):
            AsyRGS(A, b, engine="processes")

    def test_delay_model_with_phased_rejected(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            AsyRGS(A, b, engine="phased", delay_model=UniformDelay(2))

    def test_nonatomic_with_general_rejected(self, system):
        # Only the phased engine models write races; the general engine
        # must not run atomically while the caller asked for races.
        A, b, _ = system
        with pytest.raises(ModelError, match="atomic=False"):
            AsyRGS(A, b, engine="general", atomic=False)
        AsyRGS(A, b, engine="general", atomic=True)


class TestEpochScheme:
    def test_sync_points_counted(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=4)
        r = s.solve(tol=1e-20, max_sweeps=10, sync_every_sweeps=2)
        assert r.sync_points == 5
        assert r.sweeps == 10

    def test_sync_every_sweeps_validated(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=4)
        with pytest.raises(ModelError):
            s.solve(tol=1e-4, max_sweeps=10, sync_every_sweeps=0)

    def test_history_per_epoch(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=4)
        r = s.solve(tol=1e-20, max_sweeps=6, sync_every_sweeps=3)
        assert r.history.iterations == [0, 3, 6]

    def test_budget_respected_when_not_converging(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=4)
        r = s.solve(tol=1e-30, max_sweeps=7, sync_every_sweeps=3)
        assert r.sweeps == 7
        assert not r.converged


class TestRunSweeps:
    def test_free_running_history(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=8)
        r = s.run_sweeps(5)
        assert r.sync_points == 0
        assert r.history.iterations == [0, 1, 2, 3, 4, 5]
        assert r.history.values[-1] < r.history.values[0]

    def test_zero_sweeps(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=2)
        r = s.run_sweeps(0)
        assert r.iterations == 0
        np.testing.assert_array_equal(r.x, np.zeros(A.shape[0]))

    def test_multirhs_run(self, system):
        A, b, _ = system
        B = np.stack([b, 2 * b], axis=1)
        s = AsyRGS(A, B, nproc=4)
        r = s.run_sweeps(30, record_history=False)
        res = B - A.matmat(r.x)
        assert np.linalg.norm(res) / np.linalg.norm(B) < 1e-2


class TestRHSValidation:
    """b is validated once, up front, identically for every engine."""

    @pytest.mark.parametrize("engine", sorted(SOLVERS))
    def test_three_dim_b_rejected_at_init(self, system, engine):
        A, b, _ = system
        with pytest.raises(ShapeError, match="expected"):
            SOLVERS[engine](A, np.zeros((A.shape[0], 2, 2)))

    @pytest.mark.parametrize("engine", sorted(SOLVERS))
    def test_wrong_length_b_rejected_at_init(self, system, engine):
        A, b, _ = system
        with pytest.raises(ShapeError, match="expected"):
            SOLVERS[engine](A, b[:-3])

    def test_error_message_uniform_across_engines(self, system):
        A, b, _ = system
        messages = set()
        for build in SOLVERS.values():
            with pytest.raises(ShapeError) as err:
                build(A, b[:-3])
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_block_b_accepted_by_every_engine(self, system):
        A, b, _ = system
        B = np.stack([b, 2 * b], axis=1)
        for build in SOLVERS.values():
            assert build(A, B).b.shape == B.shape


class TestX0Validation:
    """x0 is validated once, up front, identically for every engine —
    a shape-mismatched x0 used to broadcast silently or fail deep
    inside an engine with an opaque error."""

    @pytest.mark.parametrize("engine", sorted(SOLVERS))
    def test_wrong_length_x0_rejected(self, system, engine):
        A, b, _ = system
        s = SOLVERS[engine](A, b)
        with pytest.raises(ShapeError, match="x0 has shape"):
            s.solve(tol=1e-6, max_sweeps=10, x0=np.zeros(5))
        with pytest.raises(ShapeError, match="x0 has shape"):
            _run_one_sweep(s, np.zeros(5))

    @pytest.mark.parametrize("engine", sorted(SOLVERS))
    def test_vector_x0_against_block_b_rejected(self, system, engine):
        """The silent-broadcast case: an (n,) x0 against an (n, k) b."""
        A, b, _ = system
        B = np.stack([b, 2 * b], axis=1)
        s = SOLVERS[engine](A, B)
        with pytest.raises(ShapeError, match="x0 has shape"):
            s.solve(tol=1e-6, max_sweeps=10, x0=np.zeros(A.shape[0]))
        with pytest.raises(ShapeError, match="x0 has shape"):
            _run_one_sweep(s, np.zeros(A.shape[0]))

    def test_error_message_uniform_across_engines(self, system):
        A, b, _ = system
        messages = set()
        for build in SOLVERS.values():
            with pytest.raises(ShapeError) as err:
                build(A, b).solve(tol=1e-6, max_sweeps=10, x0=np.zeros(5))
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_valid_x0_still_accepted(self, system):
        A, b, x_star = system
        s = AsyRGS(A, b, nproc=2)
        r = s.solve(tol=1e-6, max_sweeps=50, x0=x_star.copy())
        assert r.converged


class TestColumnTracking:
    """Per-column convergence and early retirement on the simulated
    engines (the pool's variant is tested with the ``pool``
    suite)."""

    @pytest.fixture(scope="class")
    def block(self, system):
        A, b, _ = system
        n = A.shape[0]
        rng = DirectionStream(n, seed=77)
        X_star = np.column_stack(
            [rng.directions(j * n, n).astype(np.float64) / n - 0.5 for j in range(3)]
        )
        return A, A.matmat(X_star), X_star

    @pytest.mark.parametrize("engine", ["phased", "general"])
    def test_all_columns_converge_and_retire(self, block, engine):
        A, B, X_star = block
        s = AsyRGS(A, B, nproc=4, engine=engine)
        r = s.solve(tol=1e-8, max_sweeps=300)
        assert r.converged
        assert r.converged_columns.shape == (3,)
        assert r.converged_columns.all()
        assert (r.column_sweeps >= 0).all()
        assert (r.column_residuals < 1e-8).all()
        assert np.abs(r.x - X_star).max() < 1e-6

    def test_retired_column_is_frozen_and_saves_updates(self, block):
        """A column that starts at the exact solution retires at sweep 0:
        its iterate never changes and the work accounting only charges
        the active columns."""
        A, B, X_star = block
        n, k = B.shape
        x0 = np.zeros((n, k))
        x0[:, 0] = X_star[:, 0]
        s = AsyRGS(A, B, nproc=4)
        r = s.solve(tol=1e-10, max_sweeps=300, x0=x0)
        assert r.converged
        assert r.column_sweeps[0] == 0
        np.testing.assert_array_equal(r.x[:, 0], X_star[:, 0])
        # Exact accounting: column j receives n updates per epoch until
        # its retirement epoch, nothing after.
        n_mat = A.shape[0]
        expected = n_mat * int(
            sum(cs if cs >= 0 else r.sweeps for cs in r.column_sweeps)
        )
        assert r.column_updates == expected
        assert r.column_updates < r.iterations * k
        # Without retirement the frozen column is updated like the rest.
        r_full = s.solve(tol=1e-10, max_sweeps=300, x0=x0, retire=False)
        assert r_full.converged
        assert r_full.column_updates == r_full.iterations * k
        assert r.column_updates < r_full.column_updates

    def test_retirement_preserves_active_trajectories(self, block):
        """Columns evolve independently, so retiring one must not change
        the others' trajectories (deterministic engines, same stream)."""
        A, B, X_star = block
        n, k = B.shape
        x0 = np.zeros((n, k))
        x0[:, 0] = X_star[:, 0]
        s = AsyRGS(A, B, nproc=4)
        r = s.solve(tol=1e-10, max_sweeps=300, x0=x0)
        r_full = s.solve(tol=1e-10, max_sweeps=300, x0=x0, retire=False)
        # Identical trajectories imply identical first-below epochs…
        np.testing.assert_array_equal(r.column_sweeps, r_full.column_sweeps)
        # …and identical per-column residual series up to each column's
        # retirement epoch (after it, the retired run freezes while the
        # full run keeps polishing).
        sr = r.history.column_series()
        sf = r_full.history.column_series()
        for j in range(k):
            e = int(r.column_sweeps[j])
            np.testing.assert_allclose(sr[: e + 1, j], sf[: e + 1, j], rtol=1e-12)

    def test_aggregate_cannot_mask_a_slow_column(self, block):
        """The honesty property: convergence is declared only when every
        column is below tol, even if the Frobenius aggregate passed."""
        A, B, _ = block
        s = AsyRGS(A, B, nproc=4)
        r = s.solve(tol=1e-8, max_sweeps=300)
        final_cols = r.column_residuals
        assert (final_cols < 1e-8).all()
        # And the history's column series is aligned with the scalar one.
        assert r.history.column_series().shape == (len(r.history), 3)

    def test_custom_metric_disables_column_tracking(self, block):
        from repro.core import a_norm_error

        A, B, X_star = block
        s = AsyRGS(A, B, nproc=4)
        r = s.solve(
            tol=1e-6, max_sweeps=300,
            metric=lambda xv: a_norm_error(A, xv, X_star),
        )
        assert r.converged
        assert r.converged_columns is None
        assert r.column_sweeps is None

    def test_retire_with_custom_metric_rejected(self, block):
        A, B, X_star = block
        s = AsyRGS(A, B, nproc=4)
        with pytest.raises(ModelError, match="per-column"):
            s.solve(
                tol=1e-6, max_sweeps=10, retire=True,
                metric=lambda xv: float(np.linalg.norm(xv)),
            )

    def test_single_rhs_reports_one_column(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=4)
        r = s.solve(tol=1e-8, max_sweeps=300)
        assert r.converged
        assert r.converged_columns.shape == (1,)
        assert r.column_updates == r.iterations


class TestStepSize:
    def test_auto_beta_consistent(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=16, beta="auto")
        from repro.core import optimal_beta_consistent, rho_infinity

        assert s.beta == pytest.approx(optimal_beta_consistent(rho_infinity(A), s.tau))

    def test_auto_beta_inconsistent_uses_rho2(self, system):
        """Regression: the inconsistent-read models must get the
        Theorem-4 step from ρ₂ (previously ρ was computed, then
        discarded, and ρ₂ recomputed)."""
        from repro.core import optimal_beta_inconsistent, rho_two

        A, b, _ = system
        expected = optimal_beta_inconsistent(rho_two(A), 1)
        s = AsyRGS(
            A, b, engine="general", beta="auto",
            delay_model=InconsistentUniform(1, miss_prob=0.5, seed=4),
        )
        assert s.tau == 1
        assert s.beta == pytest.approx(expected)

    def test_explicit_beta_used(self, system):
        A, b, _ = system
        s = AsyRGS(A, b, nproc=4, beta=0.6)
        assert s.beta == 0.6
        r = s.run_sweeps(1, record_history=False)
        assert r.beta == 0.6

    def test_invalid_beta(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            AsyRGS(A, b, nproc=4, beta=-0.5)


class TestNonAtomic:
    def test_nonatomic_converges_and_counts(self, system):
        A, b, x_star = system
        s = AsyRGS(A, b, nproc=16, atomic=False)
        r = s.run_sweeps(100, record_history=False)
        assert r.lost_writes > 0
        assert np.abs(r.x - x_star).max() < 1e-4

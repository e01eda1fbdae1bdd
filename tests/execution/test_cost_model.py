"""Unit tests for the machine cost model (shape properties, not seconds)."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.execution import MachineModel
from repro.sparse import CSRMatrix
from repro.workloads import laplacian_2d, social_media_problem


@pytest.fixture(scope="module")
def model():
    return MachineModel.bgq_like()


@pytest.fixture(scope="module")
def social():
    return social_media_problem(n_terms=120, n_docs=600, n_labels=2, seed=6).G


def imbalance(model, A, nproc):
    """The round-robin load-imbalance factor ``cg_iteration_time``
    charges its matvec: max thread load / mean, in row nnz."""
    matvec = model.cg_iteration_time(A, nproc, reductions=0, vector_ops=0)
    return matvec * nproc * model.async_efficiency(nproc) / (model.t_nnz * A.nnz)


class TestImbalance:
    def test_uniform_rows_balanced(self, model):
        A = laplacian_2d(12, 12)  # nearly uniform row sizes
        assert imbalance(model, A, 4) < 1.15

    def test_skewed_rows_imbalanced(self, model, social):
        """The social Gram's skewed rows must create measurable imbalance
        at high thread counts — the paper's CG scaling bottleneck."""
        assert imbalance(model, social, 32) > imbalance(model, social, 2)

    def test_single_thread_balanced(self, model, social):
        assert imbalance(model, social, 1) == pytest.approx(1.0)

    def test_at_least_one(self, model, social):
        for p in (1, 2, 4, 16):
            assert imbalance(model, social, p) >= 1.0 - 1e-12

    def test_empty_matrix(self, model):
        A = CSRMatrix.from_dense(np.zeros((4, 4)))
        assert np.isfinite(model.cg_iteration_time(A, 2))

    def test_invalid_nproc(self, model, social):
        with pytest.raises(ModelError):
            model.cg_iteration_time(social, 0)


class TestPrimitives:
    def test_sync_time_zero_serial(self, model):
        assert model.sync_time(1) == 0.0

    def test_sync_time_grows(self, model):
        times = [model.sync_time(p) for p in (2, 4, 16, 64)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_async_efficiency_decreases(self, model):
        effs = [model.async_efficiency(p) for p in (1, 2, 16, 64)]
        assert effs[0] == 1.0
        assert all(b < a for a, b in zip(effs, effs[1:]))

    def test_efficiency_grows_with_intensity(self, model):
        """More RHS per row gather ⇒ higher flop/byte ⇒ better scaling:
        the paper's 51-RHS sweep (eff ≈ 0.75 at 64) vs the single-RHS
        preconditioner sweep (eff ≈ 0.35)."""
        effs = [model.async_efficiency(64, r) for r in (1, 8, 51)]
        assert all(b > a for a, b in zip(effs, effs[1:]))
        assert effs[0] < 0.45
        assert effs[-1] > 0.7

    def test_streaming_speedup_saturates(self, model):
        assert model.streaming_speedup(1) == 1
        assert model.streaming_speedup(64) == model.streaming_speedup(128)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ModelError):
            MachineModel(t_nnz=-1.0)
        with pytest.raises(ModelError):
            MachineModel(t_nnz=0.0)
        with pytest.raises(ModelError):
            MachineModel(p_bandwidth=0)
        with pytest.raises(ModelError):
            MachineModel(i_half=-1.0)


class TestMethodTimes:
    def test_asyrgs_near_linear_scaling(self, model):
        """Paper anchor: the 51-RHS sweep reaches ≈ 48× at 64 threads."""
        t1 = model.asyrgs_time(10**7, 10**4, 1, nrhs=51)
        t64 = model.asyrgs_time(10**7, 10**4, 64, nrhs=51)
        speedup = t1 / t64
        assert 40 < speedup < 60

    def test_single_rhs_scaling_is_bandwidth_bound(self, model):
        """The same sweep with one RHS scales far worse (paper Table 1:
        ≈ 0.2 s/sweep at 64 threads vs the ideal ≈ 0.05 s)."""
        t1 = model.asyrgs_time(10**7, 10**4, 1, nrhs=1)
        t64 = model.asyrgs_time(10**7, 10**4, 64, nrhs=1)
        assert t1 / t64 < 30

    def test_asyrgs_sync_points_add_cost(self, model):
        base = model.asyrgs_time(10**6, 10**3, 16)
        with_sync = model.asyrgs_time(10**6, 10**3, 16, sync_points=10)
        assert with_sync > base

    def test_asyrgs_nrhs_scales_row_work(self, model):
        one = model.asyrgs_time(10**6, 10**3, 4, nrhs=1)
        many = model.asyrgs_time(10**6, 10**3, 4, nrhs=8)
        assert many > 5 * one

    def test_cg_speedup_saturates_below_asyrgs(self, model, social):
        """The paper's headline scaling contrast: CG speedup at 64 threads
        is visibly below AsyRGS's."""
        nnz_per_sweep = social.nnz * 10
        iters = 10 * social.shape[0]
        asy = [model.asyrgs_time(nnz_per_sweep, iters, p) for p in (1, 64)]
        cg = [model.cg_time(social, 10, p) for p in (1, 64)]
        asy_speedup = asy[0] / asy[1]
        cg_speedup = cg[0] / cg[1]
        assert cg_speedup < asy_speedup

    def test_cg_time_monotone_in_iterations(self, model, social):
        assert model.cg_time(social, 20, 4) > model.cg_time(social, 10, 4)

    def test_serial_rgs_faster_than_cg(self, model, social):
        """Paper anchor: serially, 10 RGS sweeps ≈ 10% faster than 10 CG
        iterations (1220 s vs 1330 s)."""
        nrhs = 8
        sweep_nnz = social.nnz * 10
        t_rgs = model.asyrgs_time(sweep_nnz, 10 * social.shape[0], 1, nrhs=nrhs)
        t_cg = model.cg_time(social, 10, 1, nrhs=nrhs)
        assert t_rgs < t_cg
        assert t_cg / t_rgs < 1.35

    def test_fcg_time_positive_and_monotone(self, model, social):
        t2 = model.fcg_time(
            social, 50, 8,
            precond_row_nnz_per_apply=2 * social.nnz,
            precond_iterations_per_apply=2 * social.shape[0],
        )
        t10 = model.fcg_time(
            social, 50, 8,
            precond_row_nnz_per_apply=10 * social.nnz,
            precond_iterations_per_apply=10 * social.shape[0],
        )
        assert 0 < t2 < t10

    def test_speedup_helper(self, model):
        assert model.speedup(10.0, 2.0) == 5.0
        with pytest.raises(ModelError):
            model.speedup(1.0, 0.0)

"""AsyRK: asynchronous randomized Kaczmarz on the shared pool core.

The rectangular counterpart of ``test_processes.py`` — the pool
machinery itself (gates, reuse, crash reporting, capacity layouts) is
exercised there; this file pins what is *specific* to the Kaczmarz
method: least-squares convergence judged by the normal-equations
residual, the rectangular geometry (m-row draws, n-row iterate), the
construction-time rejections, and the exact linearity of the iteration
in ``(b, x)`` over a reused pool.
"""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.execution import AsyRK, make_solver
from repro.execution.kaczmarz import LeastSquaresTracker
from repro.rng import DirectionStream
from repro.sparse import CSRMatrix
from repro.workloads import random_least_squares

pytestmark = pytest.mark.pool


def normal_equations_residual(A, x, b):
    """``‖Aᵀ(b − Ax)‖ / ‖Aᵀb‖`` — the measure AsyRK's tracker uses."""
    At = A.transpose()
    return float(
        np.linalg.norm(At.matvec(b - A.matvec(x)))
        / np.linalg.norm(At.matvec(b))
    )


@pytest.fixture(scope="module")
def consistent():
    return random_least_squares(240, 60, nnz_per_row=6, noise_scale=0.0, seed=3)


@pytest.fixture(scope="module")
def inconsistent():
    return random_least_squares(240, 60, nnz_per_row=6, noise_scale=0.01, seed=3)


class TestLeastSquaresConvergence:
    def test_consistent_system_to_tight_tolerance(self, consistent):
        """Noise-free: the minimizer is the generating vector and the
        normal-equations residual can be driven essentially to zero."""
        prob = consistent
        res = AsyRK(
            prob.A,
            prob.b,
            nproc=1,
            beta=0.8,
            directions=DirectionStream(prob.A.shape[0], seed=0),
        ).solve(tol=1e-6, max_sweeps=60)
        assert res.converged
        assert res.x.shape == (prob.A.shape[1],)
        assert normal_equations_residual(prob.A, res.x, prob.b) < 1e-6
        assert np.allclose(res.x, prob.x_generating, atol=1e-5)

    def test_inconsistent_system_to_ls_tolerance(self, inconsistent):
        """With noise the plain residual plateaus at the noise floor,
        but the normal-equations residual still passes the tolerance:
        the solver finds the least-squares point, not ``Ax = b``."""
        prob = inconsistent
        res = AsyRK(
            prob.A,
            prob.b,
            nproc=2,
            beta=0.8,
            directions=DirectionStream(prob.A.shape[0], seed=1),
        ).solve(tol=2e-2, max_sweeps=80)
        assert res.converged
        assert normal_equations_residual(prob.A, res.x, prob.b) < 2e-2
        # The plain residual cannot vanish on an inconsistent system.
        assert float(np.linalg.norm(prob.b - prob.A.matvec(res.x))) > 0.0

    def test_block_rhs_with_retirement(self, consistent):
        """A block of right-hand sides converges per column, and the
        default retirement policy records a sweep count per column."""
        prob = consistent
        B = np.column_stack([prob.b, 2.0 * prob.b, -prob.b])
        res = AsyRK(
            prob.A,
            B,
            nproc=2,
            beta=0.8,
            directions=DirectionStream(prob.A.shape[0], seed=2),
        ).solve(tol=1e-4, max_sweeps=80)
        assert res.converged
        assert res.converged_columns.all()
        assert res.x.shape == (prob.A.shape[1], 3)
        assert (res.column_sweeps >= 0).all()
        for j, scale in enumerate([1.0, 2.0, -1.0]):
            assert normal_equations_residual(
                prob.A, res.x[:, j], scale * prob.b
            ) < 1e-4

    def test_make_solver_builds_asyrk(self, consistent):
        prob = consistent
        solver = make_solver(
            "asyrk", prob.A, prob.b, nproc=1, beta=0.8
        )
        assert isinstance(solver, AsyRK)
        assert solver.method_name == "asyrk"


class TestConstructionRejections:
    def test_atomic_rejected(self, consistent):
        prob = consistent
        with pytest.raises(ModelError, match="does not support atomic=True"):
            AsyRK(prob.A, prob.b, nproc=1, atomic=True)

    def test_zero_row_rejected(self):
        # Row 1 of this 3x2 rectangle is identically empty.
        A = CSRMatrix(
            (3, 2),
            np.array([0, 1, 1, 2], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.array([1.0, 1.0]),
        )
        with pytest.raises(ModelError, match="row 1 of A is identically zero"):
            AsyRK(A, np.ones(3), nproc=1)


class TestTracker:
    def test_normal_equations_criterion(self, inconsistent):
        """At the exact least-squares point the tracker reports
        convergence even though ``Ax = b`` has no solution; at the
        origin it does not."""
        prob = inconsistent
        x_ls, *_ = np.linalg.lstsq(prob.A.to_dense(), prob.b, rcond=None)
        At = prob.A.transpose()
        done = LeastSquaresTracker(prob.A, At, x_ls, prob.b, tol=1e-8)
        assert done.done_mask.all()
        cold = LeastSquaresTracker(
            prob.A, At, np.zeros(prob.A.shape[1]), prob.b, tol=1e-8
        )
        assert not cold.done_mask.any()


class TestPoolReuseLinearity:
    def test_scaled_rhs_scales_the_trajectory_exactly(self, consistent):
        """The Kaczmarz iteration is linear in ``(b, x)`` and the reused
        pool replays the same direction prefix, so solving ``2b`` from
        ``x0 = 0`` on the same pool yields exactly twice the iterate —
        bit for bit, since scaling by 2 is exact in float64."""
        prob = consistent
        m = prob.A.shape[0]
        total = 2 * m
        with AsyRK(
            prob.A,
            prob.b,
            nproc=1,
            beta=0.8,
            directions=DirectionStream(m, seed=5),
        ) as solver:
            base = solver.run(None, total)
            doubled = solver.run(None, total, b=2.0 * prob.b)
        assert solver.spawn_count == 1
        assert np.array_equal(doubled.x, 2.0 * base.x)

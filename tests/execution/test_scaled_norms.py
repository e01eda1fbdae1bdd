"""Residual norms that neither overflow nor underflow.

Both per-column trackers take each norm as the square root of a squared
sum, which overflows once a norm passes ~1.3e154 and loses every digit
below ~1e-154. Where that happens (the sum is not finite, or is below
``tiny/eps``), the column is measured again with each entry scaled by a
power of two first, as LAPACK's ``dnrm2`` does; elsewhere the float is
the plain square root's. The oracle is the exact norm, summed in
60-digit decimal arithmetic, on entries from 1e-300 to 1e300.
"""

import decimal

import numpy as np
import pytest

from repro import _native
from repro.core import AsyRGS
from repro.core.residuals import ColumnTracker
from repro.execution import make_solver
from repro.execution.epochs import checked_norms, scaled_norms, vector_norm
from repro.execution.kaczmarz import LeastSquaresTracker
from repro.sparse import CSRMatrix
from repro.workloads import laplacian_2d, random_least_squares

from ..conftest import needs_native

pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

N = 24
#: Column magnitudes: underflowing squares, healthy ones, overflowing ones.
SCALES = [1e-300, 1e-200, 1e-160, 1.0, 1e160, 1e200, 1e300]


def exact_norm(v) -> float:
    with decimal.localcontext(decimal.Context(prec=60)):
        return float(sum(decimal.Decimal(float(e)) ** 2 for e in v).sqrt())


def exact_norms(block) -> np.ndarray:
    return np.array([exact_norm(block[:, j]) for j in range(block.shape[1])])


def _block() -> np.ndarray:
    """One column per scale, and one whose entries span 1e-300..1e300."""
    rng = np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], size=(N, len(SCALES) + 1))
    mags = rng.uniform(0.5, 2.0, size=(N, len(SCALES))) * np.array(SCALES)
    spread = np.logspace(-300, 300, N)
    return signs * np.column_stack([mags, spread])


B = _block()
HEALTHY = SCALES.index(1.0)


def test_scaled_norms_are_exact():
    np.testing.assert_allclose(scaled_norms(B), exact_norms(B), rtol=1e-14)


def test_scaled_norms_keep_zero_inf_and_nan():
    block = np.zeros((3, 3))
    block[1, 1], block[2, 2] = np.inf, np.nan
    got = scaled_norms(block)
    assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])


def test_checked_norms_rescale_only_the_broken_sums():
    with np.errstate(over="ignore"):
        sq = (B * B).sum(axis=0)
    got = checked_norms(sq, lambda i: B[:, i])
    np.testing.assert_allclose(got, exact_norms(B), rtol=1e-14)
    assert got[HEALTHY] == np.sqrt(sq[HEALTHY])  # the hot path's float


def test_vector_norm():
    healthy = B[:, HEALTHY]
    assert vector_norm(healthy) == np.linalg.norm(healthy)
    for j in range(B.shape[1]):
        assert vector_norm(B[:, j]) == pytest.approx(exact_norm(B[:, j]), rel=1e-14)


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
def test_column_tracker_norms_are_exact(native):
    """On ``A = 2I``: at ``x0 = 0`` the numerator and the denominator
    are ``‖b_j‖``; at ``x = b/4`` the residual is ``b/2`` exactly."""
    if native and not _native.loaded():
        pytest.skip("the native kernel cannot be built here")
    A = CSRMatrix.from_dense(2.0 * np.eye(N))
    with _native.forced(native):
        tracker = ColumnTracker(A, np.zeros_like(B), B, 1e-6)
        want = exact_norms(B)
        np.testing.assert_allclose(tracker.num, want, rtol=1e-14)
        np.testing.assert_allclose(tracker.col, 1.0, rtol=1e-14)
        tracker.update(B / 4, 1, retire=False)
    np.testing.assert_allclose(tracker.num, want / 2, rtol=1e-14)
    np.testing.assert_allclose(tracker.col, 0.5, rtol=1e-14)
    assert tracker.value == pytest.approx(0.5, rel=1e-14)


@needs_native
@pytest.mark.filterwarnings("error:overflow encountered in multiply:RuntimeWarning")
def test_least_squares_tracker_norms_are_exact():
    """On ``A = [I; I]`` and ``b = [B; B]``: ``Aᵀb = 2B``, and at
    ``x = B/2`` the normal-equations residual is ``B`` exactly. Each
    column's ``Σ g²`` comes from the native pass, so NumPy squares no
    overflowing ``g``."""
    A = CSRMatrix.from_dense(np.vstack([np.eye(N), np.eye(N)]))
    b = np.vstack([B, B])
    tracker = LeastSquaresTracker(A, np.zeros_like(B), b, 1e-6)
    want = exact_norms(B)
    np.testing.assert_allclose(tracker.num, 2 * want, rtol=1e-14)
    tracker.update(B / 2, 1, retire=False)
    np.testing.assert_allclose(tracker.num, want, rtol=1e-14)
    np.testing.assert_allclose(tracker.col, 0.5, rtol=1e-14)
    assert tracker.value == pytest.approx(0.5, rel=1e-14)
    warm = LeastSquaresTracker(A, B / 2, b, 1e-6)
    np.testing.assert_array_equal(warm.num, tracker.num)


LAPLACE = laplacian_2d(8)
X_TRUE = np.random.default_rng(1).standard_normal(LAPLACE.shape[0])


@pytest.mark.parametrize("scale", [1e160, 1e-160])
@pytest.mark.parametrize("engine", [
    pytest.param("processes", marks=pytest.mark.pool), "simulator",
])
def test_far_scaled_solve_converges(engine, scale):
    """A system scaled far from 1 is solved as it is at scale 1: the
    relative residual neither reads inf/NaN at the start nor vanishes
    into an underflowed denominator."""
    b = LAPLACE.matvec(X_TRUE) * scale
    if engine == "processes":
        res = make_solver("asyrgs", LAPLACE, b, nproc=1).solve(
            tol=1e-8, max_sweeps=3_000
        )
        sweeps = res.sweeps_done
    else:
        res = AsyRGS(LAPLACE, b).solve(1e-8, 3_000)
        sweeps = res.sweeps
    assert res.converged and sweeps > 10
    np.testing.assert_allclose(res.x / scale, X_TRUE, atol=1e-6)


@pytest.mark.pool
def test_far_scaled_least_squares_solve_converges():
    prob = random_least_squares(240, 60, nnz_per_row=6, noise_scale=0.0, seed=3)
    res = make_solver("asyrk", prob.A, prob.b * 1e160, nproc=1).solve(
        tol=1e-6, max_sweeps=300
    )
    assert res.converged and res.sweeps_done > 0
    np.testing.assert_allclose(res.x / 1e160, prob.x_generating, atol=1e-4)

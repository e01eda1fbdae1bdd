"""AsyRK's native normal-equations pass against its NumPy formula.

``repro._native.normal_residuals`` forms ``Aᵀ(b − A·x)`` in one pass
over ``A``'s rows, scattering each row's residual into the result. Row
``j`` of the transpose lists its entries in row order, and the pass
visits rows in order, so every entry sums in the same order as
``Aᵀ.matmat(b − A.matmat(x))``: the two agree bit for bit, and so does
:class:`~repro.execution.kaczmarz.LeastSquaresTracker` with the
formula it replaced.
"""

import numpy as np
import pytest

from repro import _native
from repro.execution.epochs import column_norms
from repro.execution.kaczmarz import LeastSquaresTracker, _norms
from repro.workloads import random_least_squares

from ..conftest import needs_native
from ..execution.test_row_segment import SELECTIONS as SEGMENT_SELECTIONS

pytestmark = needs_native

PROB = random_least_squares(240, 60, nnz_per_row=6, noise_scale=0.01, seed=5)
A = PROB.A
AT = A.transpose()
M, N = A.shape


def oracle(b, x, cols):
    """``Aᵀ(b − A x)`` of the columns ``cols`` through the transpose."""
    b2 = b if b.ndim == 2 else b[:, None]
    x2 = x if x.ndim == 2 else x[:, None]
    return AT.matmat(b2[:, cols] - A.matmat(np.ascontiguousarray(x2[:, cols])))


def oracle_norms(b, x, cols):
    """The tracker's numerators by the formula the native pass replaced."""
    g = oracle(b, x, cols)
    return np.sqrt((g * g).sum(axis=0))


def _system(k: int, capacity: int, seed: int = 0):
    """``b`` of ``k`` columns and the request view of an ``(N,
    capacity)`` iterate block, as a pool hands it over."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((M, k)), rng.standard_normal((N, capacity))[:, :k]


#: ``(k, listed columns)``: whole blocks, prefix and gapped subsets, a
#: lone column, one column in all, and every column set the gather the
#: kernels share distinguishes (those of the segment kernel's test).
SELECTIONS = {
    "k8-all": (8, list(range(8))),
    "k8-prefix": (8, [0, 1, 2, 3, 4]),
    "k8-gaps": (8, [1, 3, 4, 6, 7]),
    "k8-lone": (8, [5]),
    "k1": (1, [0]),
    "k13-all": (13, list(range(13))),
    **SEGMENT_SELECTIONS,
}


@pytest.mark.parametrize("extra", [0, 5], ids=["contiguous", "request-view"])
@pytest.mark.parametrize("name", list(SELECTIONS))
def test_pass_is_the_formula_bit_for_bit(name, extra):
    """``extra > 0`` hands the pass the leading columns of a wider
    ``capacity_k`` block, read in place with its row stride."""
    k, cols = SELECTIONS[name]
    b, x = _system(k, k + extra)
    g, _ = _native.normal_residuals(A, b)(x, np.asarray(cols))
    assert g.shape == (N, len(cols))
    np.testing.assert_array_equal(g, oracle(b, x, cols))


@pytest.mark.parametrize("name", list(SELECTIONS))
def test_squared_sums_give_numpy_s_norms(name):
    """The pass also returns each column's ``Σ g²``, in row order: at
    two or more columns NumPy's axis-0 sum, bit for bit. The tracker's
    norms from it equal ``column_norms(g)``, the formula it replaced, on
    every selection (a lone column, which NumPy sums pairwise, is summed
    there)."""
    k, cols = SELECTIONS[name]
    b, x = _system(k, k + 3)
    g, sq = _native.normal_residuals(A, b)(x, np.asarray(cols))
    if len(cols) > 1:
        np.testing.assert_array_equal(sq, (g * g).sum(axis=0))
    np.testing.assert_array_equal(_norms(g, sq), column_norms(g))


def test_vector_b_is_a_one_column_block():
    b, x = _system(1, 3)
    g, _ = _native.normal_residuals(A, b[:, 0])(x[:, 0], np.array([0]))
    want = AT.matvec(b[:, 0] - A.matvec(np.ascontiguousarray(x[:, 0])))
    np.testing.assert_array_equal(g[:, 0], want)


def test_zero_b_column():
    b, x = _system(5, 8)
    b[:, 2] = 0.0
    cols = np.arange(5)
    g, _ = _native.normal_residuals(A, b)(x, cols)
    np.testing.assert_array_equal(g, oracle(b, x, cols))
    assert not np.any(_native.normal_residuals(A, b)(np.zeros((N, 5)), cols)[0][:, 2])


def test_columns_outside_the_block_are_refused():
    b, x = _system(3, 3)
    normal = _native.normal_residuals(A, b)
    for bad in ([0, 3], [-1]):
        with pytest.raises(ValueError, match="columns"):
            normal(x, np.asarray(bad))


@pytest.mark.parametrize("x0", ["zero", "warm"])
def test_tracker_starts_on_the_formula(x0):
    b, x = _system(6, 6)
    b[:, 4] = 0.0  # judged on its absolute residual
    start = np.zeros((N, 6)) if x0 == "zero" else np.ascontiguousarray(x)
    tracker = LeastSquaresTracker(A, start, b, 1e-6)
    cols = np.arange(6)
    denom = oracle_norms(b, np.zeros((N, 6)), cols)
    num = oracle_norms(b, start, cols)
    np.testing.assert_array_equal(tracker._denom, np.where(denom > 0, denom, 1.0))
    np.testing.assert_array_equal(tracker.num, num)
    want = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), num)
    np.testing.assert_array_equal(tracker.col, want)
    assert tracker._denom_total == np.linalg.norm(oracle(b, np.zeros((N, 6)), cols))


@pytest.mark.parametrize("retire", [True, False], ids=["retire", "no-retire"])
@pytest.mark.parametrize("k,capacity", [(8, 8), (8, 13), (1, 1)])
def test_tracker_updates_on_the_formula(retire, k, capacity):
    """Across a converging run, each re-measured column's numerator is
    the formula's, bit for bit, read from the request view."""
    rng = np.random.default_rng(7)
    x_ls = np.linalg.lstsq(A.to_dense(), PROB.b, rcond=None)[0]
    b = np.column_stack([PROB.b * (j + 1) for j in range(k)])
    target = np.column_stack([x_ls * (j + 1) for j in range(k)])
    error = rng.standard_normal((N, k))
    tracker = LeastSquaresTracker(A, np.zeros((N, k)), b, 1e-6)
    block = np.zeros((N, capacity))
    for epoch in range(1, 12):
        block[:, :k] = target + error * 10.0 ** -(epoch * (np.arange(k) % 3 + 1))
        x = block[:, :k]
        recheck = tracker.active() if retire else np.arange(k)
        tracker.update(x, epoch, retire)
        np.testing.assert_array_equal(
            tracker.num[recheck], oracle_norms(b, x, recheck)
        )
    assert tracker.converged
    assert len(set(tracker.column_sweeps.tolist())) >= min(k, 3)

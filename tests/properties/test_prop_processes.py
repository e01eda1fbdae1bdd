"""Property-based tests: real-process runs vs the paper's theory.

For random unit-diagonal SPD systems, the final relative residual after
the epoch scheme must sit below the Theorem 2/3 envelope evaluated with
the coefficient ``ρ = rho_infinity(A)`` and the *measured* delay bound
``tau_observed`` from the run's own write-log.

The bound chain: Theorem 2(a)/3(a) per synchronized epoch gives
``E_final ≤ (1 − ν_τ(β)/2κ)^epochs · E_0`` in the squared A-norm, and
``λ_min‖e‖² ≤ ‖e‖²_A`` / ``‖r‖² ≤ λ_max‖e‖²_A`` convert it to residuals
at the price of one condition-number factor. The theorem bounds an
*expectation*, so a Markov slack factor is applied; when the measured τ
is so large that ``ν_τ ≤ 0`` (heavy oversubscription) the envelope is
vacuous — clamped at 1, i.e. "no worse than where it started", which a
convergent run always beats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.core.theory import nu_tau, rho_infinity, theorem2_epoch_bound
from repro.execution import AsyRK, ProcessAsyRGS
from repro.rng import DirectionStream
from repro.workloads import random_unit_diagonal_spd

from ..conftest import needs_native

pytestmark = pytest.mark.multiprocess

# Markov: P(X > 100·E[X]) < 1%. Applied in the squared-A-norm domain.
SLACK = 100.0


def relative_residual(A, x, b):
    return float(np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b))


class TestEpochSchemeBound:
    @given(seed=st.integers(0, 6))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_residual_below_rho_envelope(self, seed):
        A = random_unit_diagonal_spd(
            24, nnz_per_row=3, offdiag_scale=0.5, seed=seed
        )
        n = A.shape[0]
        x_star = DirectionStream(n, seed=seed + 100).directions(0, n).astype(
            np.float64
        ) / n - 0.5
        b = A.matvec(x_star)
        sweeps, sync_every = 40, 2
        res = ProcessAsyRGS(
            A, b, nproc=2, directions=DirectionStream(n, seed=seed)
        ).solve(tol=0.0, max_sweeps=sweeps, sync_every_sweeps=sync_every)
        assert res.iterations == sweeps * n

        rho = rho_infinity(A)
        tau = res.tau_observed.max
        eigs = np.linalg.eigvalsh(A.to_dense())
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        assert lam_min > 0  # the generator promises SPD

        epochs = res.sync_points
        envelope = float(
            theorem2_epoch_bound(epochs, 1.0, rho, tau, lam_min, lam_max)
        )
        if nu_tau(1.0, rho, tau) <= 0:
            # Measured τ violates the hypothesis (single-CPU
            # oversubscription does this): the theorem promises nothing,
            # so the honest envelope is "no growth".
            envelope = 1.0
        envelope = min(envelope, 1.0)

        # ‖r_m‖²/‖r_0‖² ≤ κ · (E_m/E_0) with E in the squared A-norm.
        kappa = lam_max / lam_min
        residual_bound = np.sqrt(kappa * SLACK * envelope)
        final = relative_residual(A, res.x, b)
        initial = relative_residual(A, np.zeros(n), b)
        assert final <= residual_bound * initial

    @given(seed=st.integers(0, 4))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_observed_tau_reported_consistently(self, seed):
        """The write-log must be self-consistent across seeds: counts
        cover every update and the max dominates the retained samples."""
        A = random_unit_diagonal_spd(
            20, nnz_per_row=3, offdiag_scale=0.5, seed=seed
        )
        b = A.matvec(np.linspace(-1, 1, 20))
        res = ProcessAsyRGS(A, b, nproc=2).solve(
            tol=0.0, max_sweeps=10, sync_every_sweeps=5
        )
        stats = res.tau_observed
        assert stats.count == res.iterations
        if stats.samples.size:
            assert stats.samples.max() <= stats.max
            assert stats.samples.min() >= 0


def _blas_dot(vals, xs):
    """``vals · xs`` as the Python loop forms it (NumPy ``@``)."""
    return float(vals @ xs)


def _index_order_dot(vals, xs):
    """``vals · xs`` summed entry by entry in index order, as the native
    kernel sums (compiled with ``-ffp-contract=off``: no fused
    multiply-adds, so each step rounds like this Python float)."""
    total = 0.0
    for a, xv in zip(vals.tolist(), xs.tolist()):
        total += a * xv
    return total


def _asyrgs_reference(A, b, beta, rows, dot):
    """The exact k=1 AsyRGS relaxation over ``rows``, in draw order."""
    diag = A.diagonal()
    x = np.zeros(A.shape[0])
    for r in rows:
        r = int(r)
        s, e = int(A.indptr[r]), int(A.indptr[r + 1])
        gamma = (b[r] - dot(A.data[s:e], x[A.indices[s:e]])) / diag[r]
        x[r] += beta * gamma
    return x


def _asyrk_reference(A, b, beta, rows, dot):
    """The exact k=1 Kaczmarz row projection over ``rows``, in draw order."""
    norms = A.row_squared_sums()
    x = np.zeros(A.shape[1])
    for r in rows:
        r = int(r)
        s, e = int(A.indptr[r]), int(A.indptr[r + 1])
        cols, vals = A.indices[s:e], A.data[s:e]
        gamma = (b[r] - dot(vals, x[cols])) / norms[r]
        x[cols] += (beta * gamma) * vals
    return x


def _serial_case(seed):
    """A consistent square SPD system, the step size and draw count.
    Kaczmarz draws over the same row space AsyRGS does, so the two
    methods' streams align and only the update arithmetic differs."""
    A = random_unit_diagonal_spd(18, nnz_per_row=3, offdiag_scale=0.4, seed=seed)
    n = A.shape[0]
    return A, A.matvec(np.linspace(-1.0, 1.0, n)), 3 * n


def _assert_reuse_replays(solver_cls, A, b, beta, total, seed, x_ref):
    """Two ``run()`` calls on one persistent one-worker pool both equal
    ``x_ref`` bitwise."""
    n = A.shape[0]
    with solver_cls(
        A, b, nproc=1, beta=beta, directions=DirectionStream(n, seed=seed)
    ) as solver:
        first = solver.run(None, total)
        second = solver.run(None, total)
    assert solver.spawn_count == 1  # both calls served by one pool
    assert first.per_worker_iterations == [total]
    assert np.array_equal(first.x, x_ref)
    assert np.array_equal(second.x, x_ref)


class TestSerialEquivalence:
    """A one-worker pool is bit-identical to a serial Python reference.

    At ``nproc=1`` there is no concurrency, so the pool core (draw
    chunking or the native segment, progress ticketing, the active-set
    machinery) must be arithmetically invisible: the iterate after
    ``run()`` has to equal — ``np.array_equal``, not ``allclose`` — a
    plain Python loop consuming the same :class:`DirectionStream` prefix
    with the same float64 update expressions. Run twice on the *same*
    persistent pool: the generation bump rewinds each worker's stream
    position to 0, so pool reuse must replay the exact same trajectory.

    Each method is pinned on both worker paths. The Python loop (forced
    with ``_native.forced(False)``) forms the row dot with NumPy's
    ``@``, so its reference does too; the native kernel sums in index
    order, so its twin's reference does.
    """

    @given(seed=st.integers(0, 5))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_asyrgs_bit_identical_to_serial_reference_across_reuse(self, seed):
        A, b, total = _serial_case(seed)
        beta = 0.9
        rows = DirectionStream(A.shape[0], seed=seed).for_processor(0, 1).directions(0, total)
        x_ref = _asyrgs_reference(A, b, beta, rows, _blas_dot)
        with _native.forced(False):
            _assert_reuse_replays(ProcessAsyRGS, A, b, beta, total, seed, x_ref)

    @given(seed=st.integers(0, 5))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_asyrk_bit_identical_to_serial_reference_across_reuse(self, seed):
        A, b, total = _serial_case(seed)
        beta = 0.8
        rows = DirectionStream(A.shape[0], seed=seed).for_processor(0, 1).directions(0, total)
        x_ref = _asyrk_reference(A, b, beta, rows, _blas_dot)
        with _native.forced(False):
            _assert_reuse_replays(AsyRK, A, b, beta, total, seed, x_ref)

    @needs_native
    @given(seed=st.integers(0, 5))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_native_asyrgs_bit_identical_to_index_order_reference(self, seed):
        A, b, total = _serial_case(seed)
        beta = 0.9
        rows = DirectionStream(A.shape[0], seed=seed).for_processor(0, 1).directions(0, total)
        x_ref = _asyrgs_reference(A, b, beta, rows, _index_order_dot)
        with _native.forced(True):
            _assert_reuse_replays(ProcessAsyRGS, A, b, beta, total, seed, x_ref)

    @needs_native
    @given(seed=st.integers(0, 5))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_native_asyrk_bit_identical_to_index_order_reference(self, seed):
        A, b, total = _serial_case(seed)
        beta = 0.8
        rows = DirectionStream(A.shape[0], seed=seed).for_processor(0, 1).directions(0, total)
        x_ref = _asyrk_reference(A, b, beta, rows, _index_order_dot)
        with _native.forced(True):
            _assert_reuse_replays(AsyRK, A, b, beta, total, seed, x_ref)

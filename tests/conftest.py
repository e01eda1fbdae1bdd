"""Shared fixtures and oracles for the test suite.

SciPy appears ONLY here and in tests, as a cross-check oracle for the
from-scratch sparse substrate — the library itself never imports it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest


def pytest_addoption(parser):
    """Knobs for the deterministic simulation suite (tests/serve/simtest):
    replay one failing schedule, or scale the exploration sweeps."""
    parser.addoption(
        "--sim-seed",
        type=int,
        default=None,
        help="replay exactly this simulation schedule seed in every "
        "exploration sweep (printed by a failing simtest run)",
    )
    parser.addoption(
        "--sim-count",
        type=int,
        default=None,
        help="override the number of seeds each simulation exploration "
        "sweep runs (CI turns this up; quick local runs turn it down)",
    )

from repro import _native
from repro.execution.pool import THREAD_NAME
from repro.rng import CounterRNG
from repro.sparse import CSRMatrix
from repro.workloads import (
    laplacian_2d,
    random_unit_diagonal_spd,
    social_media_problem,
)


def to_scipy(A: CSRMatrix):
    """Convert a repro CSR matrix to a scipy.sparse.csr_matrix oracle."""
    import scipy.sparse as sp

    return sp.csr_matrix(
        (A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape
    )


#: Skips a test that needs the native kernel where it cannot be built.
needs_native = pytest.mark.skipif(
    not _native.loaded(), reason="the native CSR kernel cannot be built here"
)


def _pool_threads() -> set:
    """The live pool worker threads of this process."""
    return {
        t for t in threading.enumerate()
        if t.name.startswith(THREAD_NAME) and t.is_alive()
    }


#: Seconds a leak check waits for pool worker threads to end (a worker
#: of a failed pool may still be finishing its segment).
LEAK_GRACE_S = 5.0


@pytest.fixture
def no_leaks():
    """Fail the test if a pool worker thread it started is still alive
    after a grace of :data:`LEAK_GRACE_S`."""
    before = _pool_threads()
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while (left := _pool_threads() - before) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not left, f"pool worker threads left behind: {sorted(t.name for t in left)}"


def random_dense(nrows: int, ncols: int, seed: int = 0, density: float = 0.4):
    """Deterministic random dense array with structural zeros."""
    rng = CounterRNG(seed, stream=0x7E57)
    vals = rng.normal(0, nrows * ncols).reshape(nrows, ncols)
    mask = rng.split(1).uniform(0, nrows * ncols).reshape(nrows, ncols) < density
    return np.where(mask, vals, 0.0)


def manufactured_system(A: CSRMatrix, seed: int = 0):
    """``(b, x_star)`` with ``b = A x_star`` for a known random solution."""
    x_star = CounterRNG(seed, stream=0xFAB).normal(0, A.shape[0])
    return A.matvec(x_star), x_star


@pytest.fixture(scope="session")
def laplace_small() -> CSRMatrix:
    """8×8 grid Laplacian (n = 64): well-conditioned SPD."""
    return laplacian_2d(8, 8)


@pytest.fixture(scope="session")
def unitdiag_small() -> CSRMatrix:
    """Unit-diagonal random SPD, n = 60."""
    return random_unit_diagonal_spd(60, nnz_per_row=5, offdiag_scale=0.8, seed=5)


@pytest.fixture(scope="session")
def social_tiny():
    """Tiny social-media Gram problem (n = 80) with a 3-column RHS block."""
    return social_media_problem(
        n_terms=80, n_docs=400, n_labels=3, mean_doc_len=10.0, seed=2
    )

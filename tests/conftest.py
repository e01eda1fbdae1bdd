"""Shared fixtures and oracles for the test suite.

SciPy appears ONLY here and in tests, as a cross-check oracle for the
from-scratch sparse substrate — the library itself never imports it.
"""

from __future__ import annotations

import multiprocessing
import os
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


def _shm_entries() -> set:
    """Names in ``/dev/shm`` (empty where there is no such directory)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _live_children() -> set:
    """PIDs of this process's children that have not exited: read from
    ``/proc`` where it exists (every child, however started, zombies
    left out), else the live ``multiprocessing`` children."""
    task = f"/proc/{os.getpid()}/task"
    if not os.path.isdir(task):
        return {p.pid for p in multiprocessing.active_children()}
    pids = set()
    for tid in os.listdir(task):
        try:
            with open(f"{task}/{tid}/children") as f:
                pids.update(int(pid) for pid in f.read().split())
        except OSError:
            continue
    return {pid for pid in pids if pid_alive(pid)}


def pid_alive(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie (without
    ``/proc``, whether it exists)."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            pass
        return True
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


#: Seconds a leak check waits for segments and processes to go away
#: (a reaper or a resource tracker can lag the test by a moment).
LEAK_GRACE_S = 5.0


@pytest.fixture
def no_leaks():
    """Fail the test if a ``/dev/shm`` entry or a child process it
    created outlives it (after a grace of :data:`LEAK_GRACE_S`)."""
    shm, children = _shm_entries(), _live_children()
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        new_shm = _shm_entries() - shm
        new_children = _live_children() - children
        if not (new_shm or new_children) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not new_shm, f"shared-memory segments left behind: {sorted(new_shm)}"
    assert not new_children, f"child processes left behind: {sorted(new_children)}"


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

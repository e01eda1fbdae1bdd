"""Shared fixtures for the solver-serving suite.

Everything here must terminate on any machine — servers are always
closed by the fixtures, every ``result()`` call carries a timeout, and
the system is small enough that a single worker converges in well under
a second. The suite runs in its own CI slice under a shell-level hard
timeout, so a deadlocked queue fails fast instead of hanging the job.
"""

import numpy as np
import pytest

from repro.rng import DirectionStream
from repro.serve import MatrixRegistry
from repro.workloads import random_unit_diagonal_spd

from ..conftest import manufactured_system

# Generous but bounded: far above any healthy solve on these sizes,
# far below the CI hard timeout.
WAIT = 120.0


def one_matrix(A, **options) -> MatrixRegistry:
    """A registry serving ``A`` alone, registered as ``"default"``: the
    gateway ``repro serve --problem`` builds. ``options`` are the
    registry's (server defaults, ``solver_factory`` among them)."""
    registry = MatrixRegistry(**options)
    registry.register("default", A)
    return registry


@pytest.fixture(scope="session")
def system():
    A = random_unit_diagonal_spd(30, nnz_per_row=4, offdiag_scale=0.6, seed=8)
    b, x_star = manufactured_system(A, seed=9)
    return A, b, x_star


@pytest.fixture(scope="session")
def block_system(system):
    """The session system extended to a 6-column RHS block."""
    A, b, _ = system
    n = A.shape[0]
    rng = DirectionStream(n, seed=44)
    X_star = np.column_stack(
        [rng.directions(j * n, n).astype(np.float64) / n - 0.5 for j in range(6)]
    )
    return A, A.matmat(X_star), X_star

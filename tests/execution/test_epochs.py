"""The epoch driver's one argument check, on every entry point.

Every solve to a tolerance validates its epoch arguments through
:func:`~repro.execution.epochs.check_epoch_args`, before any pool is
touched: the same rejections, with the same wording, on the simulated
engines, the process pools, the sharded coordinator and
:func:`owner_computes_solve`.
"""

import numpy as np
import pytest

from repro.core import AsyRGS
from repro.exceptions import ModelError
from repro.execution import AsyRK, ProcessAsyRGS, ShardedSolver
from repro.extensions import owner_computes_solve
from repro.workloads import laplacian_2d, random_least_squares

A = laplacian_2d(4)
B = np.ones(A.shape[0])
LSQ = random_least_squares(30, 10, nnz_per_row=3, seed=1)

SOLVES = {
    "phased": lambda **kw: AsyRGS(A, B).solve(1e-6, **kw),
    "general": lambda **kw: AsyRGS(A, B, engine="general").solve(1e-6, **kw),
    "processes": lambda **kw: ProcessAsyRGS(A, B, nproc=1).solve(1e-6, **kw),
    "asyrk": lambda **kw: AsyRK(LSQ.A, LSQ.b, nproc=1).solve(1e-6, **kw),
    "sharded": lambda **kw: ShardedSolver(A, B, shards=2).solve(1e-6, **kw),
    "owner-computes": lambda **kw: owner_computes_solve(
        A, B, nproc=2, tol=1e-6, **kw
    ),
}


@pytest.mark.parametrize("engine", sorted(SOLVES))
def test_negative_max_sweeps_is_rejected(engine):
    with pytest.raises(ModelError, match="max_sweeps must be non-negative"):
        SOLVES[engine](max_sweeps=-3)


@pytest.mark.parametrize("engine", sorted(set(SOLVES) - {"owner-computes"}))
def test_zero_sync_cadence_is_rejected(engine):
    with pytest.raises(ModelError, match="sync_every_sweeps must be at least 1"):
        SOLVES[engine](max_sweeps=5, sync_every_sweeps=0)


@pytest.mark.parametrize("engine", ["phased", "general", "processes", "asyrk"])
def test_retire_with_custom_metric_has_one_wording(engine):
    with pytest.raises(ModelError) as err:
        SOLVES[engine](max_sweeps=5, retire=True, metric=np.linalg.norm)
    assert str(err.value) == (
        "column retirement tracks the built-in per-column residual; "
        "a custom metric cannot be decomposed per column"
    )

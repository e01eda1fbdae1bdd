"""The epoch driver's one argument check and its stopping rule, on
every entry point.

Every solve to a tolerance validates its epoch arguments through
:func:`~repro.execution.epochs.check_epoch_args`, before any pool is
touched: the same rejections, with the same wording, on the simulated
engines, the process pools, the sharded coordinator and
:func:`owner_computes_solve`. Every solve also ends once each column is
converged or has a non-finite residual.
"""

import numpy as np
import pytest

from repro.core import AsyRGS
from repro.core.residuals import relative_residual
from repro.exceptions import ModelError
from repro.execution import AsyRK, ProcessAsyRGS, ShardedSolver, make_solver
from repro.extensions import owner_computes_solve
from repro.sparse import CSRMatrix
from repro.workloads import (
    laplacian_2d,
    random_least_squares,
    random_unit_diagonal_spd,
)

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


#: Symmetric with eigenvalues 3 and -1: Gauss-Seidel diverges on it, and
#: its iterate overflows near sweep 1000 (the scaled residual norm stays
#: finite until then).
DIVERGENT = CSRMatrix.from_dense(np.kron(np.eye(2), [[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize(
    "shards",
    [pytest.param(1, marks=pytest.mark.pool),
     pytest.param(2, marks=pytest.mark.shard)],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_solve_stops_at_a_non_finite_residual(shards):
    res = make_solver(
        "asyrgs", DIVERGENT, np.ones(4), shards=shards, nproc=1
    ).solve(tol=1e-6, max_sweeps=20_000)
    assert not res.converged
    assert not np.isfinite(res.column_residuals[0])
    assert res.column_sweeps[0] == -1
    assert res.sweeps_done < 2_000


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_simulated_solve_stops_on_both_trackers():
    b = np.ones(4)
    for metric in (None, lambda x: relative_residual(DIVERGENT, x, b)):
        res = AsyRGS(DIVERGENT, b).solve(1e-6, 20_000, metric=metric)
        assert not res.converged
        assert res.sweeps < 2_000


@pytest.mark.pool
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_column_leaves_its_neighbour_untouched():
    """A column whose ``b`` overflows the residual norm is out from the
    start; the finite column is solved bit for bit as if alone."""
    A = random_unit_diagonal_spd(40, nnz_per_row=4, offdiag_scale=0.6, seed=1)
    b = np.linspace(1.0, 2.0, 40)
    pair = make_solver(
        "asyrgs", A, np.column_stack([b, np.full(40, 1e308)]), nproc=1
    ).solve(tol=1e-8, max_sweeps=3_000)
    alone = make_solver("asyrgs", A, b, nproc=1).solve(
        tol=1e-8, max_sweeps=3_000
    )
    assert alone.converged
    np.testing.assert_array_equal(pair.x[:, 0], alone.x)
    assert pair.converged_columns.tolist() == [True, False]
    assert pair.column_sweeps.tolist() == [alone.column_sweeps[0], -1]
    assert pair.sweeps_done == alone.sweeps_done

"""The pool's one row kernel against a slow per-draw reference.

``RowUpdate.make_updater`` is called directly on plain NumPy arrays laid
out like the shared segment (no processes), for every column selection
the kernel distinguishes × both scatter rules × a zero and a nonzero row
offset, unlocked and through a ``threading.Lock`` stripe list.

The reference loops over the draws one at a time and forms γ with the
same float64 expressions as the kernel, so agreement is ``array_equal``
— with one exception. On a masked selection wide enough for the
whole-row gather (``2·nact ≥ k``), plain AsyRGS (coordinate scatter, no
offset) must keep its exact bits, so its reference takes the whole-row
gather too; for the projection scatter and for a row offset the
reference gathers only the active columns, which differs from the
kernel's whole-row gather in rounding only (``rtol=1e-13``).
"""

import threading

import numpy as np
import pytest

from repro.execution import AsyRK, ProcessAsyRGS
from repro.execution.pool import RowUpdate
from repro.execution.sharded import _ShardPool
from repro.sparse import CSRMatrix

N_ROWS, X_ROWS, NNZ_PER_ROW, DRAWS, BETA = 12, 20, 4, 90, 0.9

#: name → (k, active columns). Every selection ``make_updater`` picks.
SELECTIONS = {
    "k1": (1, [0]),
    "lone": (8, [5]),
    "prefix": (8, [0, 1, 2, 3, 4]),
    "full": (8, list(range(8))),
    "wide-masked": (8, [0, 2, 3, 5, 6, 7]),
    "narrow-masked": (8, [1, 6]),
}


def _system(k: int, seed: int = 0):
    """An ``N_ROWS × X_ROWS`` CSR triplet with sorted, distinct columns
    per row, plus ``b``, positive per-row normalizers and a nonzero
    starting iterate — the arrays a pool segment holds."""
    rng = np.random.default_rng(seed)
    cols = [
        np.sort(rng.choice(X_ROWS, size=NNZ_PER_ROW, replace=False))
        for _ in range(N_ROWS)
    ]
    indices = np.concatenate(cols).astype(np.int64)
    indptr = np.arange(N_ROWS + 1, dtype=np.int64) * NNZ_PER_ROW
    data = rng.standard_normal(indices.size)
    return {
        "indptr": indptr,
        "indices": indices,
        "data": data,
        "x": rng.standard_normal((X_ROWS, k)),
        "b": rng.standard_normal((N_ROWS, k)),
        "norms": rng.uniform(0.5, 2.0, N_ROWS),
    }


def _reference(v, act, rows, *, k, offset, project):
    """Per-draw row-action steps, one obvious expression per selection."""
    indptr, indices, data = v["indptr"], v["indices"], v["data"]
    x, b, norms = v["x"].copy(), v["b"], v["norms"]
    act = np.asarray(act)
    lone = k == 1 or act.size == 1
    prefix = np.array_equal(act, np.arange(act.size))
    touched = 0
    for r in rows:
        s, e = int(indptr[r]), int(indptr[r + 1])
        cols, vals = indices[s:e], data[s:e]
        touched += e - s
        if lone:
            j = int(act[0])
            gamma = (b[r, j] - vals @ x[cols, j]) / norms[r]
            if project:
                x[cols, j] += (BETA * gamma) * vals
            else:
                x[offset + r, j] += BETA * gamma
            continue
        if 2 * act.size >= k and not (prefix or project or offset):
            dots = (vals @ x[cols, :])[act]  # the whole row, then select
        else:
            dots = vals @ x[np.ix_(cols, act)]  # the active columns only
        gamma = (b[r, act] - dots) / norms[r]
        if project:
            x[np.ix_(cols, act)] += (BETA * vals)[:, None] * gamma
        else:
            x[offset + r, act] += BETA * gamma
    return x, touched


def _kernel(v, act, rows, *, k, offset, project, locks=()):
    v = dict(v, x=v["x"].copy())
    update = RowUpdate(offset=offset, project=project).make_updater(
        v,
        k=k,
        act=np.asarray(act, dtype=np.int64),
        locks=list(locks),
        nlocks=len(locks),
        beta=BETA,
    )
    touched = sum(update(int(r)) for r in rows)
    return v["x"], touched


def _rows(seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, N_ROWS, DRAWS)


def _assert_matches(got, ref, *, name, offset, project):
    if name == "wide-masked" and (project or offset):
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
    else:
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("project", [False, True], ids=["coordinate", "projection"])
@pytest.mark.parametrize("name", list(SELECTIONS))
class TestAgainstReference:
    def test_unlocked(self, name, project, offset):
        k, act = SELECTIONS[name]
        v, rows = _system(k), _rows()
        ref, ref_touched = _reference(v, act, rows, k=k, offset=offset, project=project)
        got, touched = _kernel(v, act, rows, k=k, offset=offset, project=project)
        _assert_matches(got, ref, name=name, offset=offset, project=project)
        assert touched == ref_touched == DRAWS * NNZ_PER_ROW

    def test_lock_stripes_give_the_same_bits(self, name, project, offset):
        k, act = SELECTIONS[name]
        v, rows = _system(k), _rows()
        bare, _ = _kernel(v, act, rows, k=k, offset=offset, project=project)
        locks = [threading.Lock() for _ in range(5)]
        locked, _ = _kernel(
            v, act, rows, k=k, offset=offset, project=project, locks=locks
        )
        assert np.array_equal(locked, bare)
        assert not any(lock.locked() for lock in locks)


class _RecordingLock:
    """A lock stripe that records each acquisition in a shared log."""

    def __init__(self, index: int, log: list):
        self.index, self.log = index, log
        self._lock = threading.Lock()

    def __enter__(self):
        self._lock.acquire()
        self.log.append(self.index)

    def __exit__(self, *exc):
        self._lock.release()


@pytest.mark.parametrize("offset", [0, 3])
def test_atomic_write_takes_the_stripe_of_the_written_row(offset):
    """Atomic mode locks stripe ``(offset + r) mod nlocks`` — the global
    row the coordinate scatter writes, not the local draw."""
    k, act = SELECTIONS["prefix"]
    v, rows = _system(k), _rows()
    log: list[int] = []
    locks = [_RecordingLock(i, log) for i in range(5)]
    _kernel(v, act, rows, k=k, offset=offset, project=False, locks=locks)
    assert log == [(offset + int(r)) % 5 for r in rows]


def test_no_active_column_writes_nothing():
    v, rows = _system(8), _rows()
    for project in (False, True):
        got, _ = _kernel(v, [], rows, k=8, offset=0, project=project)
        assert np.array_equal(got, v["x"])


def test_pool_methods_pick_their_scatter_rule_and_offset():
    assert not ProcessAsyRGS.update_method.project
    assert ProcessAsyRGS.update_method.offset == 0
    assert AsyRK.update_method.project
    assert AsyRK.update_method.offset == 0
    A_s = CSRMatrix(
        (2, 6),
        np.array([0, 1, 2], dtype=np.int64),
        np.array([4, 5], dtype=np.int64),
        np.ones(2),
    )
    shard = _ShardPool(
        1, A_s, np.ones(2), np.ones(2), offset=4, n_rows=2, x_rows=6,
        b_rows=2, nproc=1,
    )
    assert shard.update_method.offset == 4
    assert not shard.update_method.project

"""Golden pin of the epoch scheme on every engine.

Each epoch-scheme solve — AsyRGS on the phased and general simulator
engines, :class:`~repro.execution.ProcessAsyRGS` and
:class:`~repro.execution.AsyRK` at ``nproc=1`` (one worker, so every
count and every bit repeats), and :func:`owner_computes_solve` — is run
on fixed small systems in five regimes: retirement on, retirement off,
a custom metric, a start that is already converged, and
``max_sweeps=0``. The whole epoch record is compared with
``epoch_golden.json``: the per-epoch checkpoints and history (bitwise),
the per-column series, ``column_sweeps``, ``converged_columns``, the
sweep, sync-point, update, column-update, lost-write and row-nnz counts,
and the final iterate.

The CSR product behind every residual check has two paths that round
differently (see ``repro._native``), so each path has its own file,
both pinned bitwise: ``epoch_golden_native.json`` holds every run on
the native kernels, ``epoch_golden.json`` the runs on the NumPy
product. The pools have no NumPy path (their workers run the native
segment kernel only, and refuse to start without it), so their runs
are pinned in the native file alone. The right-hand sides ``B = A·X*``
are computed on the path under test. Where both files hold a run they
must agree exactly on every count and mask, and to ``rtol=1e-12`` on
every float (``atol=1e-12`` on these unit-scale quantities).

A refactor of how the epoch loop is written must not move any of it.
Regenerate the files only for a deliberate change of the numbers::

    PYTHONPATH=src python -m tests.execution.test_epoch_golden
"""

import json
import pathlib

import numpy as np
import pytest

from repro import _native
from repro.core import AsyRGS
from repro.execution import AsyRK, ProcessAsyRGS
from repro.extensions import owner_computes_solve
from repro.rng import DirectionStream
from repro.workloads import random_least_squares, random_unit_diagonal_spd

from ..conftest import needs_native

#: The golden file of each product path.
GOLDEN = {
    False: pathlib.Path(__file__).with_name("epoch_golden.json"),
    True: pathlib.Path(__file__).with_name("epoch_golden_native.json"),
}

N = 24
A = random_unit_diagonal_spd(N, nnz_per_row=4, offdiag_scale=0.6, seed=1)
_rng = np.random.default_rng(7)
X_STAR = _rng.standard_normal((N, 3))
X_STAR[:, 2] = 0.0  # a zero column of b is converged from the start
#: Column 1 starts close to its solution, so it retires epochs early.
X0 = np.zeros((N, 3))
X0[:, 1] = X_STAR[:, 1] + 1e-4 * _rng.standard_normal(N)

LSQ = random_least_squares(60, 20, nnz_per_row=4, noise_scale=0.0, seed=3)
LSQ_X = np.random.default_rng(11).standard_normal((20, 3))
LSQ_X0 = np.zeros((20, 3))
LSQ_X0[:, 1] = LSQ_X[:, 1] + 1e-4


def _error_metric(x_star):
    return lambda x: float(np.linalg.norm(x - x_star) / np.linalg.norm(x_star))


#: ``(tol, max_sweeps, keyword arguments)`` per regime; ``x0``/``b`` are
#: filled in per engine.
CASES = {
    "retire": (1e-6, 80, {"sync_every_sweeps": 2}),
    "no_retire": (1e-6, 80, {"retire": False}),
    "metric": (1e-5, 80, {"metric": "error"}),
    "converged_start": (2.0, 80, {}),
    "max_sweeps_0": (1e-6, 0, {}),
    "vector": (1e-6, 80, {"vector": True}),
}


def _plain(value):
    """``value`` as JSON-ready Python scalars and lists."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    raise TypeError(type(value))


def _square_kwargs(case, x_star):
    tol, max_sweeps, kw = CASES[case]
    kw = dict(kw)
    vector = kw.pop("vector", False)
    if kw.get("metric") == "error":
        kw["metric"] = _error_metric(x_star[:, 0] if vector else x_star)
    x0 = None if vector else X0
    B = A.matmat(X_STAR)
    return tol, max_sweeps, x0, kw, (B[:, 0].copy() if vector else B)


def _asyrgs_record(res):
    h = res.history
    return {
        "history_iterations": h.iterations,
        "history_values": h.values,
        "history_columns": h.column_values or None,
        "column_sweeps": res.column_sweeps,
        "converged_columns": res.converged_columns,
        "column_residuals": res.column_residuals,
        "converged": res.converged,
        "sweeps": res.sweeps,
        "sync_points": res.sync_points,
        "iterations": res.iterations,
        "column_updates": res.column_updates,
        "lost_writes": res.lost_writes,
        "total_row_nnz": res.total_row_nnz,
        "x": res.x,
    }


def _pool_record(res):
    return {
        "checkpoints": res.checkpoints,
        "column_checkpoints": res.column_checkpoints,
        "column_sweeps": res.column_sweeps,
        "converged_columns": res.converged_columns,
        "column_residuals": res.column_residuals,
        "converged": res.converged,
        "sweeps_done": res.sweeps_done,
        "sync_points": res.sync_points,
        "iterations": res.iterations,
        "column_updates": res.column_updates,
        "total_row_nnz": res.total_row_nnz,
        "x": res.x,
    }


def _run_asyrgs(engine, case):
    tol, max_sweeps, x0, kw, b = _square_kwargs(case, X_STAR)
    # Non-atomic phased rounds race overwrites: lost writes to pin.
    solver = AsyRGS(A, b, engine=engine, nproc=4, atomic=engine != "phased")
    return _asyrgs_record(solver.solve(tol, max_sweeps, x0, **kw))


def _run_process_asyrgs(case):
    tol, max_sweeps, x0, kw, b = _square_kwargs(case, X_STAR)
    solver = ProcessAsyRGS(A, b, nproc=1)
    return _pool_record(solver.solve(tol, max_sweeps, x0, **kw))


def _run_asyrk(case):
    tol, max_sweeps, kw = CASES[case]
    kw = dict(kw)
    vector = kw.pop("vector", False)
    x_star = LSQ_X[:, 0] if vector else LSQ_X
    if kw.get("metric") == "error":
        kw["metric"] = _error_metric(x_star)
    lsq_b = LSQ.A.matmat(LSQ_X)
    b = lsq_b[:, 0].copy() if vector else lsq_b
    solver = AsyRK(
        LSQ.A, b, nproc=1, beta=0.8,
        directions=DirectionStream(LSQ.A.shape[0], seed=0),
    )
    x0 = None if vector else LSQ_X0
    return _pool_record(solver.solve(tol, max_sweeps, x0, **kw))


OWNER_CASES = {
    "run": (1e-6, 80),
    "converged_start": (2.0, 80),
    "max_sweeps_0": (1e-6, 0),
}


def _run_owner(case):
    tol, max_sweeps = OWNER_CASES[case]
    res = owner_computes_solve(
        A, A.matmat(X_STAR)[:, 0].copy(), nproc=4, tol=tol,
        max_sweeps=max_sweeps, seed=5,
    )
    return {
        "history_iterations": res.history.iterations,
        "history_values": res.history.values,
        "converged": res.converged,
        "sweeps": res.sweeps,
        "x": res.x,
    }


def _runs():
    """``(id, runner, marks)`` for every pinned solve; a pool run is
    marked ``pool``."""
    pool = (pytest.mark.pool,)
    out = []
    for case in CASES:
        for engine in ("phased", "general"):
            out.append((f"asyrgs-{engine}-{case}", lambda e=engine, c=case: _run_asyrgs(e, c), ()))
        out.append((f"process-asyrgs-{case}", lambda c=case: _run_process_asyrgs(c), pool))
        out.append((f"asyrk-{case}", lambda c=case: _run_asyrk(c), pool))
    for case in OWNER_CASES:
        out.append((f"owner-computes-{case}", lambda c=case: _run_owner(c), ()))
    return out


RUNS = _runs()
#: The runs without a pool: the ones the NumPy product can serve.
NUMPY_RUNS = [(i, r, m) for i, r, m in RUNS if not m]
PARAMS = [pytest.param(i, r, id=i, marks=m) for i, r, m in RUNS]
NUMPY_PARAMS = [pytest.param(i, r, id=i) for i, r, _ in NUMPY_RUNS]


def _load(native):
    return json.loads(GOLDEN[native].read_text())


@pytest.fixture(scope="module")
def golden():
    return _load(False)


@pytest.fixture(scope="module")
def golden_native():
    return _load(True)


@pytest.mark.parametrize("run_id,runner", NUMPY_PARAMS)
def test_epoch_record_matches_golden(golden, run_id, runner):
    # Exact equality: JSON floats round-trip bit for bit.
    with _native.forced(False):
        assert _plain(runner()) == golden[run_id]


@needs_native
@pytest.mark.parametrize("run_id,runner", PARAMS)
def test_epoch_record_matches_native_golden(golden_native, run_id, runner):
    with _native.forced(True):
        assert _plain(runner()) == golden_native[run_id]


def test_golden_covers_every_run(golden, golden_native):
    assert sorted(golden) == sorted(i for i, _, _ in NUMPY_RUNS)
    assert sorted(golden_native) == sorted(i for i, _, _ in RUNS)


def _assert_agree(numpy_side, native_side, where):
    """Counts, flags and structure equal; floats within ``rtol=1e-12``.

    Every float in a record is of unit scale (an iterate entry, or a
    residual or error relative to ``‖b‖`` or ``‖x*‖``), so ``1e-12`` is
    also the absolute floor: a relative residual near ``1e-12`` is a
    cancellation whose rounding is ``~1e-16`` of that scale, which no
    relative bar on the residual itself survives.
    """
    if isinstance(numpy_side, float) or isinstance(native_side, float):
        assert isinstance(numpy_side, float) and isinstance(native_side, float), where
        assert np.isclose(native_side, numpy_side, rtol=1e-12, atol=1e-12), where
    elif isinstance(numpy_side, dict):
        assert numpy_side.keys() == native_side.keys(), where
        for key in numpy_side:
            _assert_agree(numpy_side[key], native_side[key], f"{where}.{key}")
    elif isinstance(numpy_side, list):
        assert len(numpy_side) == len(native_side), where
        for i, (a, b) in enumerate(zip(numpy_side, native_side)):
            _assert_agree(a, b, f"{where}[{i}]")
    else:
        assert type(numpy_side) is type(native_side), where
        assert numpy_side == native_side, where


def test_paths_agree_on_counts_and_to_rtol_on_floats(golden, golden_native):
    for run_id in golden:
        _assert_agree(golden[run_id], golden_native[run_id], run_id)


if __name__ == "__main__":
    for native, path in GOLDEN.items():
        if native and not _native.loaded():
            print(f"native kernel unavailable; {path} left as it is")
            continue
        with _native.forced(native):
            records = {
                run_id: _plain(runner())
                for run_id, runner, _ in (RUNS if native else NUMPY_RUNS)
            }
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} records to {path}")

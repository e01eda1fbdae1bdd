"""The native epoch-boundary residual check against its NumPy oracle.

:class:`~repro.core.residuals.ColumnTracker` measures each column's
residual with ``repro._native.column_residuals`` where the module
loads, and with :func:`~repro.core.residuals.block_residual_state`
otherwise. The two sum in different orders (the native pass in row
order; NumPy may sum a column pairwise), so their floats agree to
``rtol=1e-12``, and every decision taken on them (the masks, the sweeps
at which columns converge, the columns retired) is the same.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro import _native
from repro.core.residuals import ColumnTracker, block_residual_state
from repro.workloads import diagonally_dominant

from ..conftest import needs_native

A = diagonally_dominant(300, nnz_per_row=6, margin=0.2, seed=31)
N = A.shape[0]


def _system(k: int, capacity: int, seed: int = 0):
    """A right-hand side of ``k`` columns and an iterate that is the
    request view of a ``(N, capacity)`` block, as a pool hands it over."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((N, k))
    block = rng.standard_normal((N, capacity))
    return b, block[:, :k]


#: ``(k, listed columns)``: prefix and non-prefix sets, a lone column,
#: one column in all, and the 51-label width.
SELECTIONS = {
    "k8-all": (8, list(range(8))),
    "k8-prefix": (8, [0, 1, 2, 3, 4]),
    "k8-gaps": (8, [1, 3, 4, 6, 7]),
    "k8-lone": (8, [5]),
    "k1": (1, [0]),
    "k51-all": (51, list(range(51))),
    "k51-gaps": (51, list(range(0, 51, 3))),
}


@needs_native
@pytest.mark.parametrize("extra", [0, 5], ids=["contiguous", "strided"])
@pytest.mark.parametrize("name", list(SELECTIONS))
def test_sums_match_the_oracle(name, extra):
    """``extra > 0`` hands the routine a strided view of a wider block,
    read in place."""
    k, cols = SELECTIONS[name]
    b, x = _system(k, k + extra)
    residuals = _native.column_residuals(A, b)
    got = np.sqrt(residuals(x, np.asarray(cols)))
    _, want, _ = block_residual_state(
        A, np.ascontiguousarray(x[:, cols]), np.ascontiguousarray(b[:, cols])
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@needs_native
def test_vectors_are_one_column_blocks():
    b, x = _system(1, 4)
    got = _native.column_residuals(A, b[:, 0])(x[:, 0], np.array([0]))
    want = _native.column_residuals(A, b)(x, np.array([0]))
    np.testing.assert_array_equal(got, want)


@needs_native
def test_columns_outside_the_block_are_refused():
    b, x = _system(3, 3)
    residuals = _native.column_residuals(A, b)
    for bad in ([0, 3], [-1]):
        with pytest.raises(ValueError, match="columns"):
            residuals(x, np.asarray(bad))


def _epochs(k: int):
    """Iterates of a converging solve: column ``j`` gains one digit
    every ``j % 3 + 1`` epochs, so columns converge at different
    epochs. Column 2 of ``b`` is zero (judged on its absolute
    residual)."""
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal((N, k))
    x_star[:, 2] = 0.0
    error = rng.standard_normal((N, k))
    steps = [x_star + error * 10.0 ** -(epoch / (np.arange(k) % 3 + 1))
             for epoch in range(1, 16)]
    return A.matmat(x_star), steps


def _track(native: bool, retire: bool, k: int, capacity: int):
    """The tracker's state after each epoch, measured on the request
    view of a ``(N, capacity)`` block."""
    b, steps = _epochs(k)
    x0 = np.zeros((N, k))
    with _native.forced(native):
        tracker = ColumnTracker(A, x0, b, 1e-6)
        assert (tracker._residuals is not None) == native
    block = np.zeros((N, capacity))
    record = [(tracker.col.copy(), tracker.num.copy(), tracker.done_mask.copy(), [])]
    for sweeps, x in enumerate(steps, start=1):
        block[:, :k] = x
        retired = tracker.update(block[:, :k], sweeps, retire)
        record.append((tracker.col.copy(), tracker.num.copy(),
                       tracker.done_mask.copy(), retired.tolist()))
    return record, tracker


@needs_native
@pytest.mark.parametrize("retire", [True, False], ids=["retire", "no-retire"])
@pytest.mark.parametrize("k,capacity", [(8, 8), (8, 13), (51, 51)])
def test_tracker_decides_as_the_oracle(retire, k, capacity):
    native, t_native = _track(True, retire, k, capacity)
    oracle, t_oracle = _track(False, retire, k, capacity)
    assert t_native.converged == t_oracle.converged
    np.testing.assert_array_equal(t_native.column_sweeps, t_oracle.column_sweeps)
    assert (t_native.column_sweeps > 0).sum() >= 3  # columns converge apart
    for (col, num, mask, retired), (col_o, num_o, mask_o, retired_o) in zip(native, oracle):
        np.testing.assert_allclose(col, col_o, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(num, num_o, rtol=1e-12, atol=1e-300)
        np.testing.assert_array_equal(mask, mask_o)
        assert retired == retired_o
    assert t_native.value == pytest.approx(t_oracle.value, rel=1e-12)


_NO_COMPILER = textwrap.dedent(
    """
    import json
    import numpy as np
    from repro import _native
    from repro.core.residuals import ColumnTracker, block_residual_state
    from repro.workloads import diagonally_dominant

    A = diagonally_dominant(60, nnz_per_row=5, margin=0.2, seed=4)
    rng = np.random.default_rng(0)
    b, x = rng.standard_normal((60, 3)), rng.standard_normal((60, 3))
    tracker = ColumnTracker(A, np.zeros((60, 3)), b, 1e-6)
    tracker.update(x, 1, True)
    col, num, _ = block_residual_state(A, x, b)
    print(json.dumps({
        "bound": _native.column_residuals(A, b) is not None,
        "loaded": _native.loaded(),
        "col_close": bool(np.allclose(tracker.col, col, rtol=1e-14, atol=0)),
        "num_close": bool(np.allclose(tracker.num, num, rtol=1e-14, atol=0)),
    }))
    """
)


def test_without_a_compiler_the_tracker_runs_on_numpy(tmp_path):
    """``CC=false`` and an empty cache: the build fails, and the tracker
    measures with the oracle itself (to the last bits: NumPy's sums can
    round differently on a copy at another alignment)."""
    src = str(pathlib.Path(repro.__file__).parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "CC": "false"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_COMPILER], env=env, text=True,
        capture_output=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {
        "bound": False, "loaded": False, "col_close": True, "num_close": True,
    }

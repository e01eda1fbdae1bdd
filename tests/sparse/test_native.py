"""The native CSR product (``repro._native``) against the NumPy oracle.

``CSRMatrix.matmat``/``matvec`` run on the C kernel when the data is
float64 and the operand casts to it safely; otherwise, and whenever
the switch ``repro._native.enabled`` is off or the kernel cannot be
built, on the NumPy gather-multiply-``reduceat`` path. The two sum in
different orders, so they are compared to ``rtol=1e-12`` of the
absolute-value product ``|A|·|X|`` (the natural scale of a summation
error), not bitwise. What is pinned bitwise is the kernel's column
independence: the product of any column subset is that subset of the
full product.

On a machine without a compiler every comparison still runs, with both
sides on NumPy; the tests that need the kernel itself are skipped.
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
from repro.bench import KERNEL_MATRICES
from repro.sparse import CSRMatrix

from ..conftest import needs_native, random_dense

WIDTHS = (0, 1, 8, 51)
RTOL = 1e-12


@pytest.fixture(scope="module", params=list(KERNEL_MATRICES))
def matrix(request):
    return KERNEL_MATRICES[request.param]()


def _oracle(A, X):
    with _native.forced(False):
        return A.matvec(X) if X.ndim == 1 else A.matmat(X)


def _assert_close(A, X, got):
    """``got`` equals the NumPy product to ``RTOL`` of ``|A|·|X|``."""
    want = _oracle(A, X)
    assert got.dtype == want.dtype and got.shape == want.shape
    absA = CSRMatrix(A.shape, A.indptr, A.indices, np.abs(A.data),
                     check=False, sorted_indices=True)
    scale = _oracle(absA, np.abs(X).astype(np.float64))
    assert np.all(np.abs(got - want) <= RTOL * scale)


def _operand(A, k, seed=0):
    return np.random.default_rng(seed).standard_normal((A.shape[1], k))


@pytest.mark.parametrize("k", WIDTHS)
def test_matmat_matches_oracle(matrix, k):
    X = _operand(matrix, k)
    _assert_close(matrix, X, matrix.matmat(X))


def test_matvec_matches_oracle(matrix):
    x = _operand(matrix, 1)[:, 0]
    got = matrix.matvec(x)
    assert got.shape == (matrix.shape[0],)
    _assert_close(matrix, x, got)


@needs_native
def test_float_products_take_the_native_path(matrix, monkeypatch):
    def refuse(self, products):
        raise AssertionError("a float64 product took the NumPy path")

    monkeypatch.setattr(CSRMatrix, "_segment_sums", refuse)
    X = _operand(matrix, 8)
    matrix.matmat(X)
    matrix.matvec(X[:, 0])
    matrix.matmat(X.astype(np.int64))


@needs_native
def test_column_subsets_are_bitwise_columns_of_the_full_product(matrix):
    X = _operand(matrix, 51, seed=3)
    full = matrix.matmat(X)
    rng = np.random.default_rng(5)
    subsets = [np.array([7]), np.arange(0, 51, 2), np.arange(10, 18)]
    subsets += [np.sort(rng.choice(51, size=s, replace=False)) for s in (3, 20, 50)]
    for cols in subsets:
        assert np.array_equal(matrix.matmat(X[:, cols]), full[:, cols])
    for j in (0, 25, 50):
        assert np.array_equal(matrix.matvec(X[:, j]), full[:, j])


@pytest.fixture(scope="module")
def small():
    return KERNEL_MATRICES["repeat-cache"]()


def test_non_contiguous_operands(small):
    X = _operand(small, 12)
    recheck = np.array([0, 3, 4, 9])
    for operand in (X[:, recheck], X[:, ::3], np.asfortranarray(X), X[::-1]):
        _assert_close(small, operand, small.matmat(operand))
    _assert_close(small, X[:, 5], small.matvec(X[:, 5]))


def test_empty_rows_and_no_entries():
    dense = random_dense(9, 7, seed=4)
    dense[[0, 3, 4, 8]] = 0.0  # leading, adjacent and trailing empty rows
    X = _operand(CSRMatrix.from_dense(dense), 5)
    cases = [
        CSRMatrix.from_dense(dense),
        CSRMatrix.from_dense(np.zeros((6, 7))),  # nnz == 0
        CSRMatrix.from_dense(np.zeros((0, 7))),  # no rows
    ]
    for A in cases:
        for operand in (X, X[:, 0], X[:, :0]):
            got = A.matvec(operand) if operand.ndim == 1 else A.matmat(operand)
            _assert_close(A, operand, got)
    assert np.all(cases[0].matmat(X)[[0, 3, 4, 8]] == 0.0)
    assert not np.any(cases[1].matmat(X))


def test_integer_and_narrow_operands(small):
    ints = np.random.default_rng(2).integers(-5, 6, (small.shape[1], 4))
    for operand in (ints, ints.astype(np.int32), ints.astype(np.float32),
                    ints.astype(bool)):
        got = small.matmat(operand)
        assert got.dtype == np.float64
        _assert_close(small, operand, got)
        _assert_close(small, operand[:, 1], small.matvec(operand[:, 1]))


def test_complex_and_wide_dtypes_stay_on_numpy(small):
    """``np.ascontiguousarray(X, dtype=float64)`` would silently drop an
    imaginary part, so complex operands (and long doubles, which would
    lose precision) must never reach the kernel."""
    X = _operand(small, 3)
    for operand in (X + 1j * X[::-1], X.astype(np.longdouble)):
        got = small.matmat(operand)
        want = _oracle(small, operand)
        assert got.dtype == want.dtype == np.result_type(operand, np.float64)
        assert np.array_equal(got, want)
        assert np.array_equal(small.matvec(operand[:, 0]), _oracle(small, operand[:, 0]))
    cplx = CSRMatrix(small.shape, small.indptr, small.indices,
                     small.data * (1 + 0.5j), check=False, sorted_indices=True)
    got = cplx.matmat(X)
    assert got.dtype == np.complex128
    assert np.array_equal(got, _oracle(cplx, X))


# --- Building and loading, in fresh interpreters ----------------------

_PROBE = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from repro import _native
    from repro.workloads import laplacian_2d

    untouched = _native._module is None
    A = laplacian_2d(6, 5)
    X = np.arange(A.shape[1] * 3, dtype=float).reshape(-1, 3) / 7.0
    print(json.dumps({
        "untouched_at_import": untouched,
        "product": A.matmat(X).tolist(),
        "loaded": _native.loaded(),
        "setuptools": "setuptools" in sys.modules,
    }))
    """
)


def _probe(cache, **env):
    """Start ``_PROBE`` in a fresh interpreter with its own cache dir."""
    src = str(pathlib.Path(repro.__file__).parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", _PROBE], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _result(proc):
    out, err = proc.communicate(timeout=180)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1]), err


def _probe_oracle():
    from repro.workloads import laplacian_2d

    A = laplacian_2d(6, 5)
    X = np.arange(A.shape[1] * 3, dtype=float).reshape(-1, 3) / 7.0
    return A, X


@needs_native
def test_concurrent_first_loads_all_get_the_native_path(tmp_path):
    # Four first loads (more than CI's CPUs) race to build into one
    # empty cache dir.
    procs = [_probe(tmp_path) for _ in range(4)]
    results = [_result(p) for p in procs]
    A, X = _probe_oracle()
    for result, err in results:
        assert result["loaded"], err
        assert result["untouched_at_import"]
        assert not result["setuptools"]
        _assert_close(A, X, np.array(result["product"]))
    built = list((tmp_path / "repro" / "native").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_repro_native_")


def test_failed_build_falls_back_with_one_warning(tmp_path):
    result, err = _result(_probe(tmp_path, CC="false"))
    assert not result["loaded"]
    assert err.count("native kernels unavailable") == 1
    assert "Traceback" not in err
    A, X = _probe_oracle()
    assert np.array_equal(np.array(result["product"]), _oracle(A, X))
    assert list((tmp_path / "repro" / "native").iterdir()) == []


def test_switch_off_never_calls_the_kernel(small):
    with _native.forced(False):
        assert _native.csr_matmat(small.indptr, small.indices, small.data,
                                  _operand(small, 2)) is None

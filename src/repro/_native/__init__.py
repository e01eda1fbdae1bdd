"""Native kernels: one C source, compiled with cffi on first use.

``csr.c`` holds one function, ``csr_matmat``, the CSR × dense block
product behind :meth:`~repro.sparse.CSRMatrix.matmat` and ``matvec``
(the epoch-boundary ``B − A·X`` of every residual check). It sums each
row in index order, built with ``-O2 -ffp-contract=off``.

The first product builds the module in a child interpreter (cffi API
mode), so the calling process never imports setuptools. The shared
object is cached under ``$XDG_CACHE_HOME/repro/native/`` (else
``~/.cache/repro/native/``), named by a hash of the C source and of the
build script that holds the compile flags: a build lands in a temporary
directory beside it and is moved into place with ``os.replace``, so
concurrent first loads never map a half-written file. Nothing is built or mapped at ``import repro``.

Without cffi or a working compiler, or when the build or load fails
for any other reason, one warning is logged and every product stays on
the NumPy path. Tests force the NumPy path by setting :data:`enabled`
to ``False``, or with ``forced(False)`` around a block.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = ["enabled", "forced", "loaded", "csr_matmat"]

#: Module-level switch: ``False`` sends every product to the NumPy path.
enabled = True

_lock = threading.Lock()
#: ``None`` until the first product; then the loaded module, or
#: ``False`` once loading failed.
_module = None


def _library():
    global _module
    with _lock:
        if _module is None:
            from ._loader import load

            _module = load()
    return _module


@contextlib.contextmanager
def forced(native: bool):
    """Set :data:`enabled` to ``native`` inside the block: ``False`` runs
    every product on NumPy, ``True`` on the kernel where it loads."""
    global enabled
    saved, enabled = enabled, native
    try:
        yield
    finally:
        enabled = saved


def loaded() -> bool:
    """Whether the native module is loaded (building it if needed);
    ``False`` when it cannot be, whatever :data:`enabled` says."""
    return bool(_module if _module is not None else _library())


def csr_matmat(indptr, indices, data, X):
    """``A @ X`` for the CSR arrays of ``A`` and a 2-D ``X``, or ``None``
    when the product must run on NumPy: the switch is off, the module
    cannot be loaded, ``data`` is not float64, or ``X`` does not cast to
    float64 under NumPy's "safe" rule (complex, long double, object).
    Integer and narrower float operands are converted first, as the NumPy
    path's ``data * X`` converts them.

    The caller guarantees the CSR invariants that make the pointers safe
    (:class:`~repro.sparse.CSRMatrix` checks them at construction): int64
    ``indptr`` of length ``nrows + 1`` ending at ``len(indices)``, and
    every column index below ``X.shape[0]``. ``from_buffer`` refuses
    arrays that are not contiguous.
    """
    if not enabled or data.dtype != np.float64 or not np.can_cast(X.dtype, np.float64):
        return None
    module = _module if _module is not None else _library()
    if not module:
        return None
    X = np.ascontiguousarray(X, dtype=np.float64)
    nrows, k = indptr.shape[0] - 1, X.shape[1]
    out = np.empty((nrows, k))
    if out.size:
        buf = module.ffi.from_buffer
        module.lib.csr_matmat(
            nrows, k, buf("int64_t[]", indptr), buf("int64_t[]", indices),
            buf("double[]", data), buf("double[]", X), buf("double[]", out),
        )
    return out

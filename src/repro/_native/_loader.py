"""Build and load the native module (see :mod:`repro._native`).

Imported on the first product only, so ``import repro`` does not pay
for this machinery. The modules only a build or a failure needs
(``subprocess``, ``tempfile``, ``logging``) are imported where they are
used: a cached load stays inside the serving process's set-up time,
which is a gated metric.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path

_SOURCE = Path(__file__).with_name("csr.c")
_BUILD = Path(__file__).with_name("_build.py")
_CDEF = """
void csr_matmat(int64_t nrows, int64_t k, const int64_t *indptr,
                const int64_t *indices, const double *data, const double *X,
                double *out);
struct row_segment {
    const int64_t *indptr;
    const int64_t *indices;
    const double *data;
    const double *b;
    const double *norms;
    const double *cdf;
    double *x;
    double *acc;
    int64_t *progress;
    int64_t *row_nnz;
    int64_t *col_updates;
    int64_t *delay_sum;
    int64_t *delay_max;
    int64_t *delay_count;
    int64_t *delay_log;
    int64_t n_rows, k, offset, project, adaptive, atomic, wid, nproc;
    int64_t log_capacity;
    double beta;
    uint32_t key0, key1;
};
void row_directions(uint32_t key0, uint32_t key1, int64_t n_rows,
                    int64_t wid, int64_t nproc, const double *cdf,
                    int64_t start, int64_t count, int64_t *out);
int64_t row_segment(const struct row_segment *s, const int64_t *act,
                    int64_t nact, int64_t done, int64_t target);
int column_residuals(int64_t nrows, int64_t k, const int64_t *indptr,
                     const int64_t *indices, const double *data,
                     const double *x, int64_t ldx, const double *b,
                     int64_t ldb, const int64_t *cols, int64_t ncols,
                     double *out, double *work);
int normal_residuals(int64_t nrows, int64_t n, int64_t k,
                     const int64_t *indptr, const int64_t *indices,
                     const double *data, const double *x, int64_t ldx,
                     const double *b, int64_t ldb, const int64_t *cols,
                     int64_t ncols, double *g, double *sq, double *work);
struct gate {
    int64_t *error;
    int64_t *start;
    int64_t *arrived;
    int64_t nproc;
};
void gate_open(const struct gate *g);
int gate_wait_end(const struct gate *g, double timeout);
int64_t gate_wait_start(const struct gate *g, int64_t seen, double timeout);
void gate_arrive(const struct gate *g);
void gate_fail(const struct gate *g, int64_t code);
"""
#: A build that takes longer than this is treated as failed.
_BUILD_TIMEOUT_S = 120.0


def _cache_dir() -> Path:
    """Where built shared objects are kept."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "repro" / "native"


def _module_name(cffi_version: str) -> str:
    digest = hashlib.sha256()
    for part in (
        _SOURCE.read_bytes(), _BUILD.read_bytes(), _CDEF.encode(),
        cffi_version.encode(),
    ):
        digest.update(part)
    return f"_repro_native_{digest.hexdigest()[:16]}"


def _build(name: str, target: Path) -> None:
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent, prefix=".build-") as tmp:
        proc = subprocess.run(
            [sys.executable, str(_BUILD), name, str(_SOURCE), _CDEF, tmp],
            capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            raise RuntimeError(lines[-1] if lines else f"exit {proc.returncode}")
        os.replace(proc.stdout.strip().splitlines()[-1], target)


def _load():
    import _cffi_backend

    name = _module_name(_cffi_backend.__version__)
    path = _cache_dir() / (name + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not path.exists():
        _build(name, path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load():
    """The native module, built first if the cache lacks it; ``False``,
    after one logged warning, when it cannot be built or loaded."""
    try:
        return _load()
    except Exception as exc:  # any failure: NumPy products, no pools
        import logging

        log = logging.getLogger(__package__)
        log.warning(
            "native kernels unavailable; CSR products run on NumPy and "
            "pools refuse to start: %s: %s",
            type(exc).__name__, exc,
        )
        log.debug("native module load failed", exc_info=True)
        return False

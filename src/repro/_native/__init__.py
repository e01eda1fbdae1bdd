"""Native kernels: one C source, compiled with cffi on first use.

``csr.c`` holds the hot loops of the solver and the pools' epoch
boundary, summing every row in index order, built with
``-O2 -ffp-contract=off``:

* ``csr_matmat``, the CSR × dense block product behind
  :meth:`~repro.sparse.CSRMatrix.matmat` and ``matvec``;
* ``column_residuals``, AsyRGS's epoch-boundary residual check: per
  column, ``Σ_i (b_ij − A_i·x_j)²`` in one pass over the live iterate
  block, read in place with its row stride (:func:`column_residuals`,
  bound to one system ``(A, b)``);
* ``normal_residuals``, AsyRK's: the block ``Aᵀ(b − A·x)`` of the
  listed columns in one pass over ``A``'s rows, with no transpose and
  no copy of the iterate (:func:`normal_residuals`, bound the same way);
* ``row_segment``, a pool worker's whole epoch segment (draw the row
  from the Philox stream, gather, form ``γ``, scatter, commit the
  progress ticket and log the staleness sample), bound to the worker's
  shared arrays by :class:`RowSegment`. Its draws are exposed on their
  own as :func:`row_directions`;
* the ``gate_*`` routines, the pool's start and end gates on its shared
  control words (a futex on Linux, a short-sleep poll elsewhere), bound
  by :class:`Gate`.

The product, both residual checks and the segment's update form every
row product ``A_r·x`` through one gather: over a run of adjacent
columns, eight a pass, in four 16-byte registers (GCC/Clang generic
vectors, no flag beyond ``-O2``), each column summed in index order by a
separate multiply and add, so its bits are the plain scalar loop's.
Columns that are not adjacent (a block's active set once columns
retire, the columns a check re-measures) are gathered over their span,
first to last, while that span is at most three times their count: the
columns between are computed and dropped, never written. Sparser sets
are gathered one column at a time.

The first use builds the module in a child interpreter (cffi API
mode), so the calling process never imports setuptools. The shared
object is cached under ``$XDG_CACHE_HOME/repro/native/`` (else
``~/.cache/repro/native/``), named by a hash of the C source and of the
build script that holds the compile flags: a build lands in a temporary
directory beside it and is moved into place with ``os.replace``, so
concurrent first loads never map a half-written file. Nothing is built or mapped at ``import repro``.

Without cffi or a working compiler, or when the build or load fails
for any other reason, one warning is logged and every product and
AsyRGS residual check stays on the NumPy path. The pools, and AsyRK's
normal-equations check, have no other path: without the module they
refuse to be built (``repro.execution.pool.require_kernel``). Tests
force that state by setting :data:`enabled` to ``False``, or with
``forced(False)`` around a block; a pool reads the switch when it is constructed, a residual
tracker when it binds its operator.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = [
    "Gate",
    "RowSegment",
    "column_residuals",
    "csr_matmat",
    "enabled",
    "forced",
    "loaded",
    "normal_residuals",
    "row_directions",
]

#: Module-level switch: ``False`` sends every product to the NumPy path
#: and refuses every pool constructed while it is off.
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
    every product on NumPy and refuses pools, ``True`` runs them on the
    kernels where they load."""
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


def _rows_view(a, rows: int):
    """``a`` (1-D, or 2-D with unit column stride) as a 2-D float64
    block of ``rows`` rows the C code can walk with a row stride, and
    that stride in elements; a copy only when ``a`` is not such a view."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a[:, None]
    if (a.ndim != 2 or a.shape[0] != rows or a.dtype != np.float64
            or not a.flags.aligned or a.strides[0] <= 0
            or a.strides[0] % a.itemsize
            or (a.shape[1] > 1 and a.strides[1] != a.itemsize)):
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != rows:
            raise ValueError(f"expected {rows} rows, got shape {a.shape}")
    return a, max(a.strides[0] // a.itemsize, 1)


class _Residuals:
    """A residual routine of ``csr.c`` bound to one system; see
    :func:`column_residuals` and :func:`normal_residuals`."""

    def __init__(self, module, A, b, *, normal):
        ffi = module.ffi
        self._ffi = ffi
        self._shape = A.shape
        self._normal = normal
        self._routine = (module.lib.normal_residuals if normal
                         else module.lib.column_residuals)
        b, self._ldb = _rows_view(b, A.shape[0])
        self.k = b.shape[1]
        data = np.ascontiguousarray(A.data, dtype=np.float64)
        # The arrays stay referenced while their pointers are in use.
        self._arrays = (A.indptr, A.indices, data, b)
        self._csr = (
            ffi.from_buffer("int64_t[]", A.indptr),
            ffi.from_buffer("int64_t[]", A.indices),
            ffi.from_buffer("double[]", data),
        )
        self._b = ffi.cast("const double *", b.ctypes.data)

    def __call__(self, x, cols):
        m, n = self._shape
        x, ldx = _rows_view(x, n)
        if x.shape[1] != self.k:
            raise ValueError(f"x has {x.shape[1]} columns, b has {self.k}")
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        ffi = self._ffi
        buf = ffi.from_buffer
        # The routines add into zeroed outputs; work holds one row's sums.
        sq = np.zeros(cols.size)
        if self._normal:
            g = np.zeros((n, cols.size))
            head = (m, n, self.k)
            outs = (buf("double[]", g), buf("double[]", sq))
        else:
            head = (m, self.k)
            outs = (buf("double[]", sq),)
        failed = self._routine(
            *head, *self._csr,
            ffi.cast("const double *", x.ctypes.data), ldx, self._b, self._ldb,
            buf("int64_t[]", cols), cols.size, *outs,
            buf("double[]", np.empty(self.k)),
        )
        if failed:
            raise ValueError(f"columns must lie in [0, {self.k})")
        return (g, sq) if self._normal else sq


def _bind_residuals(A, b, *, normal):
    if not enabled or not np.can_cast(A.data.dtype, np.float64):
        return None
    module = _module if _module is not None else _library()
    return _Residuals(module, A, b, normal=normal) if module else None


def column_residuals(A, b):
    """The per-column residual routine bound to the system ``(A, b)``,
    or ``None`` when the check must run on NumPy: the switch is off, the
    module cannot be loaded, or ``A``'s data does not cast to float64
    under NumPy's "safe" rule (narrower floats are converted once, here).

    ``A`` is a :class:`~repro.sparse.CSRMatrix`, whose constructor checks
    the invariants that make the pointers safe, and ``b`` a vector or a
    block with ``A.shape[0]`` rows. Calling the result,
    ``residuals(x, cols)``, returns ``Σ_i (b[i, c] − A_i·x[:, c])²`` for
    each column ``c`` of ``cols``, summed in row order; ``x`` has
    ``A.shape[1]`` rows and ``b``'s width. A block whose columns are
    adjacent in memory (a request's leading columns of a wider iterate
    block) is read in place with its row stride; anything else is
    copied first.
    """
    return _bind_residuals(A, b, normal=False)


def normal_residuals(A, b):
    """The normal-equations residual routine bound to the rectangular
    system ``(A, b)``, or ``None`` under the conditions of
    :func:`column_residuals`, whose arguments it takes.

    Calling the result, ``g, sq = residuals(x, cols)``, returns the
    ``(A.shape[1], len(cols))`` block ``g = Aᵀ(b[:, cols] − A·x[:, cols])``
    from one pass over ``A``'s rows, bit for bit
    ``Aᵀ.matmat(b[:, cols] − A.matmat(x[:, cols]))`` (each entry sums in
    the order of the transpose's row), and each column's ``Σ g²``
    summed in row order. ``x`` is read as :func:`column_residuals`
    reads it.
    """
    return _bind_residuals(A, b, normal=True)


def row_directions(key, n_rows, wid, nproc, start, count, cdf=None):
    """The rows worker ``wid`` of ``nproc`` draws at its local positions
    ``start .. start+count−1``, computed by the routine
    :class:`RowSegment` draws with; ``None`` when the module cannot be
    loaded. ``key`` is the stream's Philox key
    (:attr:`~repro.rng.DirectionStream.key`); with a ``cdf`` each
    uniform draw goes through the adaptive inverse-CDF map."""
    n_rows, wid, nproc = int(n_rows), int(wid), int(nproc)
    if not (0 < n_rows <= 0xFFFFFFFF and 0 <= wid < nproc
            and start >= 0 and count >= 0):
        raise ValueError("no such draws")
    if cdf is not None:
        cdf = np.ascontiguousarray(cdf, dtype=np.float64)
        if cdf.shape != (n_rows,):
            raise ValueError(f"cdf must hold {n_rows} values")
    module = _module if _module is not None else _library()
    if not module:
        return None
    out = np.empty(int(count), dtype=np.int64)
    buf = module.ffi.from_buffer
    cdf_ptr = module.ffi.NULL if cdf is None else buf("double[]", cdf)
    module.lib.row_directions(
        int(key[0]), int(key[1]), n_rows, wid, nproc,
        cdf_ptr, int(start), int(count), buf("int64_t[]", out),
    )
    return out


#: ``struct row_segment``'s array fields, in the C order, by dtype.
_SEGMENT_ARRAYS = {
    "indptr": np.int64, "indices": np.int64, "data": np.float64,
    "b": np.float64, "norms": np.float64, "cdf": np.float64,
    "x": np.float64, "acc": np.float64, "progress": np.int64,
    "row_nnz": np.int64, "col_updates": np.int64, "delay_sum": np.int64,
    "delay_max": np.int64, "delay_count": np.int64, "delay_log": np.int64,
}


def _check_segment(a, *, offset, project, wid, nproc):
    """Raise ``ValueError`` unless the arrays ``a`` have the dtypes,
    contiguity and shapes every pointer ``row_segment`` follows stays
    inside them under."""
    for name, dtype in _SEGMENT_ARRAYS.items():
        if a[name].dtype != dtype or not a[name].flags.c_contiguous:
            raise ValueError(f"{name} must be C-contiguous {np.dtype(dtype)}")
    n_rows, (x_rows, k) = a["norms"].shape[0], a["x"].shape
    indptr, indices = a["indptr"], a["indices"]
    per_worker = ("progress", "row_nnz", "col_updates", "delay_sum",
                  "delay_max", "delay_count")
    shapes_ok = (
        0 < n_rows <= 0xFFFFFFFF  # the multiply-shift draw
        and indptr.shape == (n_rows + 1,)
        and indices.shape == a["data"].shape
        and a["b"].shape == (n_rows, k)
        and a["cdf"].shape == (n_rows,)
        and all(a[name].shape == (nproc,) for name in per_worker)
        and a["delay_log"].ndim == 2 and a["delay_log"].shape[0] == nproc
        and 0 <= wid < nproc
        and (project or 0 <= offset <= x_rows - n_rows)
    )
    if not shapes_ok:
        raise ValueError("segment arrays do not fit one pool layout")
    if (indptr[0] != 0 or indptr[-1] != indices.size
            or np.any(np.diff(indptr) < 0)
            or (indices.size and not 0 <= indices.min() <= indices.max() < x_rows)):
        raise ValueError("CSR rows must address the iterate's rows")


class RowSegment:
    """``row_segment`` bound to one pool worker's shared arrays.

    ``v`` holds the worker's arrays by their layout names (see
    ``repro.execution.pool._layout``) plus the CSR arrays ``indptr``,
    ``indices`` and ``data`` of the pool's matrix. They are checked and
    their buffers bound once, here, and held until :meth:`release`.
    Calling the instance runs one epoch segment: ``segment(act, done, target)``
    makes the worker's draws ``done .. target−1`` on the sorted active
    columns ``act`` and returns ``target``.

    ``atomic`` adds each coordinate-rule write to ``x`` with a
    compare-exchange; the projection rule has no atomic mode.

    Build it with :meth:`bind`, which returns ``None`` when the module
    cannot be loaded; it does not read :data:`enabled` (the pool decided
    that).
    """

    def __init__(self, module, v, *, offset, project, atomic, beta,
                 adaptive, key, wid, nproc):
        if atomic and project:
            raise ValueError("the projection rule has no atomic mode")
        arrays = dict(v, acc=np.empty(v["x"].shape[1]))
        _check_segment(arrays, offset=offset, project=project, wid=wid,
                       nproc=nproc)
        ffi = module.ffi
        self._lib, self._ffi = module.lib, ffi
        self._k = arrays["x"].shape[1]
        s = ffi.new("struct row_segment *")
        self._buffers = []
        for name, dtype in _SEGMENT_ARRAYS.items():
            ctype = "int64_t[]" if dtype is np.int64 else "double[]"
            buffer = ffi.from_buffer(ctype, arrays[name])
            self._buffers.append(buffer)
            setattr(s, name, buffer)
        s.n_rows = arrays["norms"].shape[0]
        s.k = self._k
        s.offset = int(offset)
        s.project = bool(project)
        s.adaptive = bool(adaptive)
        s.atomic = bool(atomic)
        s.wid = int(wid)
        s.nproc = int(nproc)
        s.log_capacity = arrays["delay_log"].shape[1]
        s.beta = float(beta)
        s.key0, s.key1 = int(key[0]), int(key[1])
        self._s = s

    @classmethod
    def bind(cls, v, **params):
        """The bound kernel, or ``None`` when the module cannot be loaded."""
        module = _module if _module is not None else _library()
        return cls(module, v, **params) if module else None

    def __call__(self, act, done, target):
        if self._s is None:
            raise ValueError("the segment kernel was released")
        act = np.ascontiguousarray(act, dtype=np.int64)
        with self._ffi.from_buffer("int64_t[]", act) as ptr:
            done = self._lib.row_segment(self._s, ptr, act.size, done, target)
        if done < 0:
            raise ValueError(f"active columns must lie in [0, {self._k})")
        return done

    def release(self):
        """Drop the buffer bindings (idempotent); the kernel is unusable
        afterwards."""
        for buffer in self._buffers:
            self._ffi.release(buffer)
        self._buffers = []
        self._s = None


class Gate:
    """The epoch gates of one pool (``gate_*`` in ``csr.c``), bound to
    three int64 words of its shared ``control`` array: the error flag,
    the start gate's generation and the end gate's arrival count, at
    the slots given.

    The parent calls :meth:`open` to start an epoch and :meth:`wait_end`
    for its end; a worker calls :meth:`wait_start`, runs its segment,
    then :meth:`arrive`, or :meth:`fail` when it cannot go on. Each wait
    returns after at most ``timeout`` seconds and releases the GIL
    meanwhile; callers wait in slices and look around in between. Hold
    the binding until :meth:`release`. Build it with :meth:`bind`, which
    returns ``None`` when the module cannot be loaded.
    """

    def __init__(self, module, control, *, error, start, arrived, nproc):
        if control.dtype != np.int64 or not control.flags.c_contiguous:
            raise ValueError("control must be C-contiguous int64")
        slots = (error, start, arrived)
        if len(set(slots)) != 3 or not all(0 <= i < control.size for i in slots):
            raise ValueError("the gate needs three distinct control slots")
        if nproc < 1:
            raise ValueError("a gate needs at least one worker")
        ffi = module.ffi
        self._lib, self._ffi = module.lib, ffi
        self._buffer = ffi.from_buffer("int64_t[]", control)
        g = ffi.new("struct gate *")
        g.error = self._buffer + int(error)
        g.start = self._buffer + int(start)
        g.arrived = self._buffer + int(arrived)
        g.nproc = int(nproc)
        self._g = g

    @classmethod
    def bind(cls, control, **slots):
        """The bound gates, or ``None`` when the module cannot be loaded."""
        module = _module if _module is not None else _library()
        return cls(module, control, **slots) if module else None

    def open(self) -> None:
        """Parent: let every worker through the start gate. Every
        worker must be parked there (arrived, or not started yet)."""
        self._lib.gate_open(self._g)

    def wait_end(self, timeout: float) -> int:
        """Parent: ``1`` once every worker arrived, ``-1`` once the
        error flag is set, ``0`` when ``timeout`` ran out first."""
        return self._lib.gate_wait_end(self._g, timeout)

    def wait_start(self, seen: int, timeout: float) -> int:
        """Worker: the start gate's generation once it moves on from
        ``seen``, or ``seen`` when ``timeout`` ran out first."""
        return self._lib.gate_wait_start(self._g, seen, timeout)

    def arrive(self) -> None:
        """Worker: arrive at the end gate (the last one wakes the parent)."""
        self._lib.gate_arrive(self._g)

    def fail(self, code: int) -> None:
        """Worker: set the error flag to ``code`` unless another worker
        set it first, and wake the parent."""
        self._lib.gate_fail(self._g, code)

    def release(self) -> None:
        """Drop the buffer binding (idempotent)."""
        if self._g is not None:
            self._ffi.release(self._buffer)
            self._g = self._buffer = None

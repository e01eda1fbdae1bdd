"""The native epoch-segment kernel against its references.

A pool worker runs each epoch segment in one call of
:class:`repro._native.RowSegment`, the pools' only update path. It is
driven here on the pool's own buffer layout, held in a plain
``bytearray``, with the CSR arrays beside it (no pool threads).

Four pins:

* **The draws.** ``repro._native.row_directions`` is the routine the
  kernel draws with. It must equal ``DirectionStream.for_processor``
  bitwise, and its adaptive inverse-CDF map must equal NumPy's
  ``searchsorted(side="right")`` path, ties and flat segments included.
* **The segment.** For every column selection × both scatter rules ×
  row offset 0/3 × uniform/adaptive sampling, the kernel's iterate
  equals, bitwise, a per-entry reference that sums each column in index
  order (what C computes under ``-ffp-contract=off``). The counters and
  the staleness log equal the values the draws determine: the other
  workers' tickets are frozen, so every staleness sample is 0.
* **Atomic writes.** With ``atomic`` the coordinate rule adds through a
  compare-exchange that, with no other writer, succeeds at once: the
  iterate and every counter equal the plain writes' bitwise.
* **The gather.** Every selection is one case of the gather all the
  kernels share. Retired columns inside a gathered span that hold NaN
  and inf leave every other bit of the iterate as it was, and AsyRGS's
  residual check (``column_residuals``) sums each selection to the bits
  of an index-order Python-float reference.
"""

import threading

import numpy as np
import pytest

from repro import _native
from repro.execution import AsyRK, ProcessAsyRGS
from repro.execution.pool import LOG_CAPACITY, _layout, _views
from repro.execution.sharded import _ShardPool
from repro.rng import DirectionStream
from repro.sparse import CSRMatrix
from repro.workloads import random_unit_diagonal_spd

from ..conftest import needs_native

pytestmark = needs_native

N_ROWS, X_ROWS, NNZ_PER_ROW, DRAWS, BETA = 12, 20, 4, 90, 0.9

#: name → (k, active columns). Every case of the kernels' one gather
#: (``gather`` in ``csr.c``, eight adjacent columns a pass): a lone
#: column (its scalar pass); adjacent runs of less than a pass, of whole
#: passes and of passes plus a remainder (full widths 9, 17 and 51, a
#: prefix one column past a pass); scattered sets whose span is at most
#: ``SPAN_LIMIT`` (3) times their count, gathered over the span with the
#: columns between computed and dropped ("narrow-masked" at the limit);
#: and scattered sets beyond it, gathered one column at a time.
SELECTIONS = {
    "k1": (1, [0]),
    "lone": (8, [5]),
    "prefix": (8, [0, 1, 2, 3, 4]),
    "full": (8, list(range(8))),
    "wide-masked": (8, [0, 2, 3, 5, 6, 7]),
    "narrow-masked": (8, [1, 6]),
    "full9": (9, list(range(9))),
    "full17": (17, list(range(17))),
    "full51": (51, list(range(51))),
    "prefix-past-pass": (17, list(range(9))),
    "in-span": (17, [2, 3, 5, 8, 9, 12, 13]),
    "in-span-stride2": (51, list(range(0, 51, 2))),  # retirement's layout
    "past-span": (17, [0, 8, 16]),
    "past-span-wide": (51, [1, 4, 20, 21, 22, 40, 50]),
}

#: A scattered set inside the span rule whose retired columns 4 and 10,
#: inside the gathered span, hold NaN and inf.
POISONED = (17, [2, 3, 5, 8, 9, 12, 13], {4: np.nan, 10: np.inf})

#: A worker that is not the first of several: strided stream positions.
WID, NPROC = 1, 3
#: Tickets of the other workers, frozen while this one runs.
OTHER_PROGRESS = {0: 5, 2: 7}


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


def _adaptive_map(rows, cdf):
    """NumPy's inverse-CDF map of uniform draws, the pool's definition."""
    n = cdf.shape[0]
    u = (rows.astype(np.float64) + 0.5) / n
    return np.minimum(np.searchsorted(cdf, u, side="right"), n - 1)


class TestDirections:
    @pytest.mark.parametrize("seed,stream", [
        (0, 0), (7, 0), (7, 3), (-11, 0), (-11, 5), (2**64 + 5, 0),
        (2**130 - 1, 2),
    ])
    @pytest.mark.parametrize("nproc", [1, 2, 3])
    def test_uniform_draws_equal_the_stream(self, seed, stream, nproc):
        for n in (1, 7, 300, 4_000_000_007):
            base = DirectionStream(n, seed=seed, stream=stream)
            for p in range(nproc):
                want = base.for_processor(p, nproc).directions(3, 257)
                got = _native.row_directions(base.key, n, p, nproc, 3, 257)
                assert got.dtype == np.int64
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("nproc", [1, 2, 3])
    def test_positions_past_two_to_the_34(self, nproc):
        """Counter blocks at and beyond 2³² use the high counter word."""
        base = DirectionStream(1000, seed=3, stream=1)
        start = 2**34 // nproc - 40
        for p in range(nproc):
            want = base.for_processor(p, nproc).directions(start, 100)
            got = _native.row_directions(base.key, 1000, p, nproc, start, 100)
            assert np.array_equal(got, want)
        far = 2**40 + 3
        want = base.for_processor(nproc - 1, nproc).directions(far, 64)
        got = _native.row_directions(base.key, 1000, nproc - 1, nproc, far, 64)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cdf", [
        # Ties with the quantiles (d + ½)/10 themselves, flat runs, and a
        # zero-mass prefix.
        [0.05, 0.05, 0.25, 0.25, 0.25, 0.6, 0.95, 1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.1, 0.1, 0.45, 0.45, 0.45, 0.45, 1.0],
        # Mass ends below the last quantile: the clamp to n − 1.
        [0.1, 0.2, 0.3, 0.3, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9],
        # One row holds everything.
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    ], ids=["ties", "zero-prefix", "clamp", "point-mass"])
    @pytest.mark.parametrize("nproc", [1, 2, 3])
    def test_adaptive_map_equals_searchsorted(self, cdf, nproc):
        cdf = np.asarray(cdf)
        base = DirectionStream(10, seed=21)
        for p in range(nproc):
            rows = base.for_processor(p, nproc).directions(0, 500)
            got = _native.row_directions(base.key, 10, p, nproc, 0, 500, cdf)
            assert np.array_equal(got, _adaptive_map(rows, cdf))

    def test_adaptive_map_on_a_residual_cdf(self):
        """A CDF built as the pool builds it, over many rows."""
        n = 997
        w = np.random.default_rng(4).exponential(size=n)
        w[100:300] = 0.0  # a long flat run
        cdf = np.cumsum(w + 0.01 * w.mean())
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        base = DirectionStream(n, seed=8, stream=2)
        rows = base.for_processor(1, 2).directions(10, 5000)
        got = _native.row_directions(base.key, n, 1, 2, 10, 5000, cdf)
        assert np.array_equal(got, _adaptive_map(rows, cdf))


def _segment(k, act, *, adaptive):
    """A pool's views over a ``bytearray`` plus the CSR arrays, holding
    :func:`_system` at width ``k`` with columns ``act`` active, the
    other workers' tickets set, the staleness log filled with ``-1`` (so
    every entry the kernel writes shows) and (adaptive) a skewed CDF."""
    arrays = _system(k)
    geom = (N_ROWS, X_ROWS, N_ROWS, k)
    v = _views(bytearray(_layout(geom, NPROC)[2]), geom, NPROC)
    for name, value in arrays.items():
        if name in v:
            v[name][...] = value
        else:  # the CSR: the kernel reads the matrix's own arrays
            v[name] = value
    v["active"][act] = 1
    for w, ticket in OTHER_PROGRESS.items():
        v["progress"][w] = ticket
    v["delay_log"][...] = -1
    if adaptive:
        weights = np.arange(1.0, N_ROWS + 1) ** 2
        weights[3:6] = 0.0
        v["cdf"][:] = np.cumsum(weights) / weights.sum()
        v["cdf"][-1] = 1.0
    return v


STREAM = DirectionStream(N_ROWS, seed=9, stream=4)


def _run(v, *, offset, project, adaptive, atomic=False):
    """Two consecutive segments of ``DRAWS // 2`` draws each on ``v``."""
    act = np.flatnonzero(v["active"])
    kernel = _bind(v, offset=offset, project=project, adaptive=adaptive,
                   atomic=atomic)
    try:
        done = kernel(act, 0, DRAWS // 2)
        assert done == DRAWS // 2
        done = kernel(act, done, DRAWS)
        assert done == DRAWS
    finally:
        kernel.release()


def _draws(v, *, adaptive):
    """The rows the worker draws over the two segments."""
    rows = STREAM.for_processor(WID, NPROC).directions(0, DRAWS)
    return _adaptive_map(rows, v["cdf"]) if adaptive else rows


def _reference_x(v, act, *, offset, project, adaptive):
    """The segment's iterate, one draw and one column at a time, each
    column summed in index order with Python floats."""
    indptr, indices, data = v["indptr"], v["indices"], v["data"]
    b, norms, x = v["b"], v["norms"], v["x"].copy()
    for r in _draws(v, adaptive=adaptive).tolist():
        entries = range(int(indptr[r]), int(indptr[r + 1]))
        gamma = []
        for j in act:
            dot = 0.0
            for p in entries:
                dot += float(data[p]) * float(x[indices[p], j])
            gamma.append((float(b[r, j]) - dot) / float(norms[r]))
        for j, g in zip(act, gamma):
            if not project:
                x[offset + r, j] += BETA * g
            elif len(act) == 1:
                for p in entries:
                    x[indices[p], j] += (BETA * g) * data[p]
            else:
                for p in entries:
                    x[indices[p], j] += (BETA * data[p]) * g
    return x


COUNTERS = (
    "progress", "row_nnz", "col_updates", "delay_sum", "delay_max",
    "delay_count", "delay_log",
)


def _reference_counters(v, nact, *, adaptive):
    """The counters after the two segments on ``v``, from the draws:
    one ticket, the row's entries and ``nact`` column updates per draw,
    and a staleness sample of 0 each (no other ticket moves)."""
    want = {name: v[name].copy() for name in COUNTERS}
    rows = _draws(v, adaptive=adaptive)
    want["progress"][WID] = DRAWS
    want["row_nnz"][WID] = int(np.diff(v["indptr"])[rows].sum())
    want["col_updates"][WID] = DRAWS * nact
    want["delay_count"][WID] = DRAWS
    want["delay_log"][WID, :DRAWS] = 0
    return want


def _assert_counters(v, want):
    for counter in COUNTERS:
        assert np.array_equal(v[counter], want[counter]), counter


@pytest.mark.parametrize("adaptive", [False, True], ids=["uniform", "adaptive"])
@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("project", [False, True], ids=["coordinate", "projection"])
@pytest.mark.parametrize("name", list(SELECTIONS))
def test_segment_against_references(name, project, offset, adaptive):
    k, act = SELECTIONS[name]
    v = _segment(k, act, adaptive=adaptive)
    start_x = v["x"].copy()
    want_counters = _reference_counters(v, len(act), adaptive=adaptive)
    _run(v, offset=offset, project=project, adaptive=adaptive)

    want = _reference_x(
        _segment(k, act, adaptive=adaptive), act, offset=offset,
        project=project, adaptive=adaptive,
    )
    assert np.array_equal(v["x"], want)
    assert not np.array_equal(v["x"], start_x)
    _assert_counters(v, want_counters)
    assert v["progress"][WID] == v["delay_count"][WID] == DRAWS
    assert v["row_nnz"][WID] == DRAWS * NNZ_PER_ROW


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("project", [False, True], ids=["coordinate", "projection"])
def test_retired_columns_inside_the_span_are_dropped(project):
    """The lanes of retired columns inside a gathered span are computed
    and dropped: NaN and inf there change no active column's bits, and
    the retired columns keep theirs."""
    k, act, poison = POISONED
    v = _segment(k, act, adaptive=False)
    want = _reference_x(_segment(k, act, adaptive=False), act, offset=0,
                        project=project, adaptive=False)
    for c, value in poison.items():
        v["x"][:, c] = want[:, c] = value
    _run(v, offset=0, project=project, adaptive=False)
    assert np.array_equal(_bits(v["x"]), _bits(want))


def _reference_residuals(v, cols):
    """``Σ_i (b[i, c] − A_i·x[:, c])²`` for each column ``c`` of
    ``cols``, rows in order and each product in index order, with
    Python floats."""
    indptr, indices, data = v["indptr"], v["indices"], v["data"]
    out = []
    for c in cols:
        total = 0.0
        for i in range(N_ROWS):
            dot = 0.0
            for p in range(int(indptr[i]), int(indptr[i + 1])):
                dot += float(data[p]) * float(v["x"][indices[p], c])
            r = float(v["b"][i, c]) - dot
            total += r * r
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("extra", [0, 5], ids=["contiguous", "request-view"])
@pytest.mark.parametrize("name", [*SELECTIONS, "poisoned"])
def test_column_residuals_bit_for_bit(name, extra):
    """AsyRGS's residual check runs the same gather: on every selection
    its sums are the index-order reference's bits, read in place from
    the leading columns of a wider block when ``extra > 0``."""
    k, cols, poison = POISONED if name == "poisoned" else (*SELECTIONS[name], {})
    v = _segment(k, cols, adaptive=False)
    for c, value in poison.items():
        v["x"][:, c] = value
    block = np.zeros((X_ROWS, k + extra))
    block[:, :k] = v["x"]
    A = CSRMatrix((N_ROWS, X_ROWS), v["indptr"], v["indices"], v["data"])
    got = _native.column_residuals(A, v["b"])(block[:, :k], np.asarray(cols))
    assert np.array_equal(_bits(got), _bits(_reference_residuals(v, cols)))


@pytest.mark.parametrize("adaptive", [False, True], ids=["uniform", "adaptive"])
@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("name", list(SELECTIONS))
def test_atomic_writes_give_the_same_bits(name, offset, adaptive):
    """Alone, the compare-exchange of every coordinate write succeeds at
    its first try and stores the plain write's sum."""
    k, act = SELECTIONS[name]
    plain, atomic = (_segment(k, act, adaptive=adaptive) for _ in range(2))
    _run(plain, offset=offset, project=False, adaptive=adaptive)
    _run(atomic, offset=offset, project=False, adaptive=adaptive, atomic=True)
    assert np.array_equal(atomic["x"], plain["x"])
    _assert_counters(atomic, {c: plain[c] for c in COUNTERS})


@pytest.mark.parametrize("k", [1, 2])
def test_atomic_writes_lose_no_update_under_contention(k):
    """Four threads, more than the cores, run segments on the same
    iterate row at once (cffi releases the interpreter lock around the
    call). The one row's entry is 0, so every draw adds exactly
    ``β·b/norm = 1`` to each column: a lost write would leave it short."""
    threads, draws = 4, 200_000
    geom = (1, 1, 1, k)
    v = _views(bytearray(_layout(geom, threads)[2]), geom, threads)
    v.update(indptr=np.array([0, 1]), indices=np.zeros(1, dtype=np.int64),
             data=np.zeros(1))
    v["b"][:] = 1.0
    v["norms"][:] = 1.0
    stream = DirectionStream(1, seed=0)
    kernels = [
        _native.RowSegment.bind(
            v, offset=0, project=False, atomic=True, beta=1.0,
            adaptive=False, key=stream.key, wid=w, nproc=threads,
        )
        for w in range(threads)
    ]
    act = np.arange(k)
    workers = [
        threading.Thread(target=kernel, args=(act, 0, draws))
        for kernel in kernels
    ]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        for kernel in kernels:
            kernel.release()
    assert v["progress"].tolist() == [draws] * threads
    assert v["x"].tolist() == [[threads * draws] * k]


def test_no_active_column_writes_nothing_but_counts():
    for project in (False, True):
        v = _segment(8, [], adaptive=False)
        start_x = v["x"].copy()
        want_counters = _reference_counters(v, 0, adaptive=False)
        _run(v, offset=0, project=project, adaptive=False)
        assert np.array_equal(v["x"], start_x)
        _assert_counters(v, want_counters)


def _bind(v, **overrides):
    params = dict(offset=0, project=False, atomic=False, beta=BETA,
                  adaptive=False, key=STREAM.key, wid=WID, nproc=NPROC)
    return _native.RowSegment.bind(v, **dict(params, **overrides))


@pytest.mark.parametrize("spoil", [
    "x-dtype", "b-width", "short-log", "wid", "offset", "column-index",
    "atomic-projection",
])
def test_a_layout_the_kernel_cannot_trust_is_refused(spoil):
    """Every pointer the C code follows is checked before it is bound."""
    k, act = SELECTIONS["prefix"]
    v = _segment(k, act, adaptive=False)
    overrides = {}
    if spoil == "x-dtype":
        v["x"] = v["x"].astype(np.float32)
    elif spoil == "b-width":
        v["b"] = v["b"][:, :-1].copy()
    elif spoil == "short-log":
        v["delay_log"] = v["delay_log"][:-1].copy()
    elif spoil == "wid":
        overrides["wid"] = NPROC
    elif spoil == "offset":
        overrides["offset"] = X_ROWS - N_ROWS + 1
    elif spoil == "atomic-projection":
        overrides.update(atomic=True, project=True)
    else:
        v["indices"][5] = X_ROWS
    with pytest.raises(ValueError):
        _bind(v, **overrides)


def test_active_columns_outside_the_layout_are_refused():
    k, act = SELECTIONS["prefix"]
    v = _segment(k, act, adaptive=False)
    kernel = _bind(v)
    try:
        for bad in ([0, k], [-1, 2]):
            with pytest.raises(ValueError, match="active columns"):
                kernel(np.asarray(bad), 0, 1)
        assert v["progress"][WID] == 0
    finally:
        kernel.release()


def test_a_released_kernel_refuses_to_run():
    """After ``release()`` the kernel holds no pointer into the segment
    (a worker releases it when it ends)."""
    k, act = SELECTIONS["full"]
    v = _segment(k, act, adaptive=False)
    kernel = _bind(v)
    kernel.release()
    kernel.release()  # idempotent
    with pytest.raises(ValueError, match="released"):
        kernel(np.asarray(act), 0, 1)
    assert v["progress"][WID] == 0


def test_pool_methods_pick_their_scatter_rule_and_offset():
    assert not ProcessAsyRGS.project
    assert ProcessAsyRGS.offset == 0
    assert AsyRK.project
    assert AsyRK.offset == 0
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
    assert shard.offset == 4
    assert not shard.project


@pytest.mark.pool
class TestPools:
    def _system(self):
        A = random_unit_diagonal_spd(16, nnz_per_row=3, offdiag_scale=0.4, seed=2)
        return A, A.matvec(np.ones(16))

    def test_atomic_pools_run_the_kernel(self):
        """At one worker an atomic pool's iterate and counts are the
        plain pool's, bit for bit, on a free run and on a block solve."""
        A, b = self._system()
        B = A.matmat(np.random.default_rng(3).standard_normal((16, 3)))
        runs = {}
        for atomic in (False, True):
            with ProcessAsyRGS(A, b, nproc=1, atomic=atomic, capacity_k=3) as solver:
                runs[atomic] = (solver.run(None, 400),
                                solver.solve(1e-10, 200, b=B))
        for plain, atomic in zip(runs[False], runs[True]):
            assert atomic.atomic and not plain.atomic
            assert np.array_equal(atomic.x, plain.x)
            for field in ("iterations", "per_worker_iterations",
                          "total_row_nnz", "column_updates", "sync_points",
                          "checkpoints", "column_checkpoints"):
                np.testing.assert_equal(
                    getattr(atomic, field), getattr(plain, field), field
                )

    def test_log_capacity_is_the_layout_width(self):
        A, b = self._system()
        with ProcessAsyRGS(A, b, nproc=1) as solver:
            out = solver.run(None, LOG_CAPACITY + 100)
        assert out.tau_observed.count == LOG_CAPACITY + 100
        assert out.tau_observed.samples.size == LOG_CAPACITY

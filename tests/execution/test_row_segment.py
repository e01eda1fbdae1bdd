"""The native epoch-segment kernel against its references.

A pool worker runs each epoch segment in one call of
:class:`repro._native.RowSegment` where the module loads, and in the
Python loop over :meth:`RowUpdate.make_updater` otherwise. Both are
driven here through ``pool._segment_runner`` on the pool's own segment
layout, held in a plain ``bytearray`` (no processes).

Two pins:

* **The draws.** ``repro._native.row_directions`` is the routine the
  kernel draws with. It must equal ``DirectionStream.for_processor``
  bitwise, and its adaptive inverse-CDF map must equal NumPy's
  ``searchsorted(side="right")`` path, ties and flat segments included.
* **The segment.** For every column selection of ``test_row_update`` ×
  both scatter rules × row offset 0/3 × uniform/adaptive sampling, the
  kernel's iterate equals, bitwise, a per-entry reference that sums
  each column in index order (what C computes under
  ``-ffp-contract=off``) with ``RowUpdate``'s scatter expressions.
  Draw by draw it agrees with ``RowUpdate`` to ``rtol=1e-13`` of the
  iterate's scale: NumPy's ``@`` sums in its own order. The counters
  and the staleness log equal the Python loop's exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import _native
from repro.execution import AsyRK, ProcessAsyRGS
from repro.execution.pool import LOG_CAPACITY, RowUpdate, _layout, _segment_runner, _views
from repro.rng import DirectionStream
from repro.workloads import random_unit_diagonal_spd

from ..conftest import needs_native
from .test_row_update import BETA, DRAWS, N_ROWS, SELECTIONS, X_ROWS, _system

pytestmark = needs_native

#: A worker that is not the first of several: strided stream positions.
WID, NPROC = 1, 3
#: Tickets of the other workers, frozen while this one runs.
OTHER_PROGRESS = {0: 5, 2: 7}


def _adaptive_map(rows, cdf):
    """The Python loop's inverse-CDF map of uniform draws."""
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
    """A pool segment's views over a ``bytearray``, holding
    ``test_row_update``'s system at width ``k`` with columns ``act``
    active, the other workers' tickets set, and (adaptive) a skewed
    CDF."""
    arrays = _system(k)
    geom = (N_ROWS, X_ROWS, N_ROWS, arrays["indices"].size, k)
    v = _views(SimpleNamespace(buf=bytearray(_layout(geom, NPROC)[2])), geom, NPROC)
    for name, value in arrays.items():
        v[name][...] = value
    v["active"][act] = 1
    for w, ticket in OTHER_PROGRESS.items():
        v["progress"][w] = ticket
    if adaptive:
        weights = np.arange(1.0, N_ROWS + 1) ** 2
        weights[3:6] = 0.0
        v["cdf"][:] = np.cumsum(weights) / weights.sum()
        v["cdf"][-1] = 1.0
    return v


STREAM = DirectionStream(N_ROWS, seed=9, stream=4)


def _run(v, *, offset, project, adaptive, native, locks=()):
    """Two consecutive segments of ``DRAWS // 2`` draws each on ``v``."""
    act = np.flatnonzero(v["active"])
    with _segment_runner(
        v, RowUpdate(offset=offset, project=project), directions=STREAM,
        wid=WID, nproc=NPROC, beta=BETA, adaptive=adaptive,
        locks=list(locks), native=native,
    ) as run:
        assert isinstance(run, _native.RowSegment) == (native and not locks)
        done = run(act, 0, DRAWS // 2)
        assert done == DRAWS // 2
        done = run(act, done, DRAWS)
        assert done == DRAWS


def _reference_x(v, act, *, offset, project, adaptive):
    """The segment's iterate, one draw and one column at a time, each
    column summed in index order with Python floats."""
    indptr, indices, data = v["indptr"], v["indices"], v["data"]
    b, norms, x = v["b"], v["norms"], v["x"].copy()
    rows = STREAM.for_processor(WID, NPROC).directions(0, DRAWS)
    if adaptive:
        rows = _adaptive_map(rows, v["cdf"])
    for r in rows.tolist():
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


@pytest.mark.parametrize("adaptive", [False, True], ids=["uniform", "adaptive"])
@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("project", [False, True], ids=["coordinate", "projection"])
@pytest.mark.parametrize("name", list(SELECTIONS))
def test_segment_against_references(name, project, offset, adaptive):
    k, act = SELECTIONS[name]
    native, python = (_segment(k, act, adaptive=adaptive) for _ in range(2))
    start_x = native["x"].copy()
    _run(native, offset=offset, project=project, adaptive=adaptive, native=True)
    _run(python, offset=offset, project=project, adaptive=adaptive, native=False)

    want = _reference_x(
        _segment(k, act, adaptive=adaptive), act, offset=offset,
        project=project, adaptive=adaptive,
    )
    assert np.array_equal(native["x"], want)
    assert not np.array_equal(native["x"], start_x)
    for counter in COUNTERS:
        assert np.array_equal(native[counter], python[counter]), counter
    assert native["progress"][WID] == native["delay_count"][WID] == DRAWS
    assert native["col_updates"][WID] == DRAWS * len(act)


@pytest.mark.parametrize("adaptive", [False, True], ids=["uniform", "adaptive"])
@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("project", [False, True], ids=["coordinate", "projection"])
@pytest.mark.parametrize("name", list(SELECTIONS))
def test_each_draw_agrees_with_row_update(name, project, offset, adaptive):
    """From the same iterate, one kernel draw and one ``RowUpdate`` step
    on the same row agree to ``rtol=1e-13`` of the iterate's largest
    entry: they differ only in the summation order of the row dot, whose
    rounding scales with the entries summed, not with an entry that an
    update happens to cancel to near zero. The projection rule gets its true
    normalizers ``‖a_r‖²`` here, so its steps are projections and the
    iterate stays bounded; with arbitrary ones it grows without bound
    and cancellation swamps any relative bar. (Over a whole segment the
    two trajectories drift apart by more, as rounding compounds.)"""
    k, act = SELECTIONS[name]
    v = _segment(k, act, adaptive=adaptive)
    if project:
        v["norms"][:] = np.add.reduceat(v["data"] ** 2, v["indptr"][:-1])
    act = np.flatnonzero(v["active"])
    rows = STREAM.for_processor(WID, NPROC).directions(0, DRAWS)
    if adaptive:
        rows = _adaptive_map(rows, v["cdf"])
    method = RowUpdate(offset=offset, project=project)
    with _segment_runner(
        v, method, directions=STREAM, wid=WID, nproc=NPROC, beta=BETA,
        adaptive=adaptive, locks=[], native=True,
    ) as run:
        for i, r in enumerate(rows.tolist()):
            step = dict(v, x=v["x"].copy())
            method.make_updater(
                step, k=k, act=act, locks=[], nlocks=0, beta=BETA
            )(r)
            run(act, i, i + 1)
            scale = np.abs(step["x"]).max()
            np.testing.assert_allclose(v["x"], step["x"], rtol=0, atol=1e-13 * scale)


def test_no_active_column_writes_nothing_but_counts():
    for project in (False, True):
        native, python = (_segment(8, [], adaptive=False) for _ in range(2))
        start_x = native["x"].copy()
        _run(native, offset=0, project=project, adaptive=False, native=True)
        _run(python, offset=0, project=project, adaptive=False, native=False)
        assert np.array_equal(native["x"], start_x)
        for counter in COUNTERS:
            assert np.array_equal(native[counter], python[counter]), counter


def test_locked_writes_stay_on_the_python_loop():
    """Atomic mode's striped locks are Python objects: the runner falls
    back to the loop even when the native kernel was chosen."""
    import threading

    k, act = SELECTIONS["prefix"]
    v = _segment(k, act, adaptive=False)
    _run(v, offset=0, project=False, adaptive=False, native=True,
         locks=[threading.Lock()])


def _bind(v, **overrides):
    params = dict(offset=0, project=False, beta=BETA, adaptive=False,
                  key=STREAM.key, wid=WID, nproc=NPROC)
    return _native.RowSegment.bind(v, **dict(params, **overrides))


@pytest.mark.parametrize("spoil", [
    "x-dtype", "b-width", "short-log", "wid", "offset", "column-index",
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
    (a worker releases it before closing the shared memory)."""
    k, act = SELECTIONS["full"]
    v = _segment(k, act, adaptive=False)
    kernel = _bind(v)
    kernel.release()
    kernel.release()  # idempotent
    with pytest.raises(ValueError, match="released"):
        kernel(np.asarray(act), 0, 1)
    assert v["progress"][WID] == 0


@pytest.mark.multiprocess
class TestPoolsPickTheirPath:
    def _system(self):
        A = random_unit_diagonal_spd(16, nnz_per_row=3, offdiag_scale=0.4, seed=2)
        return A, A.matvec(np.ones(16))

    def test_the_switch_is_read_when_the_pool_spawns(self):
        A, b = self._system()
        for native in (False, True):
            with _native.forced(native):
                solver = ProcessAsyRGS(A, b, nproc=1).open()
            try:
                assert solver._pool.native is native
                # Flipping the switch later does not move a live pool.
                with _native.forced(not native):
                    out = solver.run(None, 40)
                    assert solver._pool.native is native
                assert out.iterations == 40
            finally:
                solver.close()

    def test_atomic_pools_run_the_python_loop(self):
        A, b = self._system()
        with _native.forced(True):
            with ProcessAsyRGS(A, b, nproc=1, atomic=True) as solver:
                assert solver._pool.native is False
            with AsyRK(A, b, nproc=1) as solver:
                assert solver._pool.native is True

    def test_log_capacity_is_the_layout_width(self):
        A, b = self._system()
        with _native.forced(True):
            with ProcessAsyRGS(A, b, nproc=1) as solver:
                out = solver.run(None, LOG_CAPACITY + 100)
        assert out.tau_observed.count == LOG_CAPACITY + 100
        assert out.tau_observed.samples.size == LOG_CAPACITY

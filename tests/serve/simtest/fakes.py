"""In-process stand-ins for the worker-thread solver pool.

The simulation harness tests the *serving* logic — dispatch, gather,
stash, linger, eviction — not the numerical engine, so the
pool behind the server is replaced by :class:`FakePool`: an in-process
object with the exact :class:`~repro.execution.ProcessAsyRGS` surface
the server touches (``open``/``close``/``solve``/``spawn_count``)
whose "solves" are exact, instantaneous algebra on a
**diagonal** system.

Diagonal systems make every routing bug visible: for ``A = diag(d)``
the solution of ``A x = b`` is exactly ``b / d``, computed without
iteration or rounding ambiguity, so a request that receives another
request's column, a batch sliced off by one, or a request solved
against the wrong resident matrix produces an exact mismatch under
*any* interleaving — the assertion never needs a tolerance.

Solve duration is **virtual**: ``solve_time`` seconds are consumed on
the simulation clock (via the scheduler's ``sleep``), so batches have
real extent in simulated time — queues build behind slow solves, linger
deadlines fire mid-solve — at zero wall-clock cost.

``fail_on`` scripts failures: ``{call_index: exception}`` raises that
exception from the N-th ``solve`` call (1-based), which is how the
drivers inject worker crashes (``Exception``) and dispatcher-killing
``BaseException`` (e.g. ``KeyboardInterrupt``) at a deterministic
point in the schedule.

Sharded matrices fake the same way: ``shards=N`` (the kwarg the server
forwards from a ``shards=N`` registration) makes the fake account like
the real :class:`~repro.execution.ShardedSolver` — ``spawn_count``
moves in steps of N because a sharded matrix's pools spawn and respawn
together, and ``shard_update_counts()`` reports a per-shard load list
(absent-equivalent ``[]`` at ``shards=1``, exactly like the plain pool
which has no such attribute). ``fail_shard_on`` scripts a *shard*
death: ``{call_index: shard_id}`` raises the coordinator's own failure
shape — :class:`~repro.exceptions.ModelError` naming the guilty shard
— from the N-th solve call, so drivers can assert the gateway
attributes the crash without starting a single pool worker.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.sparse import CSRMatrix

__all__ = ["FakePool", "FakeRunResult", "diagonal_system", "fake_factory"]


class FakeRunResult:
    """The slice of ``ProcessRunResult`` the server reads back."""

    __slots__ = (
        "x",
        "converged",
        "sweeps_done",
        "converged_columns",
        "column_sweeps",
        "column_residuals",
    )

    def __init__(self, x: np.ndarray):
        k = x.shape[1]
        self.x = x
        self.converged = True
        self.sweeps_done = 7
        self.converged_columns = np.ones(k, dtype=bool)
        self.column_sweeps = np.full(k, 3, dtype=np.int64)
        self.column_residuals = np.zeros(k, dtype=np.float64)


def diagonal_system(diag) -> CSRMatrix:
    """``diag(d)`` as a CSR matrix: the exactly-solvable test system."""
    d = np.asarray(diag, dtype=np.float64)
    n = d.shape[0]
    return CSRMatrix(
        (n, n),
        np.arange(n + 1, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        d.copy(),
    )


class FakePool:
    """In-process pool with the ``ProcessAsyRGS`` surface and exact
    diagonal-solve semantics (see module docstring).

    Accepts the full keyword surface :class:`~repro.serve.SolverServer`
    passes its ``solver_factory`` and ignores what a fake has no use
    for (beta, atomic, directions, start method, barrier timeout).
    """

    def __init__(
        self,
        A: CSRMatrix,
        x_block: np.ndarray,
        *,
        nproc: int,
        capacity_k: int,
        method: str = "asyrgs",
        shards: int = 1,
        sleep=None,
        solve_time: float = 0.0,
        fail_on: dict | None = None,
        fail_shard_on: dict | None = None,
        **_ignored,
    ):
        n = A.shape[0]
        if A.shape != (n, n) or not np.array_equal(
            A.indptr, np.arange(n + 1)
        ):
            raise ValueError("FakePool requires a diagonal system")
        self._diag = A.data.copy()
        self.capacity_k = int(capacity_k)
        self.nproc = int(nproc)
        # The server passes its update method explicitly on every
        # factory call; recording it lets mixed-method drivers assert
        # which pool each batch landed on.
        self.method = str(method)
        # The server forwards its shard count to the factory; a fake
        # "sharded" pool stays one in-process object but accounts like
        # the real coordinator (see module docstring).
        self.shards = int(shards)
        if self.shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        self._sleep = sleep if sleep is not None else (lambda _s: None)
        self.solve_time = float(solve_time)
        self.fail_on = dict(fail_on or {})
        self.fail_shard_on = dict(fail_shard_on or {})
        self.spawn_count = 0
        self.solve_calls = 0
        self.solved_widths: list[int] = []
        # One entry per solve call: None, or a copy of the x0 block the
        # server passed — how cache drivers assert a batch really was
        # (or was not) warm-started, and with which seed.
        self.received_x0: list = []
        self._open = False
        self._respawn_pending = False

    # -- ProcessAsyRGS surface ------------------------------------------

    def open(self) -> None:
        self._open = True
        # A sharded matrix's pools spawn together: one open costs N
        # pool spawns, exactly the real ShardedSolver's accounting.
        self.spawn_count += self.shards

    def close(self) -> None:
        self._open = False

    def shard_update_counts(self) -> list[int]:
        """Per-shard load, the real coordinator's shape: every shard
        participates in every solve (each owns a row block of each
        column), so each slot carries the pool's total solved columns.
        Empty at ``shards=1`` — the plain single pool has no such
        attribute, and the server maps that to ``[]``."""
        if self.shards == 1:
            return []
        return [sum(self.solved_widths)] * self.shards

    def solve(
        self,
        tol: float,
        max_sweeps: int,
        x0: np.ndarray | None = None,
        *,
        sync_every_sweeps: int,
        b: np.ndarray | None = None,
        **_ignored,
    ) -> FakeRunResult:
        if not self._open:
            raise RuntimeError("solve on a closed FakePool")
        if b is None or b.ndim != 2:
            raise ValueError("the server always passes a 2-D RHS block")
        if b.shape[1] > self.capacity_k:
            raise ValueError(
                f"RHS width {b.shape[1]} exceeds capacity {self.capacity_k}"
            )
        if self._respawn_pending:
            # The real backend drops a crashed pool and respawns it on
            # the next batch; spawn_count records that honestly — and a
            # sharded matrix respawns all N shards together, so the
            # step is N, never 1.
            self.spawn_count += self.shards
            self._respawn_pending = False
        self.solve_calls += 1
        self.solved_widths.append(b.shape[1])
        self.received_x0.append(None if x0 is None else np.array(x0))
        if self.solve_time:
            self._sleep(self.solve_time)
        guilty = self.fail_shard_on.get(self.solve_calls)
        if guilty is not None:
            # The coordinator's exact failure shape: the lowest failed
            # shard named, the whole solve torn down.
            self._respawn_pending = True
            raise ModelError(
                f"shard {int(guilty)} of {self.shards} failed mid-solve: "
                "injected shard fault (simtest)"
            )
        exc = self.fail_on.get(self.solve_calls)
        if exc is not None:
            if isinstance(exc, Exception):
                self._respawn_pending = True
            raise exc
        return FakeRunResult(b / self._diag[:, None])


def fake_factory(
    *,
    sleep=None,
    solve_time: float = 0.0,
    fail_on=None,
    fail_shard_on=None,
    made=None,
):
    """A ``solver_factory`` for :class:`~repro.serve.SolverServer`:
    binds the fake's configuration, forwards the server's construction
    call, and (when ``made`` is a list) records each pool it builds so
    drivers can assert on call counts afterwards."""

    def build(method, A, x_block, **kwargs):
        pool = FakePool(
            A,
            x_block,
            method=method,
            sleep=sleep,
            solve_time=solve_time,
            fail_on=fail_on,
            fail_shard_on=fail_shard_on,
            **kwargs,
        )
        if made is not None:
            made.append(pool)
        return pool

    return build

"""Pre-fix replicas of two concurrency bugs the simulation harness found.

The agentbus simtest discipline: a deterministic harness is only
trusted once it is shown to *detect* known bugs. Each class/function
here reproduces the exact pre-fix code of one of the fixed defects
(verbatim where practical), so the suites can run the same scenario
against the buggy and the fixed implementation and demonstrate that
the buggy one fails on a recorded seed while the fixed one survives
the whole seed range.

These are test fixtures, not supported code — the copied bodies are
intentionally frozen at their pre-fix state.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ServeError
from repro.serve import SolverServer
from repro.serve.server import RequestHandle, _BatchKey, _Pending
from repro.validation import check_rhs, check_x0

__all__ = ["RacyDepthServer", "WedgingServer"]


class WedgingServer(SolverServer):
    """Pre-fix dispatcher exit: drain what is queued, but never mark the
    server broken or closed. A dispatcher killed by a ``BaseException``
    leaves ``_closed`` False, so later ``submit()`` calls enqueue onto
    a queue nothing will ever pop and ``result()`` hangs forever."""

    def _shutdown_dispatch(self, cause):
        self._drain()


class RacyDepthServer(SolverServer):
    """Pre-fix ``submit()``: the queue-depth high-water mark reads the
    dispatcher-private ``_stash`` attribute directly from the client
    thread — a data race. The schedule where the dispatcher pops a
    request the client already counted in ``qsize()`` and stashes it
    before the client reads ``_stash`` double-counts that request."""

    def submit(
        self,
        b,
        *,
        tol=None,
        max_sweeps=None,
        sync_every_sweeps=None,
        x0=None,
        request_id=None,
        matrix=None,
    ) -> RequestHandle:
        if matrix is not None:
            raise ServeError(
                f"unknown matrix {matrix!r}: this server hosts a single "
                "resident matrix"
            )
        b = np.array(check_rhs(b, self.n, capacity=self.capacity_k))
        if x0 is not None:
            x0 = np.array(check_x0(x0, b.shape))
        key = _BatchKey(
            tol=self.default_tol if tol is None else float(tol),
            max_sweeps=(
                self.default_max_sweeps
                if max_sweeps is None
                else int(max_sweeps)
            ),
            sync_every_sweeps=(
                self.default_sync_every
                if sync_every_sweeps is None
                else int(sync_every_sweeps)
            ),
        )
        with self._lock:
            if self._broken is not None:
                raise ServeError(self._broken)
            if self._closed:
                raise ServeError("server is closed; no new requests accepted")
            if request_id is None:
                request_id = next(self._ids)
            # (trace_id post-dates this bug; None keeps the replica
            # constructible against the current _Pending signature.)
            pending = _Pending(
                request_id, b, x0, key, self._runtime.event(), self._clock(),
                None,
            )
            self._counts.requests_submitted += 1
            # THE BUG: `_stash` belongs to the dispatcher thread; reading
            # it here is unsynchronized with the stash transitions.
            depth = (
                self._queue.qsize()
                + 1
                + (1 if self._stash is not None else 0)
            )
            self._counts.max_queue_depth = max(
                self._counts.max_queue_depth, depth
            )
            self._queue.put(pending)
        return RequestHandle(pending)

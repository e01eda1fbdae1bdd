"""In-memory span recorder wrapped around the serving stack's public calls.

The benchmark's own wrappers, installed for the duration of a run,
record a span around each of these calls:

=========================  =====================  ===================
span name                  wrapped call           thread
=========================  =====================  ===================
``protocol.parse``         ``parse_line``         client
``serve.submit``           ``MatrixRegistry.submit``  client
``cache.lookup``           ``SolutionCache.lookup``   client (in submit)
``protocol.encode``        ``encode_result``      client (resolve)
``pool.solve``             ``PoolSolver.solve``   dispatcher
``residual.check``         ``ColumnTracker.update`` /
                           ``LeastSquaresTracker.update``  dispatcher
``cache.store``            ``SolutionCache.store``    dispatcher
=========================  =====================  ===================

A span is ``(id, name, trace, parent, start, end)``. Client-side spans
hang under the request span the client loop opens, and carry the
request's wire ``trace_id``. Dispatcher-side spans belong to a batch,
not to one request; the closed-loop client keeps exactly one burst in
flight, so they carry the burst's id (``burst`` on the recorder).

``PoolSolver.solve`` is wrapped even with spans off: the wrapper then
only keeps the result's exact counts (updates, epochs, worker wall
time) and reads no clock, so untraced runs pay one extra call per batch.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    trace: str
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SolveCounts:
    """Exact counts from one ``PoolSolver.solve`` result."""

    burst: str
    updates: int
    epochs: int
    column_updates: int
    wall_time: float


class Recorder:
    """Collects spans (when ``spans`` is set) and per-solve counts."""

    def __init__(self, spans: bool):
        self.enabled = bool(spans)
        self.spans: list[Span] = []
        self.solves: list[SolveCounts] = []
        self.burst = ""
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()

    # -- context ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace: str) -> Span:
        """Open a span under the calling thread's current span (the
        client loop uses this for request spans)."""
        stack = self._stack()
        parent = stack[-1].id if stack else None
        return Span(next(self._ids), name, trace, parent, perf_counter(), 0.0)

    def close(self, span: Span, end: float | None = None) -> None:
        span.end = perf_counter() if end is None else end
        self.spans.append(span)

    def enter(self, span: Span) -> None:
        """Make ``span`` the parent of spans opened on this thread."""
        self._stack().append(span)

    def leave(self) -> None:
        self._stack().pop()

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, name: str, trace_of):
        """``fn`` recording a span named ``name``; ``trace_of(args,
        kwargs)`` names its trace (``None``: the current parent's)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            trace = trace_of(args, kwargs)
            if trace is None:
                trace = parent.trace if parent is not None else self.burst
            span = Span(next(self._ids), name, trace,
                        parent.id if parent is not None else None,
                        perf_counter(), 0.0)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = perf_counter()
                self.spans.append(span)

        return wrapper

    def count_solve(self, fn):
        """``PoolSolver.solve`` keeping each result's exact counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.solves.append(
                SolveCounts(self.burst, int(res.iterations),
                            int(res.sync_points), int(res.column_updates),
                            float(res.wall_time))
            )
            return res

        return wrapper

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s.__dict__) + "\n")


def _inherit(args, kwargs):
    return None


def _kwarg_trace(args, kwargs):
    return kwargs.get("trace_id")


def _result_trace(args, kwargs):
    return getattr(args[0], "trace_id", None)


class Instrumented:
    """Context manager installing the recorder's wrappers on the
    serving stack, restoring the originals on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Instrumented":
        from repro.core import residuals
        from repro.execution import kaczmarz, pool
        from repro.serve import cache, frontend, registry

        rec = self.recorder
        self._patch(pool.PoolSolver, "solve", rec.count_solve)
        if rec.enabled:
            spans = [
                (frontend, "parse_line", "protocol.parse", _inherit),
                (frontend, "encode_result", "protocol.encode", _result_trace),
                (registry.MatrixRegistry, "submit", "serve.submit", _kwarg_trace),
                (cache.SolutionCache, "lookup", "cache.lookup", _inherit),
                (cache.SolutionCache, "store", "cache.store", _inherit),
                (pool.PoolSolver, "solve", "pool.solve", _inherit),
                (residuals.ColumnTracker, "update", "residual.check",
                 _inherit),
                (kaczmarz.LeastSquaresTracker, "update", "residual.check",
                 _inherit),
            ]
            for owner, attr, name, trace_of in spans:
                self._patch(
                    owner, attr,
                    lambda fn, name=name, t=trace_of: rec.wrap(fn, name, t),
                )
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def durations(spans: list[Span]) -> np.ndarray:
    return np.array([s.duration for s in spans], dtype=np.float64)

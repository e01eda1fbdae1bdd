"""The concurrency seam: every primitive the serving stack schedules on.

The serving layer is concurrent code — dispatcher threads, request
queues, completion events, linger deadlines — and concurrent code is
only as testable as its scheduler is controllable. This module is the
seam that makes it controllable: :class:`SolverServer`,
:class:`~repro.serve.MatrixRegistry` and the solution cache never
touch :mod:`time`, :mod:`queue` or :mod:`threading` directly; they ask
a *runtime* for a clock reading, a queue, an event, a lock, or a thread.

:class:`ThreadRuntime` (the default, a process-wide singleton) hands
back the real primitives, so production behavior is exactly what it was
before the seam existed. The deterministic simulation harness
(``tests/serve/simtest``) substitutes a runtime whose primitives hand
control to a virtual-clock scheduler at every call: one task runs at a
time, the next runner is picked by a seeded RNG, timed waits elapse on
a simulated clock, and a whole concurrent execution becomes a pure
function of its seed — replayable, explorable, and free of wall-clock
sleeps. See ``tests/serve/simtest/README.md`` for the harness itself.

The contract a runtime implements:

``monotonic()``
    The clock, in seconds (compare :func:`time.monotonic`). All
    deadlines and latency measurements in the serving stack come from
    here.
``queue()``
    An unbounded FIFO with the :class:`queue.Queue` surface the server
    uses: ``put``, ``get(timeout=)``, ``get_nowait`` (raising
    :class:`queue.Empty`), ``qsize``.
``event()`` / ``lock()`` / ``rlock()``
    Completion/mutual-exclusion primitives with the
    :class:`threading.Event` / ``Lock`` / ``RLock`` surfaces.
``spawn(target, name=...)``
    Start a daemon worker running ``target`` and return a handle with
    ``join(timeout=)`` and ``is_alive()`` (the :class:`threading.Thread`
    surface the server's lifecycle code uses).
"""

from __future__ import annotations

import queue
import threading
import time

__all__ = ["THREAD_RUNTIME", "ThreadRuntime"]


class ThreadRuntime:
    """The real-world runtime: thin pass-throughs to the stdlib.

    Stateless — one shared instance (:data:`THREAD_RUNTIME`) serves
    every server, registry and cache that was not handed a substitute.
    """

    @staticmethod
    def monotonic() -> float:
        return time.monotonic()

    @staticmethod
    def queue() -> queue.Queue:
        return queue.Queue()

    @staticmethod
    def event() -> threading.Event:
        return threading.Event()

    @staticmethod
    def lock():
        return threading.Lock()

    @staticmethod
    def rlock():
        return threading.RLock()

    @staticmethod
    def spawn(target, name: str | None = None) -> threading.Thread:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        return thread


#: The default runtime: real time, real queues, real threads.
THREAD_RUNTIME = ThreadRuntime()

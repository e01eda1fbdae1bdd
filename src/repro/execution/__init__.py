"""Asynchronous execution substrate.

Delay models (the paper's ``k(j)``/``K(j)`` schedules), the per-update
and vectorized phased simulators, the worker-thread pool backends,
execution traces, and the machine cost model that converts measured
operation counts into modeled wall-clock shapes. Write races are
modeled by the phased simulator's ``atomic=False`` mode only.

Backends at a glance:

=====================  ==========================  =========================
backend                concurrency                 demonstrates
=====================  ==========================  =========================
:class:`AsyncSimulator`   simulated (per update)   arbitrary delay models
:class:`PhasedSimulator`  simulated (rounds of P)  vectorized scaling runs
:class:`ProcessAsyRGS`    real worker threads      wall-clock speedup,
                                                   measured ``tau_observed``,
                                                   block (n, k) right-hand
                                                   sides on a persistent
                                                   worker pool
:class:`AsyRK`            real worker threads      asynchronous randomized
                                                   Kaczmarz on rectangular
                                                   least-squares systems,
                                                   same pool core
=====================  ==========================  =========================

Both process backends, and every shard of :class:`ShardedSolver`, run
the one row kernel of the solver-agnostic pool core in
:mod:`repro.execution.pool` (gather row ``r``, form ``γ``, scatter):
AsyRGS scatters into coordinate ``r``, AsyRK into the row's support, a
shard into its owned row at an offset. The kernel is native code; where
it cannot be built, pools refuse to start. :func:`make_solver` is the one
place that maps a wire-level ``method`` name (``"asyrgs"``/``"asyrk"``)
and a shard count to a backend, and the way
``repro solve`` and the serving registry build every pool;
:func:`check_solver` holds its rules. The :class:`~repro.core.AsyRGS`
facade runs the two simulators only.
Every solve to a tolerance, on the simulators and the pools alike, runs
the one epoch driver of :mod:`repro.execution.epochs`.
"""

from ..exceptions import ModelError
from .cost_model import MachineModel
from .delays import (
    AdversarialDelay,
    DelayModel,
    FixedDelay,
    InconsistentAdversarial,
    InconsistentUniform,
    ProcessorPhaseDelay,
    UniformDelay,
    ZeroDelay,
)
from .kaczmarz import AsyRK
from .pool import require_kernel, segment_bytes
from .processes import ProcessAsyRGS, available_cpus
from .sharded import ShardedSolver, balanced_partition, contiguous_partition
from .simulator import AsyncSimulator, PhasedSimulator
from .trace import ExecutionTrace, replay_trace

#: Wire-level method names → pool-backed solver classes, the table
#: :func:`check_solver` and :func:`make_solver` resolve ``method=``
#: through, so the CLI, the registry and the server cannot drift apart.
SOLVER_METHODS = {
    "asyrgs": ProcessAsyRGS,
    "asyrk": AsyRK,
}


def check_solver(method: str, shards: int = 1) -> int:
    """Check a ``(method, shards)`` choice and return its shard count —
    every rule :func:`make_solver` builds by, in one place, so a
    registry can refuse at registration what could never serve.

    The method must be known and ``shards`` at least 1. More than one
    shard requires ``"asyrgs"`` — AsyRK has no row-ownership structure
    to shard. Last, the pools' native
    kernel must be available (:func:`~repro.execution.pool.require_kernel`).
    """
    if method not in SOLVER_METHODS:
        known = ", ".join(sorted(SOLVER_METHODS))
        raise ModelError(
            f"unknown solver method {method!r}; expected one of: {known}"
        )
    shards = int(shards)
    if shards < 1:
        raise ModelError(f"shards must be at least 1, got {shards}")
    if shards > 1 and method != "asyrgs":
        raise ModelError(
            f"sharded solves support method 'asyrgs' only (got "
            f"{method!r}); rectangular Kaczmarz systems have no "
            "row-ownership structure to shard on"
        )
    require_kernel()
    return shards


def make_solver(method: str, A, b, *, shards=1, **pool):
    """Build the solver backing ``A`` — the one place that turns
    ``(method, shards)`` into a solver, by the rules of
    :func:`check_solver`.

    One shard is the plain pool of ``method`` (``"asyrgs"`` for square,
    positive-diagonal systems; ``"asyrk"`` for rectangular
    least-squares systems); two or more shards, a
    :class:`ShardedSolver`. Every other kwarg is a pool option (see
    :class:`~repro.execution.pool.PoolSolver`), forwarded unchanged.
    """
    shards = check_solver(method, shards)
    if shards > 1:
        return ShardedSolver(A, b, shards=shards, **pool)
    return SOLVER_METHODS[method](A, b, **pool)


__all__ = [
    "AdversarialDelay",
    "AsyRK",
    "AsyncSimulator",
    "DelayModel",
    "ExecutionTrace",
    "FixedDelay",
    "InconsistentAdversarial",
    "InconsistentUniform",
    "MachineModel",
    "PhasedSimulator",
    "ProcessAsyRGS",
    "ProcessorPhaseDelay",
    "ShardedSolver",
    "UniformDelay",
    "ZeroDelay",
    "available_cpus",
    "balanced_partition",
    "check_solver",
    "contiguous_partition",
    "make_solver",
    "segment_bytes",
    "replay_trace",
]

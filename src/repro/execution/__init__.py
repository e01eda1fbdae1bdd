"""Asynchronous execution substrate.

Delay models (the paper's ``k(j)``/``K(j)`` schedules), write-race models,
the per-update and vectorized phased simulators, the real-process pool
backends, execution traces, and the machine cost model that converts
measured operation counts into modeled wall-clock shapes.

Backends at a glance:

=====================  ==========================  =========================
backend                concurrency                 demonstrates
=====================  ==========================  =========================
:class:`AsyncSimulator`   simulated (per update)   arbitrary delay models
:class:`PhasedSimulator`  simulated (rounds of P)  vectorized scaling runs
:class:`ProcessAsyRGS`    real OS processes        wall-clock speedup,
                                                   measured ``tau_observed``,
                                                   block (n, k) right-hand
                                                   sides on a persistent
                                                   worker pool
:class:`AsyRK`            real OS processes        asynchronous randomized
                                                   Kaczmarz on rectangular
                                                   least-squares systems,
                                                   same pool core
=====================  ==========================  =========================

Both process backends, and every shard of :class:`ShardedSolver`, run
the one row kernel of the solver-agnostic pool core in
:mod:`repro.execution.pool` (gather row ``r``, form ``γ``, scatter):
AsyRGS scatters into coordinate ``r``, AsyRK into the row's support, a
shard into its owned row at an offset. :func:`make_solver` maps the
wire-level ``method`` names (``"asyrgs"``/``"asyrk"``) to the backends.
Every solve to a tolerance, on the simulators and the pools alike, runs
the one epoch driver of :mod:`repro.execution.epochs`.
"""

from ..exceptions import ModelError
from .cost_model import MachineModel, round_robin_imbalance
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
from .halo import (
    HaloTransport,
    LocalBoard,
    NodeShard,
    WireHalo,
    split_address,
)
from .kaczmarz import AsyRK, LeastSquaresTracker
from .pool import PoolSolver
from .processes import (
    DelayStats,
    ProcessAsyRGS,
    ProcessRunResult,
    available_cpus,
)
from .sharded import (
    ShardedRunResult,
    ShardedSolver,
    balanced_partition,
    contiguous_partition,
    segment_bytes,
)
from .shared_memory import AtomicWrites, LossyWrites, WriteModel
from .simulator import AsyncSimulator, PhasedSimulator, SimulationResult
from .trace import ExecutionTrace, replay_trace

#: Wire-level method names → pool-backed solver classes. This is the
#: registry the façade, the CLI, and the serve protocol all resolve
#: ``method=`` through, so the three layers cannot drift apart.
SOLVER_METHODS = {
    "asyrgs": ProcessAsyRGS,
    "asyrk": AsyRK,
}


def make_solver(method: str, A, b, **kwargs):
    """Build a pool-backed solver by wire-level method name.

    ``method`` is ``"asyrgs"`` (square, positive-diagonal systems) or
    ``"asyrk"`` (rectangular least-squares systems); every other kwarg
    is forwarded to the solver constructor unchanged.
    """
    try:
        cls = SOLVER_METHODS[method]
    except KeyError:
        known = ", ".join(sorted(SOLVER_METHODS))
        raise ModelError(
            f"unknown solver method {method!r}; expected one of: {known}"
        ) from None
    return cls(A, b, **kwargs)


__all__ = [
    "AdversarialDelay",
    "AsyRK",
    "AsyncSimulator",
    "AtomicWrites",
    "DelayModel",
    "DelayStats",
    "ExecutionTrace",
    "FixedDelay",
    "HaloTransport",
    "InconsistentAdversarial",
    "InconsistentUniform",
    "LocalBoard",
    "NodeShard",
    "WireHalo",
    "LeastSquaresTracker",
    "LossyWrites",
    "MachineModel",
    "PhasedSimulator",
    "PoolSolver",
    "ProcessAsyRGS",
    "ProcessRunResult",
    "ProcessorPhaseDelay",
    "ShardedRunResult",
    "ShardedSolver",
    "SimulationResult",
    "UniformDelay",
    "WriteModel",
    "ZeroDelay",
    "available_cpus",
    "balanced_partition",
    "contiguous_partition",
    "make_solver",
    "segment_bytes",
    "split_address",
    "replay_trace",
    "round_robin_imbalance",
]

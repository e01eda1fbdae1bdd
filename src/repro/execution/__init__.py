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
shard into its owned row at an offset. :func:`make_solver` is the one
place that maps a wire-level ``method`` name (``"asyrgs"``/``"asyrk"``),
a shard count and an optional node ring to a backend;
:func:`check_solver` holds its rules.
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
from .pool import PoolSolver, segment_bytes
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
)
from .shared_memory import AtomicWrites, LossyWrites, WriteModel
from .simulator import AsyncSimulator, PhasedSimulator, SimulationResult
from .trace import ExecutionTrace, replay_trace

#: Wire-level method names → pool-backed solver classes, the table
#: :func:`check_solver` and :func:`make_solver` resolve ``method=``
#: through, so the CLI, the registry and the server cannot drift apart.
SOLVER_METHODS = {
    "asyrgs": ProcessAsyRGS,
    "asyrk": AsyRK,
}


def check_solver(method: str, shards: int = 1, nodes=None) -> int:
    """Check a ``(method, shards, nodes)`` choice and return its shard
    count — every rule :func:`make_solver` builds by, in one place, so a
    registry can refuse at registration what could never serve.

    The method must be known and ``shards`` at least 1. ``nodes`` (a
    list of ``"HOST:PORT"``) sets the shard count: ``shards`` defaults
    to ``len(nodes)`` and must match it otherwise, and a ring needs at
    least two nodes. More than one shard requires ``"asyrgs"`` — AsyRK
    has no row-ownership structure to shard.
    """
    if method not in SOLVER_METHODS:
        known = ", ".join(sorted(SOLVER_METHODS))
        raise ModelError(
            f"unknown solver method {method!r}; expected one of: {known}"
        )
    shards = int(shards)
    if shards < 1:
        raise ModelError(f"shards must be at least 1, got {shards}")
    if nodes is not None:
        for address in nodes:
            split_address(address)  # fail fast on malformed rings
        if shards == 1:
            shards = len(nodes)
        if shards != len(nodes):
            raise ModelError(
                f"shards={shards} does not match the {len(nodes)} "
                "node(s) given; with nodes=[...] every shard lives "
                "on exactly one peer"
            )
        if shards < 2:
            raise ModelError(
                "a single-node solve has nothing to distribute; "
                "run the pool locally or pass 2+ nodes"
            )
    if shards > 1 and method != "asyrgs":
        raise ModelError(
            f"sharded solves support method 'asyrgs' only (got "
            f"{method!r}); rectangular Kaczmarz systems have no "
            "row-ownership structure to shard on"
        )
    return shards


def make_solver(method: str, A, b, *, shards=1, nodes=None, shm_limit=None, **pool):
    """Build the solver backing ``A`` — the one place that turns
    ``(method, shards, nodes)`` into a solver, by the rules of
    :func:`check_solver`.

    One shard is the plain pool of ``method`` (``"asyrgs"`` for square,
    positive-diagonal systems; ``"asyrk"`` for rectangular
    least-squares systems); two or more, or ``nodes``, a
    :class:`ShardedSolver`. ``shm_limit`` bounds any one pool's shared
    segment in bytes: a single pool over budget refuses, naming the
    sharding escape hatch. Every other kwarg is a pool option (see
    :class:`PoolSolver`), forwarded unchanged.
    """
    shards = check_solver(method, shards, nodes)
    if shards > 1:
        return ShardedSolver(
            A, b, shards=shards, nodes=nodes, shm_limit=shm_limit, **pool
        )
    solver = SOLVER_METHODS[method](A, b, **pool)
    if shm_limit is not None:
        need = segment_bytes(
            n_rows=solver.n_rows,
            x_rows=solver.x_rows,
            b_rows=solver.b_rows,
            nnz=A.nnz,
            capacity_k=solver.capacity_k,
            nproc=solver.nproc,
        )
        if need > shm_limit:
            raise ModelError(
                f"single-pool layout needs {need} bytes of shared "
                f"memory, over the {shm_limit}-byte budget; "
                "partition the matrix across pools with shards > 1"
            )
    return solver


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
    "check_solver",
    "contiguous_partition",
    "make_solver",
    "segment_bytes",
    "split_address",
    "replay_trace",
    "round_robin_imbalance",
]

"""Simulation scenarios: the serving stack under seeded schedules.

Each driver builds a :class:`~tests.serve.simtest.scheduler.SimScheduler`
around the *real* serving code — :class:`~repro.serve.SolverServer`,
:class:`~repro.serve.MatrixRegistry`, the real batching policies — with
only the pool faked (:mod:`.fakes`), runs one seeded schedule to
completion, asserts the invariants that must hold under **every**
interleaving (exact results, conserved counters, no hung requests), and
returns what the calling test wants to inspect.

:func:`explore` sweeps a driver across a seed range; any failure is
re-raised annotated with the seed and the exact replay command, which
is the harness's contract: a red schedule is a deterministic artifact,
not a flake.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ServeError
from repro.serve import MatrixRegistry, SolverServer
from repro.serve.batching import FixedWait
from repro.serve.cache import SolutionCache

from .fakes import FakePool, diagonal_system, fake_factory
from .scheduler import SimScheduler

__all__ = [
    "GatePolicy",
    "explore",
    "run_adaptive_linger",
    "run_cache_crash",
    "run_cache_dedupe",
    "run_cache_eviction_race",
    "run_dispatcher_death",
    "run_mixed_methods",
    "run_registry_policies",
    "run_registry_traffic",
    "run_server_traffic",
    "run_shard_crash",
    "run_stash_depth",
]

N = 8  # system size for every scenario

#: Powers of two so ``b / diag`` is exact in floating point: result
#: assertions are equality, never tolerance.
_DIAG = 2.0 ** (np.arange(N) % 3)


def _rhs(tag: int) -> np.ndarray:
    """A per-request RHS unique to ``tag``: any cross-wiring of batch
    slices or requests produces an exact mismatch."""
    return float(tag + 1) * (np.arange(N) + 1.0)


def explore(scenario, seeds, check=None, **kwargs):
    """Run ``scenario(seed, **kwargs)`` for every seed; ``check`` (if
    given) validates each return value. Failures re-raise annotated
    with the seed and the replay command."""
    outcomes = []
    for seed in seeds:
        try:
            out = scenario(seed, **kwargs)
            if check is not None:
                check(out)
            outcomes.append(out)
        except Exception as exc:
            raise AssertionError(
                f"{scenario.__name__} failed at seed {seed} — replay with: "
                f"pytest tests/serve/simtest --sim-seed={seed} "
                f"-k {scenario.__name__}  ({type(exc).__name__}: {exc})"
            ) from exc
    return outcomes


class GatePolicy(FixedWait):
    """FixedWait that signals an event when the dispatcher first calls
    :meth:`linger` — scenario plumbing to hold client submissions until
    a batch's first occupant is being gathered."""

    def __init__(self, max_wait: float, gate):
        super().__init__(max_wait)
        self._gate = gate

    def linger(self, queue_depth: int) -> float:
        self._gate.set()
        return self.max_wait


# ---------------------------------------------------------------------------
# Generic traffic scenarios (the exploration workhorses)
# ---------------------------------------------------------------------------


def run_server_traffic(
    seed: int,
    *,
    server_cls=SolverServer,
    n_clients: int = 3,
    per_client: int = 2,
    policy="fixed",
    max_wait: float = 0.002,
    capacity_k: int = 4,
    solve_time: float = 0.01,
    mixed_keys: bool = True,
    record_trace: bool = False,
):
    """Concurrent clients against one server: submit bursts, await all,
    assert exact answers and conserved counters under the seed's
    schedule. ``mixed_keys`` alternates per-request tolerances so
    incompatible neighbors exercise the stash path."""
    sched = SimScheduler(seed, record_trace=record_trace)
    A = diagonal_system(_DIAG)
    pools: list = []
    server = server_cls(
        A,
        nproc=2,
        capacity_k=capacity_k,
        max_wait=max_wait,
        policy=policy,
        runtime=sched.runtime,
        solver_factory=fake_factory(
            sleep=sched.sleep, solve_time=solve_time, made=pools
        ),
    )

    def client(idx: int):
        def work():
            handles = []
            for j in range(per_client):
                tag = idx * per_client + j
                kwargs = {}
                if mixed_keys and tag % 2:
                    kwargs["tol"] = 1e-3
                handles.append((tag, server.submit(_rhs(tag), **kwargs)))
            for tag, h in handles:
                res = h.result()
                assert np.array_equal(res.x, _rhs(tag) / _DIAG), (
                    f"request {tag} got another request's answer"
                )
                assert res.batch_size >= 1
                assert res.latency >= res.queue_wait >= 0.0

        return work

    clients = [
        sched.task(client(i), name=f"client-{i}") for i in range(n_clients)
    ]

    def closer():
        for h in clients:
            h.join()
        server.close()

    sched.task(closer, name="closer")
    sched.run()

    total = n_clients * per_client
    stats = server.stats()
    assert stats.requests_submitted == total
    assert stats.requests_served == total
    assert stats.requests_failed == 0
    assert stats.batches == pools[0].solve_calls
    assert stats.max_batch_size <= capacity_k
    assert stats.max_queue_depth <= total
    assert sum(pools[0].solved_widths) == total
    assert not sched.daemon_failures
    return {"stats": stats, "trace": sched.trace, "steps": sched.steps}


def run_registry_traffic(
    seed: int,
    *,
    n_matrices: int = 3,
    max_live_pools: int = 2,
    n_clients: int = 3,
    per_client: int = 2,
):
    """Concurrent clients routed across several registered matrices with
    a pool cap that forces live LRU eviction mid-traffic. Each matrix
    is a distinctly-scaled diagonal, so a request solved against the
    wrong resident matrix is an exact mismatch."""
    sched = SimScheduler(seed)
    pools: list = []
    registry = MatrixRegistry(
        nproc=1,
        max_live_pools=max_live_pools,
        capacity_k=4,
        max_wait=0.002,
        runtime=sched.runtime,
        solver_factory=fake_factory(
            sleep=sched.sleep, solve_time=0.01, made=pools
        ),
    )
    names = [f"m{i}" for i in range(n_matrices)]
    scales = [2.0**i for i in range(n_matrices)]
    for name, scale in zip(names, scales):
        registry.register(name, diagonal_system(scale * _DIAG))

    def client(idx: int):
        def work():
            for j in range(per_client):
                tag = idx * per_client + j
                which = (idx + j) % n_matrices
                # Exercise default routing too: m0 is the default.
                matrix = None if which == 0 else names[which]
                h = registry.submit(_rhs(tag), matrix=matrix)
                res = h.result()
                expect = _rhs(tag) / (scales[which] * _DIAG)
                assert np.array_equal(res.x, expect), (
                    f"request {tag} was solved against the wrong matrix"
                )

        return work

    clients = [
        sched.task(client(i), name=f"client-{i}") for i in range(n_clients)
    ]

    def closer():
        for h in clients:
            h.join()
        registry.close()

    sched.task(closer, name="closer")
    sched.run()

    total = n_clients * per_client
    agg = registry.stats()
    assert agg.requests_submitted == total
    assert agg.requests_served == total
    assert agg.requests_failed == 0
    assert agg.spawn_count == sum(p.spawn_count for p in pools)
    assert not sched.daemon_failures
    return {"aggregate": agg, "pools_built": len(pools), "steps": sched.steps}


# ---------------------------------------------------------------------------
# Bugfix scenarios (regression drivers; see test_regressions.py)
# ---------------------------------------------------------------------------


def run_dispatcher_death(seed: int, *, server_cls=SolverServer):
    """A ``BaseException`` (KeyboardInterrupt) kills the dispatcher on
    the first batch; a second client then submits against the dead
    server. Post-fix it gets a fast :class:`ServeError` naming the
    cause; pre-fix its ``result()`` blocks a queue nothing pops — the
    harness reports that wedge as ``SimDeadlock``."""
    sched = SimScheduler(seed)
    server = server_cls(
        diagonal_system(_DIAG),
        nproc=1,
        capacity_k=2,
        max_wait=0.0,
        runtime=sched.runtime,
        solver_factory=fake_factory(
            sleep=sched.sleep,
            solve_time=0.01,
            fail_on={1: KeyboardInterrupt("injected fault")},
        ),
    )
    outcome = {"result_error": None, "submit_error": None, "late_error": None}

    def first():
        h = server.submit(_rhs(0))
        try:
            h.result()
        except ServeError as exc:
            outcome["result_error"] = str(exc)

    def second():
        # Wait until the dispatcher has fully exited, so pre-fix code
        # deterministically wedges (its exit drain has already run).
        server._dispatcher.join()
        try:
            h = server.submit(_rhs(1))
        except ServeError as exc:
            outcome["submit_error"] = str(exc)
            return
        try:
            h.result()  # no timeout: pre-fix, this waits forever
        except ServeError as exc:
            outcome["late_error"] = str(exc)

    tasks = [
        sched.task(first, name="first-client"),
        sched.task(second, name="second-client"),
    ]

    def closer():
        for h in tasks:
            h.join()
        server.close()

    sched.task(closer, name="closer")
    sched.run()

    assert outcome["result_error"] is not None, (
        "the first request must fail with the batch error"
    )
    failures = sched.daemon_failures
    assert len(failures) == 1 and isinstance(failures[0], KeyboardInterrupt)
    return outcome


def run_stash_depth(seed: int, *, server_cls=SolverServer):
    """Three requests, never more than two waiting at once: r1 is being
    gathered (long linger window) when incompatible r2 arrives and gets
    stashed, while r3's ``submit`` runs concurrently with the stash
    transition. Returns the queue-depth high-water mark, whose true
    bound is 2 — the pre-fix unsynchronized ``_stash`` read in
    ``submit()`` can double-count r2 (once in the queue snapshot, once
    in the stash) and report 3."""
    sched = SimScheduler(seed)
    gate = sched.runtime.event()
    second_in = sched.runtime.event()
    server = server_cls(
        diagonal_system(_DIAG),
        nproc=1,
        capacity_k=2,
        max_wait=5.0,
        policy=GatePolicy(5.0, gate),
        runtime=sched.runtime,
        solver_factory=fake_factory(sleep=sched.sleep, solve_time=0.005),
    )

    def first():
        h = server.submit(_rhs(0))
        res = h.result()
        assert np.array_equal(res.x, _rhs(0) / _DIAG)

    def second():
        gate.wait()  # r1 is in-gather: its linger window is open
        h = server.submit(_rhs(1), tol=1e-3)  # incompatible -> stashed
        second_in.set()
        res = h.result()
        assert np.array_equal(res.x, _rhs(1) / _DIAG)

    def third():
        second_in.wait()
        h = server.submit(_rhs(2), tol=1e-3)
        res = h.result()
        assert np.array_equal(res.x, _rhs(2) / _DIAG)

    tasks = [
        sched.task(first, name="first-client"),
        sched.task(second, name="second-client"),
        sched.task(third, name="third-client"),
    ]

    def closer():
        for h in tasks:
            h.join()
        server.close()

    sched.task(closer, name="closer")
    sched.run()

    stats = server.stats()
    assert stats.requests_served == 3
    assert not sched.daemon_failures
    return stats.max_queue_depth


def run_adaptive_linger(
    seed: int, *, policy="adaptive", max_wait: float = 0.0, burst: int = 6
):
    """An open-loop burst trains the adaptive EWMAs (deep queue, slow
    solves), then one request arrives alone. With ``max_wait=0`` the
    operator disabled lingering, so the lone request's queue wait must
    be scheduling noise only; the pre-fix ``make_policy`` cap of
    ``max(0.05, max_wait)`` stalls it ~50 ms of simulated time once the
    measurements land. Returns ``(lone_queue_wait, policy_snapshot)``."""
    sched = SimScheduler(seed)
    server = SolverServer(
        diagonal_system(_DIAG),
        nproc=1,
        capacity_k=2,
        max_wait=max_wait,
        policy=policy,
        runtime=sched.runtime,
        solver_factory=fake_factory(sleep=sched.sleep, solve_time=0.2),
    )
    lone = {}

    def client():
        handles = [server.submit(_rhs(t)) for t in range(burst)]
        for t, h in enumerate(handles):
            res = h.result()
            assert np.array_equal(res.x, _rhs(t) / _DIAG)
        res = server.submit(_rhs(burst)).result()
        assert np.array_equal(res.x, _rhs(burst) / _DIAG)
        lone["queue_wait"] = res.queue_wait

    h = sched.task(client, name="client")

    def closer():
        h.join()
        server.close()

    sched.task(closer, name="closer")
    sched.run()

    assert not sched.daemon_failures
    return lone["queue_wait"], server.policy.snapshot()


def run_registry_policies(seed: int):
    """Two matrices running *different* batching policies behind one
    registry; returns the ``/v1/stats`` payload. Pre-fix,
    the stats fold stamped the whole aggregate with whichever pool's
    snapshot came last."""
    sched = SimScheduler(seed)
    registry = MatrixRegistry(
        nproc=1,
        capacity_k=2,
        max_wait=0.002,
        runtime=sched.runtime,
        solver_factory=fake_factory(sleep=sched.sleep, solve_time=0.01),
    )
    registry.register("fx", diagonal_system(_DIAG), policy="fixed")
    registry.register("ad", diagonal_system(2.0 * _DIAG), policy="adaptive")

    def client(name: str, scale: float, tag: int):
        def work():
            res = registry.submit(_rhs(tag), matrix=name).result()
            assert np.array_equal(res.x, _rhs(tag) / (scale * _DIAG))

        return work

    tasks = [
        sched.task(client("fx", 1.0, 0), name="client-fx"),
        sched.task(client("ad", 2.0, 1), name="client-ad"),
    ]

    def closer():
        for h in tasks:
            h.join()
        registry.close()

    sched.task(closer, name="closer")
    sched.run()

    assert not sched.daemon_failures
    return registry.stats_payload()


def run_shard_crash(seed: int, *, shards: int = 3):
    """A shard dies mid-solve behind the gateway; the blast radius must
    be exactly one matrix's in-flight batch.

    Two matrices share the registry: ``big`` registered with
    ``shards=3`` (its fake pool scripts a shard death on the first
    batch, raising the coordinator's own ``ModelError`` shape) and
    ``small`` on the classic single pool. The first ``big`` request
    must fail with a :class:`ServeError` *naming the guilty shard id*;
    ``small`` traffic running concurrently must keep getting exact
    answers; the next ``big`` request after the crash must succeed
    against the respawned shard set (all N spawned together — the
    spawn counter moves in steps of N); and the dispatcher must survive
    — a shard crash is a batch failure, never a daemon death or a
    wedge. The stats must report the heterogeneity honestly: per-matrix
    shard counts, per-shard update lists, and the aggregate's
    ``{"shards": "mixed"}`` breakdown.
    """
    sched = SimScheduler(seed)
    pools: list = []

    def factory(method, A, x_block, **kwargs):
        opts = {}
        if int(kwargs.get("shards", 1)) > 1:
            # First batch on the sharded matrix: shard 1 dies.
            opts["fail_shard_on"] = {1: 1}
        pool = FakePool(
            A, x_block, method=method, sleep=sched.sleep, solve_time=0.01,
            **opts, **kwargs,
        )
        pools.append(pool)
        return pool

    registry = MatrixRegistry(
        nproc=1,
        # big weighs `shards` pools against the cap, small weighs 1;
        # the cap admits both, so shard-weighted accounting is what
        # keeps this scenario eviction-free.
        max_live_pools=shards + 1,
        capacity_k=4,
        max_wait=0.002,
        runtime=sched.runtime,
        solver_factory=factory,
    )
    registry.register("big", diagonal_system(_DIAG), shards=shards)
    registry.register("small", diagonal_system(2.0 * _DIAG))

    crashed = sched.runtime.event()
    outcome = {"error": None, "late_ok": False}

    def big_first():
        h = registry.submit(_rhs(0), matrix="big")
        try:
            h.result()
        except ServeError as exc:
            outcome["error"] = str(exc)
        finally:
            crashed.set()

    def big_second():
        # Strictly after the crash surfaced: this request lands on the
        # respawned shard set, never in the doomed batch.
        crashed.wait()
        res = registry.submit(_rhs(1), matrix="big").result()
        assert np.array_equal(res.x, _rhs(1) / _DIAG), (
            "the post-crash request must solve exactly on the "
            "respawned shards"
        )
        outcome["late_ok"] = True

    def small_client(idx: int):
        def work():
            for j in range(2):
                tag = 10 + idx * 2 + j
                res = registry.submit(_rhs(tag), matrix="small").result()
                assert np.array_equal(res.x, _rhs(tag) / (2.0 * _DIAG)), (
                    f"small request {tag} caught the big matrix's "
                    "shard crash"
                )

        return work

    tasks = [
        sched.task(big_first, name="big-first"),
        sched.task(big_second, name="big-second"),
        sched.task(small_client(0), name="small-0"),
        sched.task(small_client(1), name="small-1"),
    ]

    def closer():
        for h in tasks:
            h.join()
        registry.close()

    sched.task(closer, name="closer")
    sched.run()

    # The crash was attributed, contained, and survived.
    assert outcome["error"] is not None, (
        "the crash-batch request must fail, not hang or succeed"
    )
    assert f"shard 1 of {shards} failed mid-solve" in outcome["error"], (
        f"failure must name the guilty shard: {outcome['error']!r}"
    )
    assert outcome["late_ok"]
    assert not sched.daemon_failures, (
        "a shard crash must never kill the dispatcher"
    )

    big = registry.stats("big")
    small = registry.stats("small")
    assert big.shards == shards
    assert big.requests_failed == 1
    assert big.requests_served == 1
    # One open + one respawn, each spawning all N shards together.
    assert big.spawn_count == 2 * shards
    assert len(big.shard_updates) == shards
    assert min(big.shard_updates) > 0
    assert small.shards == 1
    assert small.shard_updates == []
    assert small.requests_failed == 0
    agg = registry.stats()
    assert agg.shards == {"shards": "mixed", "counts": {shards: 1, 1: 1}}
    return {
        "error": outcome["error"],
        "aggregate": agg,
        "pools_built": len(pools),
        "steps": sched.steps,
    }


def run_mixed_methods(
    seed: int,
    *,
    n_clients: int = 3,
    per_client: int = 3,
):
    """AsyRGS and AsyRK pools resident in one registry simultaneously.

    Two matrices share the gateway: ``rgs`` under the default method and
    ``rk`` registered with ``method="asyrk"``. Clients interleave
    requests to both under the seeded schedule. Methods must never
    share a batch: coalescing happens inside one matrix's own server,
    and the method travels to the factory per pool — so every fake pool
    records exactly one method, every pool's system identifies which
    matrix it serves (distinct diagonal scales make a cross-routed
    request an exact mismatch), and each method's pools carry exactly
    the requests addressed to its matrix.
    """
    sched = SimScheduler(seed)
    pools: list = []
    registry = MatrixRegistry(
        nproc=1,
        max_live_pools=2,
        capacity_k=4,
        max_wait=0.002,
        runtime=sched.runtime,
        solver_factory=fake_factory(
            sleep=sched.sleep, solve_time=0.01, made=pools
        ),
    )
    scales = {"rgs": 1.0, "rk": 4.0}
    registry.register("rgs", diagonal_system(scales["rgs"] * _DIAG))
    registry.register("rk", diagonal_system(scales["rk"] * _DIAG), method="asyrk")
    routed = {"rgs": 0, "rk": 0}

    def client(idx: int):
        def work():
            for j in range(per_client):
                tag = idx * per_client + j
                which = "rgs" if (idx + j) % 2 == 0 else "rk"
                routed[which] += 1
                h = registry.submit(_rhs(tag), matrix=which)
                res = h.result()
                expect = _rhs(tag) / (scales[which] * _DIAG)
                assert np.array_equal(res.x, expect), (
                    f"request {tag} for {which!r} was solved against the "
                    "wrong resident matrix (cross-method batch?)"
                )

        return work

    clients = [
        sched.task(client(i), name=f"client-{i}") for i in range(n_clients)
    ]

    def closer():
        for h in clients:
            h.join()
        registry.close()

    sched.task(closer, name="closer")
    sched.run()

    total = n_clients * per_client
    agg = registry.stats()
    assert agg.requests_submitted == total
    assert agg.requests_served == total
    assert agg.requests_failed == 0
    assert not sched.daemon_failures

    # Every pool carries exactly one method, and the method matches the
    # matrix the pool's system belongs to.
    by_method = {"asyrgs": 0, "asyrk": 0}
    for pool in pools:
        assert pool.method in by_method, f"unexpected method {pool.method!r}"
        expected_scale = scales["rgs" if pool.method == "asyrgs" else "rk"]
        assert np.array_equal(pool._diag, expected_scale * _DIAG), (
            f"a {pool.method} pool was built over the other matrix's system"
        )
        by_method[pool.method] += sum(pool.solved_widths)
    # Column conservation per method: every request's single column was
    # solved by a pool of its own method — a batch that coalesced
    # across methods would shift a column from one side to the other.
    assert by_method["asyrgs"] == routed["rgs"]
    assert by_method["asyrk"] == routed["rk"]
    assert by_method["asyrgs"] > 0 and by_method["asyrk"] > 0
    # The aggregate stats report the heterogeneity honestly.
    assert agg.method == {
        "method": "mixed",
        "methods": {"asyrgs": 1, "asyrk": 1},
    }
    assert registry.stats("rgs").method == "asyrgs"
    assert registry.stats("rk").method == "asyrk"
    return {"aggregate": agg, "pools_built": len(pools), "steps": sched.steps}


# ---------------------------------------------------------------------------
# Warm-start cache scenarios (see test_cache.py)
# ---------------------------------------------------------------------------


def run_cache_dedupe(seed: int, *, n_clients: int = 4):
    """Concurrent identical requests deduping through the cache.

    Every client races the *same* right-hand side plus one of its own.
    Whatever the interleaving — all duplicates coalesced into one batch
    before any store, or strung out so later ones hit the entry the
    first one wrote — the cache must end with exactly one entry per
    distinct fingerprint (storing an existing fingerprint replaces in
    place), its counters must conserve (every lookup is a hit or a
    miss, every served request a store, every hit a warm start), and
    every answer must stay exact."""
    sched = SimScheduler(seed)
    pools: list = []
    cache = SolutionCache(runtime=sched.runtime)
    server = SolverServer(
        diagonal_system(_DIAG),
        nproc=2,
        capacity_k=4,
        max_wait=0.002,
        runtime=sched.runtime,
        solver_factory=fake_factory(
            sleep=sched.sleep, solve_time=0.01, made=pools
        ),
        cache=cache,
    )

    def client(idx: int):
        def work():
            # The shared rhs everyone races, then one of this client's
            # own. Distinct tags are far apart in relative L2 (>= 0.2),
            # so the near-hit path can never alias them.
            h_dup = server.submit(_rhs(0))
            h_own = server.submit(_rhs(idx + 1))
            res = h_dup.result()
            assert np.array_equal(res.x, _rhs(0) / _DIAG)
            res = h_own.result()
            assert np.array_equal(res.x, _rhs(idx + 1) / _DIAG)

        return work

    clients = [
        sched.task(client(i), name=f"client-{i}") for i in range(n_clients)
    ]

    def closer():
        for h in clients:
            h.join()
        server.close()

    sched.task(closer, name="closer")
    sched.run()

    total = 2 * n_clients
    stats = server.stats()
    assert stats.requests_served == total
    assert stats.requests_failed == 0
    assert sum(pools[0].solved_widths) == total
    cs = cache.stats()
    # Dedupe: N racing duplicates collapse to one entry per distinct
    # fingerprint, never one per request.
    assert cs["entries"] == n_clients + 1
    assert len(cache) == n_clients + 1
    # Conservation: every lookup resolved, every served request stored,
    # every hit (and only a hit) warm-started a request.
    assert cs["stores"] == total
    assert cs["hits_exact"] + cs["hits_near"] + cs["misses"] == total
    assert cs["hits_near"] == 0
    # Each distinct rhs's chronologically-first lookup precedes any
    # store of it, so it must miss.
    assert cs["misses"] >= n_clients + 1
    assert cs["warm_requests"] == cs["hits_exact"]
    assert cs["warm_requests"] + cs["cold_requests"] == total
    assert cs["evictions"] == 0 and cs["invalidations"] == 0
    assert not sched.daemon_failures
    return {"cache": cs, "stats": stats, "steps": sched.steps}


def run_cache_eviction_race(seed: int, *, per_client: int = 3):
    """A cache hit racing the LRU eviction of its matrix's pool.

    One shared cache behind a registry whose pool cap is 1: a ``hot``
    client lands an entry (store-before-wakeup guarantees it exists
    when its ``result()`` returns) and goes idle; a ``cold`` client's
    first submit then deterministically evicts the idle hot pool —
    which invalidates hot's cache entries (the cap is soft and skips
    busy pools, so this is the one hand-sequenced step). From there the
    clients race freely: hot re-submits the same rhs, respawning its
    pool and possibly re-evicting cold's, so every later lookup races
    whatever invalidation the schedule produces. Whichever side each
    one lands on, answers stay exact and counters conserve."""
    sched = SimScheduler(seed)
    pools: list = []
    registry = MatrixRegistry(
        nproc=1,
        max_live_pools=1,
        capacity_k=4,
        max_wait=0.002,
        cache_solutions=True,
        runtime=sched.runtime,
        solver_factory=fake_factory(
            sleep=sched.sleep, solve_time=0.01, made=pools
        ),
    )
    registry.register("hot", diagonal_system(_DIAG))
    registry.register("cold", diagonal_system(2.0 * _DIAG))
    seeded = sched.runtime.event()
    evicted = sched.runtime.event()

    def hot_client():
        res = registry.submit(_rhs(0), matrix="hot").result()
        assert np.array_equal(res.x, _rhs(0) / _DIAG)
        seeded.set()  # the hot entry is stored: eviction now has prey
        evicted.wait()  # stay idle until the cold spawn has evicted us
        for _ in range(per_client):
            res = registry.submit(_rhs(0), matrix="hot").result()
            assert np.array_equal(res.x, _rhs(0) / _DIAG)

    def cold_client():
        seeded.wait()
        # This spawn finds the hot pool idle, evicts it, and
        # invalidates the seeded hot entry — then the race is on.
        handle = registry.submit(_rhs(10), matrix="cold")
        evicted.set()
        res = handle.result()
        assert np.array_equal(res.x, _rhs(10) / (2.0 * _DIAG))
        for j in range(1, per_client):
            res = registry.submit(_rhs(10 + j), matrix="cold").result()
            assert np.array_equal(res.x, _rhs(10 + j) / (2.0 * _DIAG))

    tasks = [
        sched.task(hot_client, name="hot-client"),
        sched.task(cold_client, name="cold-client"),
    ]

    def closer():
        for h in tasks:
            h.join()
        registry.close()

    sched.task(closer, name="closer")
    sched.run()

    total = 1 + 2 * per_client
    agg = registry.stats()
    assert agg.requests_served == total
    assert agg.requests_failed == 0
    cs = registry.cache_stats()
    assert cs["stores"] == total
    assert cs["hits_exact"] + cs["hits_near"] + cs["misses"] == total
    assert cs["warm_requests"] == cs["hits_exact"] + cs["hits_near"]
    assert cs["warm_requests"] + cs["cold_requests"] == total
    # The cold spawn evicted the idle hot pool while the seeded hot
    # entry provably existed, so it must have been invalidated.
    assert cs["invalidations"] >= 1
    # Entry conservation: entries leave only by LRU eviction,
    # invalidation, or in-place replacement (uncounted) — never appear
    # from nowhere.
    assert cs["entries"] + cs["evictions"] + cs["invalidations"] <= cs["stores"]
    # hot, cold, then hot respawned after its deterministic eviction —
    # the soft cap may thrash further, never less.
    assert len(pools) >= 3
    assert not sched.daemon_failures
    return {
        "cache": cs,
        "aggregate": agg,
        "pools_built": len(pools),
        "steps": sched.steps,
    }


def run_cache_crash(seed: int):
    """A warm-started batch dies mid-solve; the entry that seeded it
    must survive and must not poison the respawned pool.

    Three event-sequenced single-request batches over one rhs: the
    first solves cold and stores; the second hits the entry, warm-starts
    — and its solve call is scripted to crash (worker death, the
    contained ``Exception`` path); the third hits the same entry again
    on the respawned pool and must solve exactly. The crashed batch
    never reaches the store/record path, so the warm start that rode it
    is simply not accounted: ``warm_requests`` counts only the third
    request, while both the second and third were seeded (visible in
    the pool's ``received_x0`` log)."""
    sched = SimScheduler(seed)
    pools: list = []
    cache = SolutionCache(runtime=sched.runtime)
    server = SolverServer(
        diagonal_system(_DIAG),
        nproc=1,
        capacity_k=2,
        max_wait=0.0,
        runtime=sched.runtime,
        solver_factory=fake_factory(
            sleep=sched.sleep,
            solve_time=0.01,
            fail_on={2: Exception("injected worker crash")},
            made=pools,
        ),
        cache=cache,
    )
    stored = sched.runtime.event()
    crashed = sched.runtime.event()
    outcome = {"error": None}

    def first():
        res = server.submit(_rhs(0)).result()
        assert np.array_equal(res.x, _rhs(0) / _DIAG)
        stored.set()  # store precedes wakeup: the entry now exists

    def second():
        stored.wait()
        h = server.submit(_rhs(0))  # exact hit -> warm
        try:
            h.result()
        except ServeError as exc:
            outcome["error"] = str(exc)
        finally:
            crashed.set()

    def third():
        crashed.wait()
        res = server.submit(_rhs(0)).result()  # warm again, fresh pool
        assert np.array_equal(res.x, _rhs(0) / _DIAG)

    tasks = [
        sched.task(first, name="first-client"),
        sched.task(second, name="second-client"),
        sched.task(third, name="third-client"),
    ]

    def closer():
        for h in tasks:
            h.join()
        server.close()

    sched.task(closer, name="closer")
    sched.run()

    assert outcome["error"] is not None, (
        "the crashed warm batch must fail, not hang or succeed"
    )
    assert "injected worker crash" in outcome["error"]
    pool = pools[0]
    assert pool.solve_calls == 3
    # One open + one respawn after the worker crash.
    assert pool.spawn_count == 2
    # The cached solution really seeded batches two and three — and the
    # crash did not drop it in between.
    cached = _rhs(0) / _DIAG
    assert pool.received_x0[0] is None
    for x0 in pool.received_x0[1:]:
        assert x0 is not None
        assert np.array_equal(x0.reshape(-1), cached)
    stats = server.stats()
    assert stats.requests_submitted == 3
    assert stats.requests_served == 2
    assert stats.requests_failed == 1
    cs = cache.stats()
    assert cs["hits_exact"] == 2
    assert cs["misses"] == 1
    # The crashed batch never stores or records: only the first (cold)
    # and third (warm) requests are accounted.
    assert cs["stores"] == 2
    assert cs["warm_requests"] == 1
    assert cs["cold_requests"] == 1
    assert cs["entries"] == 1
    assert cs["invalidations"] == 0
    assert not sched.daemon_failures
    return {"cache": cs, "error": outcome["error"], "steps": sched.steps}

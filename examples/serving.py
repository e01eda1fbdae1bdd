#!/usr/bin/env python
"""Serving: many independent solve requests against one resident matrix.

The paper's headline workload (Section 9) amortizes one social-media
Gram matrix across 51 label right-hand sides. This example runs the
same amortization as a *service*: the matrix lives in shared memory on
a persistent worker pool, and independent solve requests — submitted
concurrently, like traffic — are multiplexed onto it by
:class:`repro.serve.SolverServer`:

1. build the ``social-labels`` workload (one Gram matrix, 51 labels),
2. start a solver server: workers spawned once, CSR copied once, a
   capacity-51 pool layout so any request width ``k ≤ 51`` is served
   without a respawn,
3. fire the 51 labels at it as 51 independent single-RHS requests from
   client threads — the dispatcher coalesces compatible requests into
   block solves, one row gather serving the whole batch, and each
   request retires independently the epoch *its* column reaches *its*
   tolerance,
4. follow up with a ``k=1`` request and a full ``k=51`` block request
   on the same pool — zero respawns,
5. read the serving stats: batches, queue depth, per-request latency,
   spawn count.

6. scale out to a *gateway*: a :class:`repro.serve.MatrixRegistry`
   hosting several named matrices — requests route by matrix id, pools
   spawn lazily on first use and idle ones are LRU-evicted past the
   live-pool cap (invisible in results *and* counters), and every
   matrix's dispatcher lingers at most ``max_wait`` seconds for batch
   company,

7. shard a matrix across pools: ``shards=2`` row-partitions a Laplacian
   into two capacity-k pools that exchange halo rows at their own epoch
   boundaries (no global barrier — stale reads by design), while the
   server's stats break updates down per shard,

8. turn on warm-start caching and scrape the metrics: with
   ``cache_solutions=True`` the gateway keys recent answers by
   (matrix, rhs fingerprint) and seeds ``x0`` for repeats and
   near-repeats — an iterative solver converts cache *similarity* into
   sweep savings, not just exact hits — and
   :func:`repro.serve.render_metrics` renders every counter (the cache
   family included) in the Prometheus text format that
   ``GET /v1/metrics`` serves.

``repro serve`` puts the gateway of step 6 behind JSON lines on stdin
or TCP, and HTTP/1.1 with ``--http PORT`` (a lone ``--problem`` is
registered as the matrix ``"default"``)::

    repro serve --matrix labels=social-labels --matrix lap=laplace2d \\
        --max-wait 0.005 --http 8080 &
    curl -X POST http://127.0.0.1:8080/v1/solve \\
        -d '{"id": "r1", "b": [1.0, ...], "matrix": "lap"}'
    curl http://127.0.0.1:8080/v1/matrices

One load driver benchmarks this stack, sending every round as JSON
lines through ``handle_line`` to a ``MatrixRegistry`` — the request
path of ``repro serve``: ``repro experiment serve`` compares batched
serving against one-shot-per-request throughput, and ``repro
experiment slo [--cache]`` finds the max sustainable rate under
a p99 target and the warm-start sweep savings.

Run:  python examples/serving.py
"""

import threading
import time

import numpy as np

from repro.execution import available_cpus
from repro.serve import MatrixRegistry, SolverServer, render_metrics
from repro.workloads import get_problem, laplacian_2d


def main() -> None:
    # -- 1. The 51-label social workload. ------------------------------
    prob = get_problem("social-labels")
    A, B = prob.A, prob.B
    n, k = B.shape
    print(f"resident matrix: {prob.name}, n={n}, nnz={A.nnz}, {k} labels")
    print(f"machine: {available_cpus()} usable CPU(s)\n")

    # -- 2-3. Serve the labels as concurrent independent requests. -----
    with SolverServer(
        A, nproc=2, capacity_k=k, tol=1e-3, max_sweeps=600,
        sync_every_sweeps=10, max_wait=0.01,
    ) as server:
        print(f"pool up: 2 worker threads, capacity k={k}")

        results = [None] * k
        def client(j):
            results[j] = server.solve(B[:, j], timeout=600.0)

        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(j,)) for j in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start

        done = sum(r.converged for r in results)
        sizes = sorted({r.batch_size for r in results})
        print(
            f"{k} requests answered in {wall:.2f}s "
            f"({k / wall:.1f} req/s), {done}/{k} converged, "
            f"batch sizes seen: {sizes}"
        )
        easy = min(results, key=lambda r: r.sweeps)
        hard = max(results, key=lambda r: r.sweeps)
        print(
            f"easiest request retired at sweep {easy.sweeps}, hardest at "
            f"{hard.sweeps} — neighbors in one batch converge independently\n"
        )

        # -- 4. Mixed widths on the same pool: k=1 and k=51. -----------
        one = server.solve(B[:, 0], timeout=600.0)
        blk = server.solve(B, timeout=600.0)
        print(
            f"k=1 request: converged={one.converged} in {one.sweeps} sweeps; "
            f"k={k} block request: converged={blk.converged} in "
            f"{blk.sweeps} sweeps"
        )
        spawns = server.spawn_count
        note = "zero respawns" if spawns == 1 else f"{spawns - 1} respawn(s)!"
        print(
            f"pool spawns over all of it: {spawns} ({note})\n"
        )

        # -- 5. The serving stats. -------------------------------------
        st = server.stats()
        print(
            f"stats: {st.requests_served} served / {st.requests_failed} "
            f"failed in {st.batches} batches (mean batch "
            f"{st.mean_batch_size:.1f}, max {st.max_batch_size}); max "
            f"queue depth {st.max_queue_depth}; latency mean "
            f"{1e3 * st.latency_mean:.0f} ms, max "
            f"{1e3 * st.latency_max:.0f} ms\n"
        )

    # -- 6. The multi-matrix gateway. ----------------------------------
    # Two named matrices behind one front door, a deliberately tight
    # live-pool cap to show LRU eviction, and a 5 ms linger window.
    small = get_problem("social-small")
    lap = laplacian_2d(10, 10)
    with MatrixRegistry(
        nproc=1, capacity_k=4, max_live_pools=1, tol=1e-4,
        max_sweeps=800, max_wait=0.005,
    ) as gateway:
        gateway.register("social", small.A)
        gateway.register("lap", lap)
        print(
            f"gateway: matrices {gateway.matrices()}, live pools "
            f"{gateway.live_pools()} (spawned lazily, cap 1)"
        )
        r1 = gateway.solve(small.b, matrix="social", timeout=600.0)
        r2 = gateway.solve(lap.matvec(np.ones(lap.shape[0])), matrix="lap",
                           timeout=600.0)
        r3 = gateway.solve(small.b, timeout=600.0)  # unrouted -> default
        print(
            f"routed: social converged={r1.converged}, lap "
            f"converged={r2.converged}, default(social) "
            f"converged={r3.converged}"
        )
        social_stats = gateway.stats("social")
        print(
            f"LRU at work: live pools now {gateway.live_pools()}; "
            f"'social' served {social_stats.requests_served} across "
            f"{social_stats.spawn_count} pool spawn(s) — eviction is "
            "invisible in results and counters\n"
        )

    # -- 7. Sharded serving: one matrix split across two pools. --------
    # The same Laplacian, row-partitioned into shards=2 pools: each
    # shard owns half the rows, publishes them to a shared board at its
    # own epoch boundaries, and pulls the other half (its halo) back —
    # no global barrier, stale halo reads by design, convergence judged
    # on the assembled global residual. `repro serve
    # --matrix big=huge.mtx,shards=4` is this, behind the wire.
    lap2 = laplacian_2d(16, 16)
    n2 = lap2.shape[0]
    x_star = np.sin(np.linspace(0.0, 2.0 * np.pi, n2))
    with SolverServer(
        lap2, nproc=1, shards=2, capacity_k=2, tol=1e-6,
        max_sweeps=20000, sync_every_sweeps=2, max_wait=0.0,
    ) as server:
        res = server.solve(lap2.matvec(x_star), timeout=600.0)
        st = server.stats()
        err = float(np.max(np.abs(res.x - x_star)))
        print(
            f"sharded: n={n2} Laplacian over {st.shards} pools, "
            f"converged={res.converged} in {res.sweeps} sweeps, "
            f"max|x - x*| = {err:.1e}"
        )
        lo, hi = min(st.shard_updates), max(st.shard_updates)
        print(
            f"per-shard updates {st.shard_updates} "
            f"(balance max/min = {hi / lo:.2f}); spawn_count "
            f"{st.spawn_count} — both shards, one cold start\n"
        )

    # -- 8. Warm-start caching + the Prometheus scrape. ----------------
    # Bursty real traffic repeats itself: the gateway caches recent
    # answers by (matrix, rhs fingerprint) and seeds x0 for repeats and
    # near-repeats. A *near* hit still pays sweeps — just far fewer,
    # because the iteration starts next to the answer instead of at
    # zero. `repro serve --cache-solutions` is this, behind the wire.
    small = get_problem("social-small")
    with MatrixRegistry(
        nproc=1, capacity_k=4, tol=1e-6, max_sweeps=2000,
        cache_solutions=True, cache_similarity=0.05,
    ) as gateway:
        gateway.register("social", small.A)
        cold = gateway.solve(small.b, matrix="social", timeout=600.0)
        warm = gateway.solve(small.b, matrix="social", timeout=600.0)
        near = gateway.solve(
            small.b * (1.0 + 1e-3), matrix="social", timeout=600.0
        )
        cs = gateway.cache_stats()
        print(
            f"cache: cold solve {cold.sweeps} sweeps; exact repeat "
            f"{warm.sweeps}; near-duplicate (0.1% perturbed) "
            f"{near.sweeps} — hits {cs['hits_exact']} exact / "
            f"{cs['hits_near']} near, {cs['entries']} entered"
        )
        # The same counters, as a monitoring system scrapes them
        # (GET /v1/metrics when serving over HTTP).
        scrape = render_metrics(gateway)
        cache_lines = [
            ln for ln in scrape.splitlines()
            if ln.startswith("repro_cache") and "_total" in ln
        ]
        print("metrics excerpt (GET /v1/metrics):")
        for ln in cache_lines:
            print(f"  {ln}")
        print()


if __name__ == "__main__":
    main()

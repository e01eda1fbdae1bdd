"""Concurrency and stress tests for the solver server and the registry.

Four stories the serving subsystem must survive:

* mixed clients hammering two matrices through one registry — every
  result must match *its own* matrix's serial solve (per-matrix
  batching never mixes columns across matrices);

* many client threads submitting mixed single/block traffic — every
  result must match the equivalent serial solve;
* a slow-converging neighbor — other requests keep completing (FIFO +
  bounded batches: no starvation);
* a worker crash mid-batch — only the affected requests fail, with the
  worker id in the error, and the server recovers by respawning the
  pool for the next batch (extends PR 3's poisoned-matrix pattern with
  a monkeypatched fault injection, so the *parent's* residual checks
  stay healthy while a worker dies).
"""

import threading

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.execution import ProcessAsyRGS
from repro.serve import MatrixRegistry, SolverServer
from repro.workloads import random_unit_diagonal_spd
import repro.execution.pool as processes_module

from ..conftest import manufactured_system
from .conftest import WAIT

pytestmark = pytest.mark.serve


class TestConcurrentClients:
    def test_mixed_traffic_matches_serial(self, block_system):
        """8 client threads × mixed single/block requests against one
        nproc=1 server: every result equals the same-parameter serial
        ProcessAsyRGS.solve (deterministic at nproc=1, per-request
        retirement)."""
        A, B, _ = block_system
        n, k = B.shape
        kwargs = dict(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)
        # One reference per distinct request payload, computed serially.
        refs = {
            j: ProcessAsyRGS(A, B[:, j], nproc=1).solve(**kwargs)
            for j in range(k)
        }
        refs["block"] = ProcessAsyRGS(A, B[:, :3], nproc=1).solve(**kwargs)

        n_threads, per_thread = 8, 6
        outcomes: dict = {}
        errors: list = []

        with SolverServer(
            A, nproc=1, capacity_k=k, tol=1e-8, max_sweeps=300,
            sync_every_sweeps=10, max_wait=0.02,
        ) as srv:
            def client(tid):
                try:
                    for i in range(per_thread):
                        which = (tid + i) % (k + 1)
                        if which == k:
                            res = srv.solve(B[:, :3], timeout=WAIT)
                            outcomes[(tid, i)] = ("block", res)
                        else:
                            res = srv.solve(B[:, which], timeout=WAIT)
                            outcomes[(tid, i)] = (which, res)
                except BaseException as exc:  # noqa: BLE001
                    errors.append((tid, exc))

            threads = [
                threading.Thread(target=client, args=(tid,))
                for tid in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = srv.stats()

        assert not errors, errors
        assert len(outcomes) == n_threads * per_thread
        assert stats.requests_served == n_threads * per_thread
        assert stats.requests_failed == 0
        assert stats.spawn_count == 1  # the whole storm on one pool
        for (tid, i), (which, res) in outcomes.items():
            ref = refs[which if which == "block" else which]
            assert res.converged
            # Coalesced batches compute a column's dot products through
            # a (nnz, m) matmul instead of the solo dot — identical
            # mathematics, last-ulp float differences allowed.
            np.testing.assert_allclose(
                res.x, ref.x, rtol=1e-9, atol=1e-12
            )

    def test_no_starvation_under_slow_neighbor(self, block_system):
        """A slow-converging request (tight tol ⇒ its own batch, many
        epochs) must not starve the easy traffic behind it: every easy
        request completes to its own tolerance."""
        A, B, _ = block_system
        with SolverServer(
            A, nproc=1, capacity_k=4, tol=1e-3, max_sweeps=400,
            sync_every_sweeps=1, max_wait=0.0,
        ) as srv:
            slow = srv.submit(B[:, 0], tol=1e-13)  # many more epochs
            easy = [
                srv.submit(B[:, 1 + (j % 3)] * (1.0 + j)) for j in range(12)
            ]
            easy_results = [h.result(WAIT) for h in easy]
            slow_result = slow.result(WAIT)
        assert all(r.converged for r in easy_results)
        assert all(r.residual < 1e-3 for r in easy_results)
        assert slow_result.converged
        assert slow_result.sweeps > max(r.sweeps for r in easy_results)

    def test_slow_neighbor_in_shared_batch_retires_others_early(
        self, block_system
    ):
        """Inside one coalesced batch, per-request retirement keeps an
        easy request's sweep count at its own retirement epoch — a hard
        neighbor costs it wall-clock, never extra updates. Warm-started
        requests (x0 = exact solution) must retire at sweep 0 while the
        cold request in the same batch runs its full course."""
        A, B, X_star = block_system
        with SolverServer(
            A, nproc=1, capacity_k=4, tol=1e-8, max_sweeps=400,
            sync_every_sweeps=1, max_wait=2.0,
        ) as srv:
            handles = [srv.submit(B[:, 0])] + [
                srv.submit(B[:, j], x0=X_star[:, j]) for j in (1, 2, 3)
            ]
            results = [h.result(WAIT) for h in handles]
            stats = srv.stats()
        assert all(r.converged for r in results)
        assert results[0].sweeps > 0
        for r in results[1:]:
            assert r.sweeps == 0  # retired before the first epoch
        # The whole quartet really shared solves (x0 is not part of the
        # batch key): fewer batches than requests.
        assert stats.batches < 4


class TestRegistryStress:
    def test_two_matrices_mixed_clients_never_mix(self):
        """8 client threads interleave traffic to two same-shape,
        different-content matrices through one registry. Same shape is
        the point: a request coalesced into the *other* matrix's batch
        would still run — and converge to a visibly wrong answer. Every
        result matching its own matrix's serial reference is therefore
        a proof that per-matrix batching never mixes columns across
        matrices."""
        kwargs = dict(tol=1e-8, max_sweeps=300, sync_every_sweeps=10)
        systems = {}
        for name, seed in (("one", 8), ("two", 21)):
            A = random_unit_diagonal_spd(
                30, nnz_per_row=4, offdiag_scale=0.6, seed=seed
            )
            b, _ = manufactured_system(A, seed=seed + 1)
            ref = ProcessAsyRGS(A, b, nproc=1).solve(**kwargs)
            assert ref.converged
            systems[name] = (A, b, ref)

        n_threads, per_thread = 8, 6
        outcomes: dict = {}
        errors: list = []

        with MatrixRegistry(
            nproc=1, capacity_k=8, max_live_pools=2, max_wait=0.02, **kwargs
        ) as reg:
            for name, (A, _, _) in systems.items():
                reg.register(name, A)

            def client(tid):
                try:
                    for i in range(per_thread):
                        name = "one" if (tid + i) % 2 == 0 else "two"
                        res = reg.solve(
                            systems[name][1], matrix=name, timeout=WAIT
                        )
                        outcomes[(tid, i)] = (name, res)
                except BaseException as exc:  # noqa: BLE001
                    errors.append((tid, exc))

            threads = [
                threading.Thread(target=client, args=(tid,))
                for tid in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            per_matrix = {name: reg.stats(name) for name in systems}
            total = reg.stats()

        assert not errors, errors
        assert len(outcomes) == n_threads * per_thread
        for (tid, i), (name, res) in outcomes.items():
            ref = systems[name][2]
            assert res.converged
            # Identical mathematics modulo batch-width matmul ordering.
            np.testing.assert_allclose(res.x, ref.x, rtol=1e-9, atol=1e-12)
        # The counters split cleanly by matrix and add up.
        assert total.requests_served == n_threads * per_thread
        assert total.requests_failed == 0
        assert sum(s.requests_served for s in per_matrix.values()) == (
            n_threads * per_thread
        )
        # Both pools live within the cap: the storm never forced a
        # respawn, so batching demonstrably stayed within each pool.
        assert total.spawn_count == 2


class TestDispatcherResilience:
    def test_non_repro_failure_releases_waiters_and_server_survives(
        self, system
    ):
        """Any failure inside a batch — not just the backend's
        ModelError — must release that batch's waiters (a client blocked
        in result() without a timeout would otherwise hang forever) and
        leave the dispatcher serving."""
        A, b, _ = system
        with SolverServer(
            A, nproc=1, capacity_k=2, tol=1e-8, max_sweeps=300, max_wait=0.0
        ) as srv:
            real_solve = srv._solver.solve

            def exploding_solve(**kwargs):
                raise MemoryError("batch assembly blew up")

            srv._solver.solve = exploding_solve
            try:
                handle = srv.submit(b)
                with pytest.raises(ServeError, match="failed"):
                    handle.result(WAIT)
            finally:
                srv._solver.solve = real_solve
            assert srv.stats().requests_failed == 1
            assert srv.solve(b, timeout=WAIT).converged  # still serving


@pytest.mark.usefixtures("no_leaks")
class TestWorkerCrash:
    def test_crash_fails_only_affected_batch_with_worker_id(
        self, system, tmp_path, monkeypatch
    ):
        """A worker that dies mid-batch fails that batch's requests with
        the worker id in the error; the next batch respawns the pool and
        is served normally (the fault is one-shot: a flag file armed at
        spawn time, removed before the retry)."""
        A, b, _ = system
        flag = tmp_path / "crash-armed"
        flag.touch()
        real_loop = processes_module._worker_loop

        def crashing_loop(wid, *args, **kwargs):
            if wid == 1 and flag.exists():
                raise RuntimeError("injected worker crash")
            return real_loop(wid, *args, **kwargs)

        monkeypatch.setattr(processes_module, "_worker_loop", crashing_loop)
        with SolverServer(
            A, nproc=2, capacity_k=2, tol=1e-8, max_sweeps=200,
            sync_every_sweeps=10, max_wait=2.0,
            barrier_timeout=60.0,
        ) as srv:
            doomed = [srv.submit(b), srv.submit(b * 2.0)]
            for h in doomed:
                with pytest.raises(
                    ServeError, match=r"worker \d+ crashed"
                ):
                    h.result(WAIT)
            stats_mid = srv.stats()
            assert stats_mid.requests_failed == 2
            assert stats_mid.requests_served == 0

            flag.unlink()  # heal: the respawned pool's workers are clean
            recovered = srv.solve(b, timeout=WAIT)
            stats_end = srv.stats()

        assert recovered.converged
        assert stats_end.requests_served == 1
        assert stats_end.requests_failed == 2
        assert stats_end.spawn_count == 2  # the one honest respawn

    def test_crash_error_names_the_guilty_worker(
        self, system, tmp_path, monkeypatch
    ):
        """The id in the error is the worker that *raised*, not a
        sibling the parent killed after the crash."""
        A, b, _ = system
        flag = tmp_path / "crash-armed"
        flag.touch()
        real_loop = processes_module._worker_loop

        def crashing_loop(wid, *args, **kwargs):
            if wid == 2 and flag.exists():
                raise RuntimeError("injected worker crash")
            return real_loop(wid, *args, **kwargs)

        monkeypatch.setattr(processes_module, "_worker_loop", crashing_loop)
        with SolverServer(
            A, nproc=3, capacity_k=2, tol=1e-8, max_sweeps=200,
            sync_every_sweeps=10, max_wait=0.0,
            barrier_timeout=60.0,
        ) as srv:
            with pytest.raises(ServeError, match="worker 2 crashed"):
                srv.solve(b, timeout=WAIT)

"""Benchmark: shard-host ring over real TCP, cadence vs round-trips.

``repro experiment multinode`` boots the actual multi-node serving
path (shard hosts on ephemeral ports, a peer halo ring, the
node-backed coordinator) in one process. Wall-clocks are hardware
noise; what any machine must reproduce is the bookkeeping: every
cadence converges, the wire's halo ledger balances exactly (delivered
pushes = applied + dropped-stale), and a staler cadence pays strictly
fewer socket round-trips.
"""

import pytest

from repro.bench import run_multinode

from conftest import persist_and_print


@pytest.mark.pool
@pytest.mark.shard
@pytest.mark.serve
def test_multinode_smoke(benchmark):
    result = benchmark.pedantic(
        run_multinode,
        kwargs=dict(
            nx=16, nodes=2, nproc=1, tol=1e-5, max_sweeps=20000,
            cadences=(1, 4),
        ),
        rounds=1,
        iterations=1,
    )
    persist_and_print("fig_multinode", result.table())

    assert result.nodes == 2
    assert len(result.addrs) == 2
    assert len(result.curves) == 2
    for curve in result.curves:
        # Both the wire solve and its local control converged.
        assert curve["converged"]
        assert curve["local_converged"]
        assert curve["final_residual"] < result.tol
        assert len(curve["shard_updates"]) == result.nodes
        assert sum(curve["shard_updates"]) == curve["updates"]
        # The halo ledger balances: every delivered push was applied
        # or dropped stale by its receiver — nothing vanished on the
        # wire, and nothing failed on a healthy loopback ring.
        assert curve["halo_conserved"]
        ledger = curve["halo"]
        assert len(ledger) == result.nodes
        for host in ledger:
            assert host["pushes"] > 0
            assert host["push_failures"] == 0
            assert host["received"] > 0
    # Staler halos pay strictly fewer wire round-trips per solve.
    fine, coarse = result.curves
    pushes = [sum(h["pushes"] for h in c["halo"]) for c in result.curves]
    assert pushes[1] < pushes[0]

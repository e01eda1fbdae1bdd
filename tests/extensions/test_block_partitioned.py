"""Unit tests for owner-computes (block-partitioned) randomization."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.execution import balanced_partition, contiguous_partition
from repro.extensions import BlockPartitionedDirections, owner_computes_solve
from repro.workloads import random_unit_diagonal_spd

from ..conftest import manufactured_system


@pytest.fixture(scope="module")
def system():
    A = random_unit_diagonal_spd(48, nnz_per_row=5, offdiag_scale=0.7, seed=41)
    b, x_star = manufactured_system(A, seed=42)
    return A, b, x_star


class TestPartitions:
    def test_balanced_covers_everything(self):
        blocks = balanced_partition(10, 3)
        assert len(blocks) == 3
        np.testing.assert_array_equal(
            np.sort(np.concatenate(blocks)), np.arange(10)
        )

    def test_balanced_sizes_differ_by_at_most_one(self):
        blocks = balanced_partition(11, 4)
        sizes = [b.size for b in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_contiguous_blocks_are_intervals(self):
        blocks = contiguous_partition(10, 3)
        for b in blocks:
            np.testing.assert_array_equal(b, np.arange(b[0], b[-1] + 1))
        np.testing.assert_array_equal(
            np.sort(np.concatenate(blocks)), np.arange(10)
        )

    def test_invalid_args(self):
        with pytest.raises(ModelError):
            balanced_partition(3, 5)
        with pytest.raises(ModelError):
            contiguous_partition(3, 0)


class TestDirections:
    def test_owner_draws_only_from_its_block(self):
        blocks = contiguous_partition(20, 4)
        d = BlockPartitionedDirections(blocks, seed=1)
        for j in range(200):
            owner = d.owner(j)
            assert d.direction(j) in set(blocks[owner].tolist())

    def test_batch_matches_singles(self):
        d = BlockPartitionedDirections(balanced_partition(15, 3), seed=2)
        batch = d.directions(7, 30)
        singles = [d.direction(7 + k) for k in range(30)]
        np.testing.assert_array_equal(batch, singles)

    def test_balanced_marginal_is_uniform(self):
        """With balanced blocks the overall coordinate distribution stays
        uniform — the Leventhal–Lewis requirement survives restriction."""
        n, P = 12, 4
        d = BlockPartitionedDirections(balanced_partition(n, P), seed=3)
        draws = d.directions(0, 60000)
        counts = np.bincount(draws, minlength=n)
        expected = 5000.0
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected))

    def test_partition_validation(self):
        with pytest.raises(ModelError):
            BlockPartitionedDirections([])
        with pytest.raises(ModelError):
            BlockPartitionedDirections([np.array([0, 1]), np.array([1, 2])])
        with pytest.raises(ModelError):
            BlockPartitionedDirections([np.array([0]), np.empty(0, dtype=np.int64)])

    def test_repr_mentions_sizes(self):
        d = BlockPartitionedDirections(balanced_partition(6, 2), seed=1)
        assert "sizes=[3, 3]" in repr(d)


class TestOwnerComputesSolve:
    @pytest.mark.parametrize("partition", ["balanced", "contiguous"])
    def test_converges(self, system, partition):
        A, b, x_star = system
        r = owner_computes_solve(
            A, b, nproc=4, partition=partition, tol=1e-8, max_sweeps=500
        )
        assert r.converged, f"{partition} partition failed to converge"
        np.testing.assert_allclose(r.x, x_star, atol=1e-6)

    def test_comparable_to_unrestricted(self, system):
        """Balanced owner-computes should cost roughly the same sweep
        count as unrestricted randomization (within 2x) — the finding the
        paper anticipated for distributed layouts."""
        from repro.core import AsyRGS

        A, b, _ = system
        restricted = owner_computes_solve(A, b, nproc=4, tol=1e-6, max_sweeps=600)
        unrestricted = AsyRGS(A, b, nproc=4).solve(tol=1e-6, max_sweeps=600)
        assert restricted.converged and unrestricted.converged
        assert restricted.sweeps < 2 * unrestricted.sweeps + 5

    def test_history_recorded(self, system):
        A, b, _ = system
        r = owner_computes_solve(A, b, nproc=2, tol=1e-20, max_sweeps=3)
        assert len(r.history) == 4
        assert not r.converged

    def test_unknown_partition(self, system):
        A, b, _ = system
        with pytest.raises(ModelError):
            owner_computes_solve(A, b, nproc=2, partition="striped")

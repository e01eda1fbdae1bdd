"""Unit tests for dead-processor fault injection."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.execution import balanced_partition
from repro.extensions import (
    BlockPartitionedDirections,
    DeadProcessorDirections,
    dead_processor_study,
)
from repro.rng import DirectionStream
from repro.workloads import random_unit_diagonal_spd

from ..conftest import manufactured_system


@pytest.fixture(scope="module")
def system():
    A = random_unit_diagonal_spd(48, nnz_per_row=5, offdiag_scale=0.7, seed=51)
    b, x_star = manufactured_system(A, seed=52)
    return A, b, x_star


class TestDeadProcessorDirections:
    def test_dead_slots_never_serve(self):
        base = BlockPartitionedDirections(balanced_partition(20, 4), seed=1)
        faulty = DeadProcessorDirections(base, nproc=4, dead={1, 3})
        dead_blocks = set(base.blocks[1].tolist()) | set(base.blocks[3].tolist())
        draws = faulty.directions(0, 400)
        assert not (set(draws.tolist()) & dead_blocks)

    def test_uniform_base_still_covers_everything(self):
        base = DirectionStream(15, seed=2)
        faulty = DeadProcessorDirections(base, nproc=4, dead={0})
        draws = faulty.directions(0, 3000)
        assert set(draws.tolist()) == set(range(15))

    def test_single_matches_batch(self):
        base = DirectionStream(10, seed=3)
        faulty = DeadProcessorDirections(base, nproc=3, dead={2})
        batch = faulty.directions(5, 20)
        singles = [faulty.direction(5 + k) for k in range(20)]
        np.testing.assert_array_equal(batch, singles)

    def test_survivor_positions_match_healthy_run(self):
        """A faulty run's draws are exactly the healthy run's draws at
        the survivors' stream positions."""
        base = DirectionStream(12, seed=4)
        faulty = DeadProcessorDirections(base, nproc=3, dead={1})
        # Survivors are processors 0 and 2: positions 0, 2, 3, 5, 6, 8, …
        expected_positions = [0, 2, 3, 5, 6, 8]
        for j, pos in enumerate(expected_positions):
            assert faulty.direction(j) == base.direction(pos)

    def test_validation(self):
        base = DirectionStream(10, seed=5)
        with pytest.raises(ModelError):
            DeadProcessorDirections(base, nproc=2, dead={0, 1})
        with pytest.raises(ModelError):
            DeadProcessorDirections(base, nproc=2, dead={5})
        with pytest.raises(ModelError):
            DeadProcessorDirections(base, nproc=0, dead=set())


class TestStudy:
    def test_randomization_survives_dead_processor(self, system):
        """The Section-2 robustness claim: with a dead processor,
        unrestricted randomization still converges; owner-computes
        stalls with starved coordinates."""
        A, b, _ = system
        study = dead_processor_study(
            A, b, nproc=8, dead=(0,), sweeps=300, tol=1e-6, seed=3
        )
        assert study.uniform_converged, study.summary()
        assert not study.owner_converged, study.summary()
        assert study.owner_residual > 100 * study.uniform_residual
        assert study.starved_coordinates == 6  # 48/8 coordinates owned by p0

    def test_multiple_dead_processors(self, system):
        A, b, _ = system
        study = dead_processor_study(
            A, b, nproc=8, dead=(0, 3), sweeps=300, tol=1e-6, seed=3
        )
        assert study.uniform_converged
        assert study.starved_coordinates == 12

    def test_summary_renders(self, system):
        A, b, _ = system
        study = dead_processor_study(A, b, nproc=4, dead=(1,), sweeps=50, seed=1)
        text = study.summary()
        assert "uniform randomization" in text
        assert "owner-computes" in text

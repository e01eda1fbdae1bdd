"""Unit tests for the write models."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.execution import AtomicWrites, LossyWrites


class TestAtomicWrites:
    def test_never_loses(self):
        m = AtomicWrites()
        assert not any(m.lost(j, t) for j in range(50) for t in range(j))


class TestLossyWrites:
    def test_deterministic(self):
        m1 = LossyWrites(loss_prob=0.5, seed=9)
        m2 = LossyWrites(loss_prob=0.5, seed=9)
        pairs = [(j, t) for j in range(40) for t in range(max(0, j - 5), j)]
        assert [m1.lost(j, t) for j, t in pairs] == [m2.lost(j, t) for j, t in pairs]

    def test_distinct_pairs_distinct_positions(self):
        """(j, t) and (t, j)-style collisions must not alias (Cantor
        pairing is injective)."""
        m = LossyWrites(loss_prob=0.5, seed=3)
        outcomes = {}
        for j in range(60):
            for t in range(max(0, j - 6), j):
                outcomes[(j, t)] = m.lost(j, t)
        # Frequency should be near loss_prob.
        vals = list(outcomes.values())
        freq = sum(vals) / len(vals)
        assert 0.3 < freq < 0.7

    def test_prob_zero_and_one(self):
        assert not LossyWrites(loss_prob=0.0).lost(5, 3)
        assert LossyWrites(loss_prob=1.0).lost(5, 3)

    def test_invalid_prob(self):
        with pytest.raises(ModelError):
            LossyWrites(loss_prob=-0.1)
        with pytest.raises(ModelError):
            LossyWrites(loss_prob=1.5)

    def test_repr(self):
        assert "0.25" in repr(LossyWrites(loss_prob=0.25))

"""Shared-memory write semantics: atomic vs racy (lost) writes.

The paper's Assumption A-1 requires the single-coordinate update
``(x)_r ← (x)_r + βγ`` to be atomic, and Section 9 tests a *non-atomic*
variant experimentally (finding no noticeable difference). This module
models both:

* :class:`AtomicWrites` — every update lands; the paper's formal model.
* :class:`LossyWrites` — when update ``j`` did not observe an earlier
  update ``t`` *to the same coordinate* (``t`` is in ``j``'s missed set),
  the two updates raced on a read-modify-write; with probability
  ``loss_prob`` the later write overwrites the earlier one, destroying
  ``δ_t``. This is exactly the failure mode hardware atomics prevent.

The simulators consume these models (Figure 2's non-atomic panel). On
real cores the same two regimes are the multiprocess backend's
``atomic=True|False`` modes (:mod:`repro.execution.processes`).
"""

from __future__ import annotations

from ..exceptions import ModelError
from ..rng import CounterRNG

__all__ = ["WriteModel", "AtomicWrites", "LossyWrites"]


class WriteModel:
    """Decides whether a racing pair of writes destroys the earlier one."""

    def lost(self, j: int, t: int) -> bool:
        """Whether update ``t``'s write is destroyed by update ``j``
        (``t`` raced with ``j`` on the same coordinate)."""
        raise NotImplementedError


class AtomicWrites(WriteModel):
    """Hardware-atomic updates: no write is ever lost (Assumption A-1)."""

    def lost(self, j: int, t: int) -> bool:
        return False

    def __repr__(self) -> str:
        return "AtomicWrites()"


class LossyWrites(WriteModel):
    """Non-atomic read-modify-write updates with overwrite races.

    Parameters
    ----------
    loss_prob:
        Probability that a racing pair destroys the earlier delta. A real
        unlocked ``x[r] += d`` loses the race only when the interleaving
        is exactly read-read-write-write, so values well below 1 are the
        physically plausible regime; ``1.0`` is the adversarial extreme.
    seed:
        Counter-RNG seed; the decision for the pair ``(j, t)`` is a pure
        function of ``(seed, j, t)`` — replayable.
    """

    def __init__(self, loss_prob: float = 0.5, seed: int = 0):
        loss_prob = float(loss_prob)
        if not 0.0 <= loss_prob <= 1.0:
            raise ModelError(f"loss_prob must be in [0, 1], got {loss_prob}")
        self.loss_prob = loss_prob
        self._rng = CounterRNG(seed, stream=0x10557)

    def lost(self, j: int, t: int) -> bool:
        if self.loss_prob == 0.0:
            return False
        # Cantor-style pairing keeps distinct (j, t) pairs on distinct
        # stream positions.
        pos = (int(j) + int(t)) * (int(j) + int(t) + 1) // 2 + int(t)
        return bool(self._rng.uniform(pos, 1)[0] < self.loss_prob)

    def __repr__(self) -> str:
        return f"LossyWrites(loss_prob={self.loss_prob})"


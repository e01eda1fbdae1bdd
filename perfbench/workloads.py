"""Seeded inputs for the four serving workloads.

Everything here is a pure function of ``(workload, seed, seconds)``:
the matrix (fixed per workload), every right-hand side and every
request line (drawn from the seed), JSON-encoded up front so that
encoding never runs inside the timed loop. The program
under test only ever sees the generated matrix and the wire lines.

Workload shapes (see ``perfbench/design.json`` for why each exists):

* ``labels-block``   - one 51-column label block per request, one request
  outstanding (closed loop, ``burst=1``).
* ``sparse-singles`` - bursts of 8 single right-hand sides, each burst
  filling exactly one capacity-8 batch.
* ``lsq-kaczmarz``   - the same burst shape on a rectangular least-squares
  system served by ``method="asyrk"``.
* ``repeat-cache``   - bursts of 8 against a caching registry; most bursts
  repeat recently served right-hand sides exactly or perturbed far below
  the tolerance, one burst in ``cold_every`` is fresh.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Spec:
    """Static description of one workload.

    ``bursts_per_second`` fixes the request count of a run as
    ``round(bursts_per_second * seconds)``: the amount of work depends
    only on the arguments, never on how fast the machine happens to be
    (runs that stopped after a fixed duration did different work).
    """

    name: str
    method: str
    tol: float
    sync_every: int
    max_sweeps: int
    capacity_k: int
    burst: int
    bursts_per_second: float
    warmup_bursts: int
    cache: bool = False
    cold_every: int = 0


SPECS = {
    s.name: s
    for s in (
        Spec("labels-block", "asyrgs", tol=1e-2, sync_every=5, max_sweeps=2000,
             capacity_k=51, burst=1, bursts_per_second=0.55, warmup_bursts=1),
        Spec("sparse-singles", "asyrgs", tol=1e-6, sync_every=1,
             max_sweeps=400, capacity_k=8, burst=8, bursts_per_second=5.0,
             warmup_bursts=2),
        Spec("lsq-kaczmarz", "asyrk", tol=1e-3, sync_every=1, max_sweeps=400,
             capacity_k=8, burst=8, bursts_per_second=4.5, warmup_bursts=1),
        Spec("repeat-cache", "asyrgs", tol=5e-2, sync_every=5,
             max_sweeps=2000, capacity_k=8, burst=8, bursts_per_second=51.2,
             warmup_bursts=2, cache=True, cold_every=96),
    )
}

#: Relative size of the perturbation on near-repeat requests, as a
#: share of the tolerance: far below it, so a near hit is already
#: converged when the pool would see it.
NEAR_PERTURBATION = 1e-4


@dataclass
class Request:
    """One request: its right-hand side, tolerance and wire line."""

    trace_id: str
    b: np.ndarray
    tol: float
    line: str
    kind: str = "cold"  # "cold", "exact" or "near" (repeat-cache only)


@dataclass
class Inputs:
    """A workload's generated inputs.

    ``A`` is the repository's CSR matrix; the oracle rebuilds a scipy
    copy from the same arrays. ``warmup`` bursts run before the timer
    starts, ``bursts`` are the timed, fixed-count closed loop.
    """

    spec: Spec
    A: object
    warmup: list[list[Request]] = field(default_factory=list)
    bursts: list[list[Request]] = field(default_factory=list)

    @property
    def requests(self) -> list[Request]:
        return [r for burst in self.warmup + self.bursts for r in burst]


#: The timed bursts are cut into this many consecutive chunks (see
#: ``harness.chunks``).
CHUNKS = 8


def timed_bursts(spec: Spec, seconds: float) -> int:
    """The run's burst count. Once there are enough bursts to chunk, it
    is rounded so that every chunk holds the same number of bursts and,
    on the caching workload, exactly one cold burst per ``cold_every``."""
    n = max(1, round(spec.bursts_per_second * float(seconds)))
    if n < CHUNKS:
        return n
    period = CHUNKS * (spec.cold_every if spec.cache else 1)
    return max(1, round(n / period)) * period


def _line(spec: Spec, trace_id: str, b: np.ndarray) -> str:
    return json.dumps(
        {
            "id": trace_id,
            "trace_id": trace_id,
            "b": b.tolist(),
            "tol": spec.tol,
            "max_sweeps": spec.max_sweeps,
            "sync_every_sweeps": spec.sync_every,
        }
    )


def _social_rhs(D, rng: np.random.Generator, k: int) -> np.ndarray:
    """``Dᵀ y`` for ``k`` independent ±1 document label vectors (the
    social-media regression's normal-equation right-hand sides)."""
    Y = np.where(rng.random((D.shape[0], k)) < 0.5, -1.0, 1.0)
    return np.column_stack([D.rmatvec(Y[:, j]) for j in range(k)])


#: The served matrix of each workload is fixed; the run's seed drives
#: the traffic. With the matrix drawn from the run seed too, its
#: conditioning moved sweeps to tolerance by up to 10% from seed to
#: seed, more than the run-to-run noise of the machine.
MATRIX_SEED = {
    "labels-block": 13,
    "repeat-cache": 11,
    "sparse-singles": 31,
    "lsq-kaczmarz": 7,
}


def _relabel(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``base`` with its columns reordered, negated and scaled by powers
    of two as ``rng`` draws. Each column's solve is the same up to sign
    and an exact scale, so every block costs the same sweeps: with
    freshly drawn label blocks, the slowest of 51 columns moved a
    request's epochs by up to 7% from seed to seed."""
    k = base.shape[1]
    signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
    scales = np.ldexp(signs, rng.integers(-2, 3, k))
    return base[:, rng.permutation(k)] * scales


def _matrix(spec: Spec):
    """The workload's matrix plus a right-hand-side maker ``rhs(rng, k)``
    returning a ``(rows, k)`` block."""
    from repro.workloads import (
        diagonally_dominant,
        random_least_squares,
        social_media_problem,
    )

    seed = MATRIX_SEED[spec.name]
    if spec.name == "labels-block":
        prob = social_media_problem(
            n_terms=400, n_docs=1600, n_labels=1, seed=seed
        )
        base = _social_rhs(prob.D, np.random.default_rng(seed), spec.capacity_k)
        return prob.G, lambda rng, k: _relabel(base, rng)
    if spec.name == "repeat-cache":
        prob = social_media_problem(
            n_terms=300, n_docs=1200, n_labels=1, seed=seed
        )
        return prob.G, lambda rng, k: _social_rhs(prob.D, rng, k)
    if spec.name == "sparse-singles":
        A = diagonally_dominant(300, nnz_per_row=6, margin=0.2, seed=seed)
        return A, lambda rng, k: rng.standard_normal((A.shape[0], k))
    # lsq-kaczmarz. Consistent systems: b = A x for a random x, so the
    # normal equations' residual can reach any tolerance.
    A = random_least_squares(2000, 500, nnz_per_row=5, seed=seed).A
    return A, lambda rng, k: A.matmat(rng.standard_normal((A.shape[1], k)))


def generate(name: str, seed: int, seconds: float) -> Inputs:
    """All inputs of one run, byte-identical for equal arguments."""
    spec = SPECS[name]
    seed = int(seed)
    A, rhs = _matrix(spec)
    rng = np.random.default_rng([seed, 0x5EED])
    counter = itertools.count()
    served: list[np.ndarray] = []  # cold right-hand sides, for repeats

    def request(b: np.ndarray, kind: str) -> Request:
        trace_id = f"w{next(counter)}"
        return Request(trace_id, b, spec.tol, _line(spec, trace_id, b), kind)

    def cold_burst() -> list[Request]:
        if spec.burst == 1:
            return [request(rhs(rng, spec.capacity_k), "cold")]
        block = rhs(rng, spec.burst)
        out = [request(np.ascontiguousarray(block[:, j]), "cold")
               for j in range(spec.burst)]
        served.extend(r.b for r in out)
        return out

    def repeat_burst() -> list[Request]:
        # Repeat right-hand sides served in the last few cold bursts,
        # half bitwise-exact, half perturbed far below the tolerance.
        recent = served[-4 * spec.burst:]
        picks = rng.integers(0, len(recent), spec.burst)
        out = []
        for j, p in enumerate(picks):
            b = recent[int(p)]
            if j % 2:
                noise = rng.standard_normal(b.shape)
                scale = NEAR_PERTURBATION * spec.tol * np.linalg.norm(b)
                b = b + noise * (scale / np.linalg.norm(noise))
                out.append(request(b, "near"))
            else:
                out.append(request(b.copy(), "exact"))
        return out

    def burst_at(i: int) -> list[Request]:
        if spec.cache and i % spec.cold_every:
            return repeat_burst()
        return cold_burst()

    inputs = Inputs(spec, A)
    # Warm-up bursts are always cold: they spawn the pool and, on the
    # caching workload, seed the entries the first repeats read.
    inputs.warmup = [cold_burst() for _ in range(spec.warmup_bursts)]
    inputs.bursts = [burst_at(i) for i in range(timed_bursts(spec, seconds))]
    return inputs

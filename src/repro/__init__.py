"""repro — asynchronous randomized linear solvers.

A from-scratch Python reproduction of

    Haim Avron, Alex Druinsky, Anshul Gupta.
    "Revisiting Asynchronous Linear Solvers: Provable Convergence Rate
    Through Randomization." IPDPS 2014 / arXiv:1304.6475.

Quick start::

    from repro import AsyRGS, social_media_problem

    prob = social_media_problem(n_terms=500, n_docs=2000, n_labels=4)
    solver = AsyRGS(prob.G, prob.B, nproc=16)
    result = solver.solve(tol=1e-4, max_sweeps=50)

Package map (the README's "Layout" section maps the source tree):

* :mod:`repro.core` — randomized Gauss-Seidel, AsyRGS, least squares,
  step-size control, and the computable convergence theory;
* :mod:`repro.execution` — delay models, the bounded-delay simulators,
  the in-process worker-thread pools, and the machine cost
  model;
* :mod:`repro.sparse` — the CSR sparse-matrix substrate;
* :mod:`repro.rng` — counter-based (Philox) random numbers;
* :mod:`repro.krylov` — CG, flexible CG, preconditioners;
* :mod:`repro.estimation` — eigenvalue / condition-number estimation;
* :mod:`repro.workloads` — problem generators;
* :mod:`repro.serve` — the solver server: request queue + batching over
  one persistent worker pool (``repro serve``);
* :mod:`repro.bench` — the experiment drivers behind ``benchmarks/``.
"""

from .core import AsyRGS, randomized_gauss_seidel
from .execution import (
    AsyRK,
    AsyncSimulator,
    MachineModel,
    PhasedSimulator,
    ProcessAsyRGS,
)
from .krylov import (
    AsyRGSPreconditioner,
    conjugate_gradient,
    flexible_conjugate_gradient,
)
from .workloads import laplacian_2d, social_media_problem

__version__ = "1.0.0"

__all__ = [
    "AsyRGS",
    "AsyRGSPreconditioner",
    "AsyRK",
    "AsyncSimulator",
    "MachineModel",
    "PhasedSimulator",
    "ProcessAsyRGS",
    "conjugate_gradient",
    "flexible_conjugate_gradient",
    "laplacian_2d",
    "randomized_gauss_seidel",
    "social_media_problem",
    "__version__",
]

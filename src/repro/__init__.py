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

from .core import (
    AsyRGS,
    AsyRGSResult,
    AsyncLeastSquares,
    ConvergenceHistory,
    randomized_gauss_seidel,
    rcd_least_squares,
    relative_residual,
)
from .execution import (
    AsyRK,
    AsyncSimulator,
    MachineModel,
    PhasedSimulator,
    ProcessAsyRGS,
    make_solver,
)
from .krylov import (
    AsyRGSPreconditioner,
    block_conjugate_gradient,
    conjugate_gradient,
    flexible_conjugate_gradient,
)
from .sparse import COOBuilder, CSRMatrix
from .rng import CounterRNG, DirectionStream
from .estimation import condest, spectrum_estimate
from .workloads import (
    get_problem,
    laplacian_2d,
    social_media_problem,
)

__version__ = "1.0.0"

__all__ = [
    "AsyRGS",
    "AsyRGSPreconditioner",
    "AsyRGSResult",
    "AsyRK",
    "AsyncLeastSquares",
    "AsyncSimulator",
    "COOBuilder",
    "CSRMatrix",
    "ConvergenceHistory",
    "CounterRNG",
    "DirectionStream",
    "MachineModel",
    "PhasedSimulator",
    "ProcessAsyRGS",
    "block_conjugate_gradient",
    "condest",
    "conjugate_gradient",
    "flexible_conjugate_gradient",
    "get_problem",
    "laplacian_2d",
    "make_solver",
    "randomized_gauss_seidel",
    "rcd_least_squares",
    "relative_residual",
    "social_media_problem",
    "spectrum_estimate",
    "__version__",
]

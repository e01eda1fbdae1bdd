"""End-to-end integration tests: whole pipelines across modules."""

import numpy as np
import pytest

from repro import (
    AsyRGS,
    AsyRGSPreconditioner,
    conjugate_gradient,
    flexible_conjugate_gradient,
    randomized_gauss_seidel,
)
from repro.core import relative_residual
from repro.estimation import spectrum_estimate
from repro.rng import DirectionStream
from repro.sparse import symmetric_rescale
from repro.workloads import get_problem, social_media_problem


class TestSolveEveryWorkload:
    # Tolerances scale with each problem's conditioning so the Gauss-
    # Seidel-rate solves stay test-sized (the 2-D Laplacian's κ grows
    # with the grid, and GS needs O(κ) sweeps).
    # err_tol accounts for each problem's conditioning: the solution
    # error can exceed the residual tolerance by a factor of κ.
    @pytest.mark.parametrize(
        "name,tol,max_sweeps,err_tol",
        [
            ("laplace2d", 1e-5, 1500, 3e-2),
            ("laplace3d", 1e-8, 1500, 1e-5),
            ("diagdom", 1e-8, 300, 1e-6),
            ("banded", 1e-8, 300, 1e-6),
            ("unitdiag", 1e-8, 600, 1e-6),
        ],
    )
    def test_asyrgs_solves_registry_problem(self, name, tol, max_sweeps, err_tol):
        prob = get_problem(name)
        solver = AsyRGS(prob.A, prob.b, nproc=8)
        result = solver.solve(tol=tol, max_sweeps=max_sweeps, sync_every_sweeps=10)
        assert result.converged, f"AsyRGS failed on {name}"
        if prob.x_star is not None:
            rel = np.linalg.norm(result.x - prob.x_star) / np.linalg.norm(prob.x_star)
            assert rel < err_tol

    @pytest.mark.parametrize("name", ["banded", "unitdiag"])
    def test_cg_matches_asyrgs_solution(self, name):
        prob = get_problem(name)
        cg = conjugate_gradient(prob.A, prob.b, tol=1e-10)
        asy = AsyRGS(prob.A, prob.b, nproc=4).solve(
            tol=1e-10, max_sweeps=2000, sync_every_sweeps=10
        )
        assert cg.converged and asy.converged
        np.testing.assert_allclose(cg.x, asy.x, atol=1e-6)


class TestUnitDiagonalPipeline:
    def test_solve_original_system_via_rescaling(self):
        """The full Section-3 pipeline: rescale to unit diagonal, solve,
        map back — against a direct solve of the original system."""
        from repro.workloads import laplacian_3d

        B_orig = laplacian_3d(8, 8, 8)
        z = np.sin(np.arange(B_orig.shape[0], dtype=float))
        A_unit, d = symmetric_rescale(B_orig)
        r = randomized_gauss_seidel(A_unit, z / d, sweeps=1200, tol=1e-12)
        assert r.converged
        y = r.x / d
        direct = conjugate_gradient(B_orig, z, tol=1e-13)
        np.testing.assert_allclose(y, direct.x, atol=1e-7)

    def test_rescaled_iteration_matches_general_iteration(self):
        """Leventhal–Lewis: iteration (3) on B equals iteration (1) on the
        rescaled system through y = D⁻¹x, when driven by the same
        directions."""
        prob = get_problem("banded")
        B_orig, z = prob.A, prob.b
        n = prob.n
        A_unit, d = symmetric_rescale(B_orig)
        b_unit = z / d
        r_gen = randomized_gauss_seidel(
            B_orig, z, sweeps=3, directions=DirectionStream(n, seed=3),
            record_history=False,
        )
        r_unit = randomized_gauss_seidel(
            A_unit, b_unit, sweeps=3, directions=DirectionStream(n, seed=3),
            record_history=False,
        )
        np.testing.assert_allclose(
            r_gen.x, r_unit.x / d, rtol=1e-10, atol=1e-12
        )


class TestSocialPipeline:
    @pytest.fixture(scope="class")
    def prob(self):
        return social_media_problem(
            n_terms=150, n_docs=600, n_labels=3, mean_doc_len=8, seed=3
        )

    def test_low_accuracy_multirhs_solve(self, prob):
        """The paper's standalone use case: all labels solved together to
        low accuracy, asynchronously."""
        solver = AsyRGS(prob.G, prob.B, nproc=16)
        result = solver.solve(tol=1e-3, max_sweeps=600)
        assert result.converged
        assert relative_residual(prob.G, result.x, prob.B) < 1e-3

    def test_high_accuracy_via_fcg(self, prob):
        """The paper's preconditioner use case: FCG + AsyRGS to 1e-8."""
        b = prob.B[:, 0].copy()
        M = AsyRGSPreconditioner(prob.G, sweeps=2, nproc=8, jitter=2)
        r = flexible_conjugate_gradient(
            prob.G, b, preconditioner=M, tol=1e-8, max_iterations=2000
        )
        assert r.converged
        plain = conjugate_gradient(prob.G, b, tol=1e-8, max_iterations=10000)
        assert r.iterations < plain.iterations

    def test_spectrum_diagnostics(self, prob):
        """The κ-estimation pipeline runs on the rescaled Gram and
        reports ill-conditioning."""
        A_unit, _ = symmetric_rescale(prob.G)
        est = spectrum_estimate(A_unit, steps=60, seed=1)
        assert est.kappa > 50


class TestTraceRoundTrip:
    def test_io_trace_replay_pipeline(self, tmp_path):
        """Persist a matrix, reload it, replay a recorded execution on the
        reloaded copy — full determinism across I/O."""
        from repro.execution import AsyncSimulator, UniformDelay, replay_trace
        from repro.sparse import read_matrix_market, write_matrix_market

        prob = get_problem("unitdiag")
        n = prob.n
        path = tmp_path / "m.mtx"
        write_matrix_market(prob.A, path)
        A2 = read_matrix_market(path)
        sim = AsyncSimulator(
            prob.A, prob.b, delay_model=UniformDelay(6, seed=1),
            directions=DirectionStream(n, seed=2), record_trace=True,
        )
        out = sim.run(np.zeros(n), 5 * n)
        replayed = replay_trace(out.trace, np.zeros(n))
        np.testing.assert_array_equal(replayed, out.x)
        # The reloaded matrix produces the identical execution.
        sim2 = AsyncSimulator(
            A2, prob.b, delay_model=UniformDelay(6, seed=1),
            directions=DirectionStream(n, seed=2), record_trace=True,
        )
        out2 = sim2.run(np.zeros(n), 5 * n)
        np.testing.assert_array_equal(out.x, out2.x)

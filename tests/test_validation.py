"""The shared ShapeError wording table (:mod:`repro.validation`).

Every engine and the façade must reject a malformed right-hand side
with the *same* error text — the table is the contract. These tests pin
the wording identity across entry points and the two negative cases the
engines historically leaked NumPy internals for: wrong-dtype ``b`` and
(the positive case) non-contiguous ``b`` blocks, which must simply
work. The multiprocess variants live in
``tests/execution/test_processes.py``; everything here is tier-1.
"""

import numpy as np
import pytest

from repro.core import AsyRGS
from repro.core.least_squares import (
    AsyncLeastSquares,
    normal_equations,
    rcd_least_squares,
)
from repro.exceptions import ShapeError
from repro.execution import (
    AsyncSimulator,
    AsyRK,
    PhasedSimulator,
    ProcessAsyRGS,
    ZeroDelay,
)
from repro.rng import DirectionStream
from repro.validation import check_rhs, check_x0
from repro.workloads import random_least_squares, random_unit_diagonal_spd


@pytest.fixture(scope="module")
def system():
    A = random_unit_diagonal_spd(20, nnz_per_row=3, offdiag_scale=0.5, seed=4)
    n = A.shape[0]
    rng = DirectionStream(n, seed=17)
    X = np.column_stack(
        [rng.directions(j * n, n).astype(np.float64) / n - 0.5 for j in range(3)]
    )
    return A, A.matmat(X)


def entry_points(A):
    """Every constructor that applies the shared b contract. The pool
    backends validate in the constructor and spawn no worker there."""
    return {
        "facade-phased": lambda b: AsyRGS(A, b, nproc=2, engine="phased"),
        "facade-general": lambda b: AsyRGS(A, b, nproc=2, engine="general"),
        "phased": lambda b: PhasedSimulator(A, b, nproc=2),
        "general": lambda b: AsyncSimulator(A, b, delay_model=ZeroDelay()),
        "processes": lambda b: ProcessAsyRGS(A, b, nproc=2),
        "asyrk": lambda b: AsyRK(A, b, nproc=2),
    }


class TestWordingTable:
    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(7),  # wrong rows
            np.zeros((7, 2)),  # wrong rows, block
            np.zeros((20, 2, 2)),  # wrong ndim
        ],
        ids=["rows-vector", "rows-block", "ndim"],
    )
    def test_same_message_from_every_entry_point(self, system, bad):
        """One malformed b, one message — byte-identical across the
        façade, both simulators, and both pool backends."""
        A, _ = system
        messages = set()
        for name, make in entry_points(A).items():
            with pytest.raises(ShapeError) as err:
                make(bad)
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    def test_complex_b_rejected_everywhere(self, system):
        A, B = system
        bad = B.astype(np.complex128)
        messages = set()
        for name, make in entry_points(A).items():
            with pytest.raises(ShapeError, match="cannot be converted") as err:
                make(bad)
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    def test_string_b_rejected(self, system):
        A, _ = system
        with pytest.raises(ShapeError, match="cannot be converted"):
            AsyRGS(A, ["not", "numbers"] * 10)

    def test_ragged_b_rejected(self, system):
        A, _ = system
        with pytest.raises(ShapeError, match="cannot be converted"):
            AsyRGS(A, [[1.0], [1.0, 2.0]])

    def test_capacity_wording_names_the_fix(self, system):
        A, B = system
        solver = ProcessAsyRGS(A, B[:, 0], nproc=1, capacity_k=2)
        with pytest.raises(ShapeError) as err:
            solver._check_b(B)  # 3 columns > capacity 2
        assert "capacity_k >= 3" in str(err.value)

    def test_x0_wording_uniform(self, system):
        A, B = system
        wrong = np.zeros(5)
        messages = set()
        with pytest.raises(ShapeError) as err:
            AsyRGS(A, B[:, 0], nproc=2, engine="phased").run_sweeps(1, wrong)
        messages.add(str(err.value))
        pool = ProcessAsyRGS(A, B[:, 0], nproc=2)
        with pytest.raises(ShapeError) as err:
            pool.run(wrong, 10)
        messages.add(str(err.value))
        assert pool.spawn_count == 0  # rejected before any worker starts
        assert len(messages) == 1, messages
        assert "x0 has shape" in messages.pop()


class TestRectangularWordingTable:
    """The same table serves the rectangular entry points: the scalar
    least-squares paths validate through ``check_vector_rhs`` and AsyRK
    through ``check_rhs``, so a malformed ``b`` on an m×n system fails
    with wording from :mod:`repro.validation` everywhere."""

    @pytest.fixture(scope="class")
    def rect(self):
        return random_least_squares(30, 8, nnz_per_row=4, seed=2).A

    @staticmethod
    def vector_entry_points(A):
        """Every rectangular constructor with the vector-b contract."""
        return {
            "normal-equations": lambda b: normal_equations(A, b),
            "rcd": lambda b: rcd_least_squares(A, b, iterations=1),
            "async-ls": lambda b: AsyncLeastSquares(A, b),
        }

    def test_vector_paths_share_wording(self, rect):
        """Wrong-rows b: one message across all three scalar paths, and
        it is exactly the shared vector wording for m=30."""
        bad = np.zeros(7)
        messages = set()
        for name, make in self.vector_entry_points(rect).items():
            with pytest.raises(ShapeError) as err:
                make(bad)
            messages.add(str(err.value))
        assert messages == {"b has shape (7,), expected (30,)"}

    def test_vector_paths_share_dtype_wording(self, rect):
        bad = np.zeros(30, dtype=np.complex128)
        messages = set()
        for name, make in self.vector_entry_points(rect).items():
            with pytest.raises(ShapeError, match="cannot be converted") as err:
                make(bad)
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    def test_asyrk_matches_the_spd_table(self, rect):
        """AsyRK's block contract on an m-equation rectangle produces
        byte-identical wording to an m×m SPD system's — the table is
        keyed by row count, not by matrix shape."""
        m = rect.shape[0]
        spd = random_unit_diagonal_spd(
            m, nnz_per_row=3, offdiag_scale=0.4, seed=0
        )
        for bad in (np.zeros(7), np.zeros((7, 2)), np.zeros((m, 2, 2))):
            with pytest.raises(ShapeError) as rk_err:
                AsyRK(rect, bad, nproc=1)
            with pytest.raises(ShapeError) as gs_err:
                AsyRGS(spd, bad, nproc=2, engine="phased")
            assert str(rk_err.value) == str(gs_err.value)

    def test_asyrk_empty_block_wording(self, rect):
        with pytest.raises(ShapeError, match="at least one column"):
            AsyRK(rect, np.empty((rect.shape[0], 0)), nproc=1)


class TestNonContiguousBlocks:
    """Strided (non-contiguous) RHS blocks must be accepted and solved
    identically to their contiguous copies on every engine."""

    @staticmethod
    def strided_copy(B):
        wide = np.empty((B.shape[0], 2 * B.shape[1]))
        wide[:, ::2] = B
        view = wide[:, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        return view

    @pytest.mark.parametrize("engine", ["phased", "general"])
    def test_simulated_engines(self, system, engine):
        A, B = system
        strided = self.strided_copy(B)
        res_s = AsyRGS(A, strided, nproc=2, engine=engine).run_sweeps(
            2, record_history=False
        )
        res_c = AsyRGS(
            A, np.ascontiguousarray(B), nproc=2, engine=engine
        ).run_sweeps(2, record_history=False)
        np.testing.assert_array_equal(res_s.x, res_c.x)


class TestHelpers:
    def test_check_rhs_passthrough(self, system):
        A, B = system
        out = check_rhs(B, A.shape[0])
        assert out is B  # float64 input passes through untouched

    def test_check_rhs_converts_ints(self, system):
        A, _ = system
        out = check_rhs([1] * A.shape[0], A.shape[0])
        assert out.dtype == np.float64

    def test_check_rhs_empty_block(self, system):
        A, _ = system
        with pytest.raises(ShapeError, match="at least one column"):
            check_rhs(np.empty((A.shape[0], 0)), A.shape[0])

    def test_check_x0_shape_and_dtype(self):
        with pytest.raises(ShapeError, match="x0 has shape"):
            check_x0(np.zeros(3), (4,))
        with pytest.raises(ShapeError, match="cannot be converted"):
            check_x0(np.zeros(4, dtype=np.complex128), (4,))

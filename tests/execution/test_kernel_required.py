"""Pools refuse to start without the native kernel.

The native segment kernel is the pools' only update path. With the
module switched off, as here, or impossible to build (no cffi, no C
compiler), every way to build a pool raises the one error of
:func:`~repro.execution.pool.require_kernel`: constructing a pool
solver or a sharded solver, checking a solver choice, registering a
matrix for serving (as a :class:`ServeError`), and a pool solve on the
command line (one ``error:`` line and exit code 2). Each refuses before
any shared-memory segment or worker process exists.
"""

import numpy as np
import pytest

from repro import _native
from repro.cli import main
from repro.exceptions import ModelError, ServeError
from repro.execution import AsyRK, ProcessAsyRGS, ShardedSolver, check_solver
from repro.execution.pool import require_kernel
from repro.serve import MatrixRegistry
from repro.sparse import write_matrix_market
from repro.workloads import random_least_squares, random_unit_diagonal_spd

A = random_unit_diagonal_spd(16, nnz_per_row=3, offdiag_scale=0.4, seed=2)
B = A.matvec(np.ones(16))
LSQ = random_least_squares(30, 10, nnz_per_row=3, seed=1)

#: No test here may leave a segment or a process behind (each refuses
#: before either exists).
pytestmark = pytest.mark.usefixtures("no_leaks")


def _message() -> str:
    with _native.forced(False), pytest.raises(ModelError) as info:
        require_kernel()
    return str(info.value)


def test_the_message_names_what_to_install():
    message = _message()
    assert "cffi" in message and "C compiler" in message


@pytest.mark.parametrize("build", [
    lambda: ProcessAsyRGS(A, B, nproc=2),
    lambda: AsyRK(LSQ.A, LSQ.b, nproc=2),
    lambda: ShardedSolver(A, B, shards=2, nproc=1),
    lambda: check_solver("asyrgs"),
], ids=["ProcessAsyRGS", "AsyRK", "ShardedSolver", "check_solver"])
def test_pools_refuse_without_the_kernel(build):
    with _native.forced(False), pytest.raises(ModelError) as info:
        build()
    assert str(info.value) == _message()


def test_registration_refuses_without_the_kernel():
    with MatrixRegistry(nproc=1) as registry:
        with _native.forced(False), pytest.raises(ServeError) as info:
            registry.register("m", A)
        assert str(info.value) == _message()
        assert registry.matrices_payload() == []


@pytest.mark.parametrize("flags", [
    ["--engine", "processes"],
    ["--method", "asyrk"],
    ["--shards", "2"],
], ids=["processes", "asyrk", "shards"])
def test_cli_pool_solve_refuses_without_the_kernel(flags, tmp_path, capsys):
    path = tmp_path / "system.mtx"
    write_matrix_market(A, path)
    with _native.forced(False):
        code = main(["solve", str(path), *flags])
    out, err = capsys.readouterr()
    assert code == 2
    errors = [line for line in out.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {_message()}"]
    assert "compiler" in errors[0]
    assert "Traceback" not in out + err

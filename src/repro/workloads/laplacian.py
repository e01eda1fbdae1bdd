"""Grid Laplacians — the paper's "reference scenario" matrices.

The analysis targets large sparse SPD matrices whose row counts lie in a
narrow band ``[C₁, C₂]`` (Section 1, "reference scenario"); discretized
Laplacians are the canonical family. Provided here: 1D/2D/3D
Dirichlet grid Laplacians (3-/5-/7-point stencils).
"""

from __future__ import annotations

from ..exceptions import ModelError
from ..sparse import COOBuilder, CSRMatrix

__all__ = [
    "laplacian_1d",
    "laplacian_2d",
    "laplacian_3d",
]


def laplacian_1d(n: int) -> CSRMatrix:
    """Tridiagonal ``[−1, 2, −1]`` Dirichlet Laplacian of size n (SPD)."""
    n = int(n)
    if n < 1:
        raise ModelError(f"need n >= 1, got {n}")
    b = COOBuilder(n, n)
    for i in range(n):
        b.add(i, i, 2.0)
        if i + 1 < n:
            b.add_symmetric(i, i + 1, -1.0)
    return b.to_csr()


def laplacian_2d(nx: int, ny: int | None = None) -> CSRMatrix:
    """5-point Dirichlet Laplacian on an ``nx × ny`` grid (SPD)."""
    nx = int(nx)
    ny = int(ny) if ny is not None else nx
    if nx < 1 or ny < 1:
        raise ModelError(f"grid dimensions must be positive, got ({nx}, {ny})")
    n = nx * ny
    b = COOBuilder(n, n)

    def idx(i: int, j: int) -> int:
        return i * ny + j

    for i in range(nx):
        for j in range(ny):
            p = idx(i, j)
            b.add(p, p, 4.0)
            if i + 1 < nx:
                b.add_symmetric(p, idx(i + 1, j), -1.0)
            if j + 1 < ny:
                b.add_symmetric(p, idx(i, j + 1), -1.0)
    return b.to_csr()


def laplacian_3d(nx: int, ny: int | None = None, nz: int | None = None) -> CSRMatrix:
    """7-point Dirichlet Laplacian on an ``nx × ny × nz`` grid (SPD)."""
    nx = int(nx)
    ny = int(ny) if ny is not None else nx
    nz = int(nz) if nz is not None else nx
    if nx < 1 or ny < 1 or nz < 1:
        raise ModelError(f"grid dimensions must be positive, got ({nx}, {ny}, {nz})")
    n = nx * ny * nz
    b = COOBuilder(n, n)

    def idx(i: int, j: int, k: int) -> int:
        return (i * ny + j) * nz + k

    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                p = idx(i, j, k)
                b.add(p, p, 6.0)
                if i + 1 < nx:
                    b.add_symmetric(p, idx(i + 1, j, k), -1.0)
                if j + 1 < ny:
                    b.add_symmetric(p, idx(i, j + 1, k), -1.0)
                if k + 1 < nz:
                    b.add_symmetric(p, idx(i, j, k + 1), -1.0)
    return b.to_csr()

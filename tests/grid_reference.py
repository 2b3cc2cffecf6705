"""Finite-difference references on a spectral grid that no library code
uses: the generators of a generic representation as grid operators,
Richardson-extrapolated eigenvalues, and the reduced resolvent solved on
the full grid."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from engellab.spectral import (
    Generic,
    OperatorMatrix,
    SpectralGrid,
    SpectralParam,
    box_grid,
    build_hamiltonian,
    eigen_lowest,
)


@dataclass
class InfinitesimalOp:
    """Generator d/dt pi(Exp(t Xi))|_0 as a grid operator.

    Diagonal for X2, X3, X4; X1 is the central-difference derivative.
    """

    grid: SpectralGrid
    diagonal: np.ndarray | None  # None encodes d_xi

    def apply(self, phi: np.ndarray) -> np.ndarray:
        if self.diagonal is not None:
            return self.diagonal * phi
        out = np.zeros_like(phi, dtype=complex)
        h = self.grid.h
        out[1:-1] = (phi[2:] - phi[:-2]) / (2 * h)
        out[0] = phi[1] / (2 * h)  # Dirichlet ghost values
        out[-1] = -phi[-2] / (2 * h)
        return out


def infinitesimal(param: Generic, i: int, grid: SpectralGrid) -> InfinitesimalOp:
    """pi(Xi) for a generic parameter."""
    if not isinstance(param, Generic):
        raise TypeError("infinitesimal generators are realized for Generic only")
    xi = grid.nodes
    d, b = param.delta, param.beta
    if i == 1:
        return InfinitesimalOp(grid, None)
    if i == 2:
        return InfinitesimalOp(grid, 1j * (b + 0.5 * d * xi**2))
    if i == 3:
        return InfinitesimalOp(grid, 1j * d * xi)
    if i == 4:
        return InfinitesimalOp(grid, np.full(grid.N, 1j * d))
    raise ValueError(f"generator index must be 1..4, got {i}")


def eigenvalues_extrapolated(param: SpectralParam, k: int, N: int = 4096,
                             grid: SpectralGrid | None = None) -> np.ndarray:
    """Richardson-extrapolated eigenvalues from grids N and 2N.

    The three-point stencil carries an O(h^2) eigenvalue bias; combining
    (4 mu_{2N} - mu_N)/3 cancels it, leaving O(h^4).
    """
    if grid is None:
        grid = box_grid(param, k, N)
    coarse = eigen_lowest(build_hamiltonian(param, grid), k).eigenvalues
    fine = eigen_lowest(build_hamiltonian(param, grid.refined()), k).eigenvalues
    return (4.0 * fine - coarse) / 3.0


def deflated_solve(op: OperatorMatrix, mu: float, phi: np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    """u with (mu - H) u = Pi_perp rhs and <u, phi> = 0 on the full grid,
    phi the mu-eigenvector: one banded LU of the singular mu - H between two
    projections off phi, with no parity split and no normalization.  The
    reference route for `spectral._reduced_resolvent`."""
    grid = op.grid
    rhs_p = rhs - phi * grid.inner(rhs, phi)
    ab = np.empty((3, grid.N))
    ab[0] = ab[2] = -op.offdiag
    ab[1] = mu - op.diagonal
    u = solve_banded((1, 1), ab, rhs_p)
    return u - phi * grid.inner(u, phi)

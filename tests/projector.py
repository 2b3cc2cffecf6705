"""Rank-one spectral projector Pi_n and its beta-derivative, built on
`spectral_data`; a test reference, refused on near-degenerate levels."""

from dataclasses import dataclass

import numpy as np

from engellab.spectral import SpectralData, SpectralGrid, solve_lowest, spectral_data

_GAP_RTOL = 1e-8  # smallest spectral gap, relative to max(|mu|, 1), for dPi_n


@dataclass
class ProjectorPair:
    """Rank-one projector onto phi_n and its beta-derivative."""

    data: SpectralData

    def project(self, u: np.ndarray) -> np.ndarray:
        d = self.data
        return d.phi * complex(d.grid.inner(u, d.phi))

    def apply_derivative(self, u: np.ndarray) -> np.ndarray:
        """dPi_n u = |dphi><phi| u + |phi><dphi| u."""
        d = self.data
        return d.dphi * complex(d.grid.inner(u, d.phi)) + d.phi * complex(
            d.grid.inner(u, d.dphi)
        )


def projector_derivative(delta: float, beta: float, n: int,
                         grid: SpectralGrid | None = None,
                         N: int = 4096) -> ProjectorPair:
    """dPi_n from the eigenvector derivative; refuses on near-degenerate levels."""
    data = spectral_data(delta, beta, n, grid=grid, N=N)
    # the gap at n needs level n + 1, which spectral_data does not solve
    mus = solve_lowest(data.param, n + 1, grid=data.grid).eigenvalues
    below = abs(mus[n - 1] - mus[n - 2]) if n >= 2 else np.inf
    gap = min(below, abs(mus[n] - mus[n - 1]))
    if gap < _GAP_RTOL * max(1.0, abs(data.mu)):
        raise RuntimeError(
            f"spectral gap {gap:.3g} at level {n} below threshold; "
            "projector derivative is ill-conditioned"
        )
    return ProjectorPair(data)

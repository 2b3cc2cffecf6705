"""Pointwise evaluation of the packet ansatz and its correctors, built on
`wavepacket`'s machinery and term tables; a test reference for the exact
fibre sums, which evaluate the packet at no point.

The machinery holds coefficient vectors on Hermite functions; `on_grid`
samples them on a grid by the three-term recurrence, for the coefficient
kernel of `fourier`.  Batches of points are GroupElements with (M,) float
coordinate arrays, and every product, inverse and dilation goes through
the group law in `algebra`: the arguments are hbar^{-1}.(x0^{-1} x) and
hbar^{-1/2}.(Exp(-d_beta mu_n t X2) x0^{-1} x), with the center x(t) from
the machinery.  (M, 4) coordinate arrays appear only at the coefficient
kernel and as an accepted input form.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from algebra_reference import dilate

from engellab.algebra import HOMOGENEOUS_DIMENSION, GroupElement, exp_basis, inverse, multiply
from engellab.fourier import matrix_coefficients
from engellab.spectral import Generic, SpectralGrid
from engellab.wavepacket import (
    _SIGMA1,
    _SIGMA2,
    AnsatzOrder,
    WavePacketSpec,
    _ansatz_terms,
    _PacketMachinery,
    _sigma2_sources,
    machinery,
)

Q_QUARTER = HOMOGENEOUS_DIMENSION / 4.0


# the grid the pointwise references sample the packet's vectors on
GRID = SpectralGrid(20.0, 3072)


def hermite_values(m: _PacketMachinery, coefficients: np.ndarray,
                   grid: SpectralGrid) -> np.ndarray:
    """Values on the grid nodes of coefficient vectors (axis 0) on m's
    Hermite functions psi_k(xi) = s^{-1/2} h_k(xi/s):
    h_0 = pi^{-1/4} e^{-x^2/2}, h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1}."""
    x = grid.nodes / m.length
    h = np.empty((len(coefficients), grid.N))
    h[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    h[1] = math.sqrt(2.0) * x * h[0]
    for k in range(1, len(h) - 1):
        h[k + 1] = math.sqrt(2.0 / (k + 1)) * x * h[k] - math.sqrt(k / (k + 1)) * h[k - 1]
    return np.tensordot(h, coefficients, axes=(0, 0)) / math.sqrt(m.length)


@dataclass
class GridPacket:
    """The machinery's images and basis vectors sampled on a grid."""

    grid: SpectralGrid
    param: Generic
    images: dict  # name -> (N, 4)
    basis: dict  # name -> (N,)


@functools.lru_cache(maxsize=8)
def on_grid(spec: WavePacketSpec, grid: SpectralGrid = GRID) -> GridPacket:
    m = machinery(spec)
    images = {k: hermite_values(m, v, grid) for k, v in m.images.items()}
    return GridPacket(grid, Generic(spec.delta0, spec.beta0), images,
                      {k: v[:, 0] for k, v in images.items()})


def _points(x: GroupElement | np.ndarray) -> GroupElement:
    """Points as one GroupElement with float coordinates, from a
    GroupElement or from a (4,) or (..., 4) coordinate array."""
    if isinstance(x, GroupElement):
        return GroupElement(*(np.asarray(c, dtype=float) for c in x))
    return GroupElement(*np.moveaxis(np.atleast_2d(np.asarray(x, dtype=float)), -1, 0))


def _stacked(x: GroupElement) -> np.ndarray:
    """The (..., 4) coordinate array of points held in a GroupElement."""
    return np.stack(tuple(x), axis=-1)


def _scalars(m: _PacketMachinery, t: float, y: GroupElement, kmax: int):
    """(P, y1, profile partials up to kmax) at reduced points y."""
    P = -0.5 * (y.x3 + y.x1 * y.x2)
    return P, y.x1, m.spec.profile.partials(t, m.dispersion, y.x2, y.x4, kmax)


def _evaluate(term: dict, P, y1, partials):
    return sum(c * P**p * y1**q * partials[k2, k4] for (p, q, k2, k4), c in term.items())


def corrector_sigma1(spec: WavePacketSpec, t: float, y: GroupElement | np.ndarray) -> np.ndarray:
    """sigma_1(t, y) Phi1 = -X1a . (xi phi_n) - i X2a . (d_beta phi_n) as coefficients."""
    m = machinery(spec)
    sc = _scalars(m, t, _points(y), 2)
    return sum(_evaluate(tm, *sc) * m.basis[n] for n, tm in _SIGMA1.items())


def corrector_sigma2(spec: WavePacketSpec, t: float, y: GroupElement | np.ndarray) -> np.ndarray:
    """sigma_2(t, y) Phi1 = (mu - H)^{-1} Pi_perp R(t, y) Phi1 as coefficients."""
    m = machinery(spec)
    sc = _scalars(m, t, _points(y), 2)
    return sum(_evaluate(tm, *sc) * m.basis[n] for n, tm in _SIGMA2.items())


def sigma2_diagnostic(spec: WavePacketSpec, t: float, y_points: np.ndarray) -> float:
    """max |<R(t,y) Phi1, phi_n>| over sample points.

    Vanishing diagonal part of R is exactly the solvability condition for
    sigma_2; it holds when the profile satisfies the dispersion equation
    with the same mu_n'' used in the coefficients.  Besides the sources
    of its correctors (`_sigma2_sources`), R holds the identity term
    ((c3 - 1) a_22 - P^2 a_44) phi_n, which Pi_perp removes from sigma_2's
    right side.
    """
    m = machinery(spec)
    sc = _scalars(m, t, _points(y_points), 2)
    diag = _evaluate({(0, 0, 2, 0): m.dispersion - 1.0, (2, 0, 0, 2): -1.0}, *sc)
    sources = _sigma2_sources(m, m.basis["xi_phi"], m.basis["dphi"])
    diag = diag + sum(_evaluate(tm, *sc) * float(sources[n] @ m.basis["phi"])
                      for n, tm in _SIGMA2.items())
    return float(np.max(np.abs(diag)))


def _arguments(m: _PacketMachinery, t: float, x: GroupElement,
               hb: float) -> tuple[np.ndarray, GroupElement]:
    """Representation argument w = hbar^{-1}.(x0^{-1} x), as an (M, 4)
    array, and profile argument y = hbar^{-1/2}.(x(t)^{-1} x) of points x;
    x(t)^{-1} x = Exp(-d_beta mu_n t X2) x0^{-1} x."""
    z0 = multiply(inverse(m.spec.x0_element()), x)
    z = multiply(exp_basis(2, -m.mu_d1 * t), z0)
    return _stacked(dilate(1.0 / hb, z0)), dilate(hb ** (-0.5), z)


def ansatz_values(spec: WavePacketSpec, order: AnsatzOrder, t: float,
                  points: GroupElement | np.ndarray, hbar: float) -> np.ndarray:
    """Evaluate the approximate solution at a batch of points, given as a
    GroupElement with (M,) coordinate arrays or as an (M, 4) array."""
    m, g = machinery(spec), on_grid(spec)
    w, y = _arguments(m, t, _points(points), hbar)
    terms = {n: tm for table in _ansatz_terms(order, hbar) for n, tm in table.items()}
    C = matrix_coefficients(g.param, w, np.column_stack([g.basis[n] for n in terms]),
                            g.basis["phi"], g.grid)
    sc = _scalars(m, t, y, 2)
    vals = sum(_evaluate(tm, *sc) * C[:, j] for j, tm in enumerate(terms.values()))
    return hbar ** (-Q_QUARTER) * np.exp(-1j * m.mu * t / hbar) * vals

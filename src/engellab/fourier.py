"""Realization of the generic part of the unitary dual on spectral grids.

The generic representations act on L^2(R_xi) grid vectors as

    pi(x) phi(xi) = exp[i d (x4 + xi x3 + x1 x3 / 2)]
                    exp[i (b + d (xi + x1)^2 / 2) x2] phi(xi + x1),

with infinitesimal generators pi(X1) = d_xi, pi(X2) = i(b + d xi^2/2),
pi(X3) = i d xi, pi(X4) = i d.  In the shifted variable eta = xi + x1 the
phase is a quadratic in eta whose coefficients depend on x alone; the
matrix-coefficient kernel takes its cos/sin exactly at every node.
Off-node values phi2(eta - x1) come from phi2's not-a-knot cubic spline
(one tridiagonal slope solve, `_spline_table`); the kernel builds phi2's
piece table only when phi2 or the grid differ from its previous call's,
and keeps the last one.

The group Fourier transform F kappa(pi) = int kappa(x) pi(x)* dx of a
product kernel kappa(x) = f1(x1) f2(x2) f3(x3) f4(x4) reduces to the
operator kernel

    K(xi, xi') = f1(xi - xi') f2^(b + d xi^2/2) f3^(d (xi + xi')/2) f4^(d),

where g^ is the 1-D Fourier transform int g(t) exp(-i w t) dt: the x1
integral is pinned by the shift and the remaining three are 1-D factors
(tests/grid_reference.py builds K on a grid, from factors that are sums
of polynomial x Gaussian terms with closed-form transforms).  For a
Gaussian kernel every norm in the Plancherel identity is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import solve_banded

from .algebra import GroupElement
from .spectral import Generic, SpectralGrid

__all__ = [
    "GridMarginError",
    "live_window",
    "matrix_coefficients",
    "matrix_coefficient",
    "plancherel_calibrate",
]


class GridMarginError(ValueError):
    """Shift pushes the vector's support outside the grid box."""


_LIVE_RTOL = 1e-13
_TILE = 128  # points per kernel tile; a tile's (point, node) arrays stay in cache


def _live_range(mags: np.ndarray) -> tuple[int, int]:
    """Index range [lo, hi) of the entries above `_LIVE_RTOL` times the
    largest, padded by two on each side; (0, 0) when mags vanishes."""
    live = np.nonzero(mags > _LIVE_RTOL * mags.max())[0]
    if live.size == 0:
        return 0, 0
    return max(0, int(live[0]) - 2), min(len(mags), int(live[-1]) + 3)


def live_window(V: np.ndarray, grid: SpectralGrid, shifts=0.0) -> tuple[slice, float]:
    """Nodes where some column of V (N, K) is live, and the |xi| they reach.

    A node is live when an entry there exceeds `_LIVE_RTOL` times the
    largest entry of V; the window pads the live range by two nodes.
    Raises GridMarginError when reach + |shift| > L for some shift, since
    interpolating at xi -+ shift would then leave the box.
    """
    live = _live_range(np.max(np.abs(V.reshape(grid.N, -1)), axis=1))
    return _checked_window(live, grid.nodes, grid.L, shifts)


def _checked_window(live: tuple[int, int], nodes: np.ndarray, L: float,
                    shifts) -> tuple[slice, float]:
    """`live_window` from the live range of V on the nodes of [-L, L]."""
    lo, hi = live
    if hi == 0:  # V = 0
        return slice(0, 0), 0.0
    reach = float(max(-nodes[lo], nodes[hi - 1]))
    worst = float(np.max(np.abs(shifts), initial=0.0))
    if reach + worst > L:
        raise GridMarginError(f"shift {worst:.3g} pushes support past the box L = {L:.3g}")
    return slice(lo, hi), reach


def _quadratic_phase(param: Generic, coords: np.ndarray):
    """(a, b, c), each of shape (M,), for points coords (M, 4), with

        pi(x) phi(xi) = exp(i (a + b eta + c eta^2)) phi(eta),  eta = xi + x1:

    a = delta (x4 - x1 x3 / 2) + beta x2, b = delta x3, c = delta x2 / 2.
    """
    x1, x2, x3, x4 = coords.T
    d = param.delta
    return d * (x4 - 0.5 * x1 * x3) + param.beta * x2, d * x3, 0.5 * d * x2


def _spline_table(nodes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, N - 1) of the not-a-knot cubic spline of y on the
    increasing nodes, column i holding piece i, c3 t^3 + c2 t^2 + c1 t + c0
    with t = xi - x_i (rows c3, c2, c1, c0).

    The slopes s at the nodes solve the tridiagonal C2 system with the
    not-a-knot end rows (third derivative continuous across x_1 and
    x_{N-2}); each piece is then the cubic Hermite interpolant of (y, s).
    The equations and their order of operations are those of
    scipy.interpolate.CubicSpline, so the table is bitwise its `.c`.
    Values are cast to float64 or complex128; raises ValueError unless
    there is one finite value per node and at least four nodes.
    """
    x = np.asarray(nodes, dtype=float)
    y = np.asarray(y)
    y = y.astype(complex if np.iscomplexobj(y) else float, copy=False)
    n = len(x)
    if y.shape != (n,):
        raise ValueError(f"need one spline value per node: {y.shape} values, {n} nodes")
    if n < 4:
        raise ValueError("a not-a-knot spline needs at least 4 nodes")
    if not np.all(np.isfinite(y)):
        raise ValueError("spline values must be finite")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    A = np.zeros((3, n))  # banded: upper, main and lower diagonals
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b = np.empty(n, dtype=y.dtype)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    A[1, 0], A[0, 1] = dx[1], d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1], A[-1, -2] = dx[-2], d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _spline_pieces(nodes: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """phi2's `_spline_table` padded to (4, N + 1), column i + 1 holding
    piece i.

    Columns 0 and N are the constant end values: arguments stay inside
    [-L, L], so a piece index of -1 or N - 1 only comes from an argument
    that rounds onto an end node.
    """
    c = _spline_table(nodes, phi2)
    out = np.zeros((4, len(nodes) + 1), dtype=c.dtype)
    out[:, 1:-1] = c
    out[3, 0], out[3, -1] = phi2[0], phi2[-1]
    return out


@dataclass(frozen=True)
class _Prepared:
    """What the kernel needs of phi2 on a grid: the conjugated piece table
    of `_spline_pieces`, the live range `_live_range(|phi2|)` and the nodes."""

    grid: SpectralGrid
    phi2: np.ndarray  # private copy; with grid, dtype and shape the memo key
    pieces: np.ndarray
    live: tuple[int, int]
    nodes: np.ndarray


_last_prepared: _Prepared | None = None


def _prepared(phi2: np.ndarray, grid: SpectralGrid) -> _Prepared:
    """phi2's kernel data, rebuilt only when phi2 or the grid differ from
    the last call's.

    The memo holds the last preparation alone, keyed by the grid, phi2's
    dtype and shape, and its values compared with `np.array_equal`
    against a private copy, so a vector changed in place or a complex
    copy of a real one is prepared anew.  A phi2 the spline refuses
    raises before anything is stored.
    """
    global _last_prepared
    phi2 = np.asarray(phi2)
    last = _last_prepared
    if (last is not None and last.grid == grid and last.phi2.dtype == phi2.dtype
            and last.phi2.shape == phi2.shape and np.array_equal(last.phi2, phi2)):
        return last
    nodes = grid.nodes
    pieces = _spline_pieces(nodes, phi2).conj()
    _last_prepared = _Prepared(grid, phi2.copy(), pieces, _live_range(np.abs(phi2)), nodes)
    return _last_prepared


def matrix_coefficients(param: Generic, coords: np.ndarray, V: np.ndarray,
                        phi2: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """(pi(x_m) v_k, phi2) for points coords (M, 4) and columns V (N, K).

    The shift s = x1 moves onto phi2: with eta = xi + s,

        (pi(x) v, phi2) = h sum_eta v(eta) e^{i theta(eta)} conj(phi2(eta - s)),

    so one cubic spline of phi2 serves every point and column.  Its piece
    table and live range are built when phi2 or the grid differ from the
    previous call's and reused otherwise (`_prepared` keeps the last
    ones; a call reads that memo once); a single column V equal to phi2
    reuses its live range as V's window.  On the uniform grid eta_j - s
    lies in spline piece j + k(s) at an offset t(s) that is the same for
    every j, so a point's row of phi2 values is the cubic in t over a
    contiguous slice of the piece coefficients, and a tile takes its rows
    from one read-only strided view of the table.  Of the phase
    theta = a + b eta + c eta^2 (`_quadratic_phase`), b eta + c eta^2
    takes exact cos/sin at every summed node and e^{ia} multiplies each
    output row once.

    The points are taken in input order in tiles of `_TILE`.  A tile sums
    only over the nodes in the live window of V where phi2(eta - s) is live
    (same `_LIVE_RTOL` rule) for some point of the tile; a tile with no such
    node gives exact zeros.  So a point's value is rounded differently with
    other points in its tile: batched and one-point calls agree to a few
    ulps of the largest coefficient, not bitwise (1.9e-15 of it at most for
    131 points on SpectralGrid(16, 1024) with shifts under 1.5, 4.8e-15
    with shifts up to 8).  Raises GridMarginError when a shift would take
    phi2's argument past the box.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    shifts = coords[:, 0]
    prep = _prepared(phi2, grid)
    if V.shape[1] == 1 and np.array_equal(V[:, 0], prep.phi2):
        # V is phi2: |V| has its prepared live range
        window = _checked_window(prep.live, prep.nodes, grid.L, shifts)[0]
    else:
        window = live_window(V, grid, shifts)[0]
    p0, p1 = prep.live
    xi, h, pieces = prep.nodes, grid.h, prep.pieces
    k = np.floor(-shifts / h).astype(int)
    t = -shifts - k * h
    t2 = t * t  # np.vander's products: t^3 = (t t) t
    powers = np.stack((t2 * t, t2, t, np.ones_like(t)), axis=1)
    pa, pb, pc = _quadratic_phase(param, coords)
    out = np.zeros((len(coords), V.shape[1]), dtype=complex)
    for a in range(0, len(coords), _TILE):
        z = slice(a, a + _TILE)
        kt = k[z]
        j0, j1 = max(window.start, p0 - kt.max()), min(window.stop, p1 - kt.min())
        if j1 <= j0:
            continue
        eta = xi[j0:j1]
        theta = (pb[z, None] + pc[z, None] * eta) * eta
        G = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=G.real)
        np.sin(theta, out=G.imag)
        # conj(phi2) rows: pieces k + j + 1 (padded numbering), j = j0 .. j1 - 1,
        # from sliding_window_view(pieces, j1 - j0, axis=1)'s strided view
        windows = as_strided(pieces, (4, pieces.shape[1] - (j1 - j0) + 1, j1 - j0),
                             (*pieces.strides, pieces.strides[1]), writeable=False)
        rows = windows[:, kt + j0 + 1]
        G *= np.einsum("mp,pmw->mw", powers[z], rows)
        out[z] = (G @ V[j0:j1]) * (h * np.exp(1j * pa[z]))[:, None]
    return out


def matrix_coefficient(param: Generic, x: GroupElement, phi1: np.ndarray,
                       phi2: np.ndarray, grid: SpectralGrid) -> complex:
    """(pi(x) phi1, phi2), summed over the grid nodes as in `matrix_coefficients`."""
    coords = np.array([[float(c) for c in x.coords()]])
    return complex(matrix_coefficients(param, coords, phi1[:, None], phi2, grid)[0, 0])


# ---------------------------------------------------------------------------
# Plancherel calibration of Gaussian product kernels
# ---------------------------------------------------------------------------


@dataclass
class CalibrationReport:
    c_estimates: list[float]
    mean: float
    relative_spread: float


def _transverse_mass(widths: Sequence[float]) -> float:
    """||f1||^2 ||f2^||^2 ||f3^||^2 = w1 sqrt(pi) 2 pi^(3/2) w2 2 pi^(3/2) w3,
    the Gaussian kernel's |delta| int ||F kappa(pi_{delta,beta})||_HS^2 d beta
    over |f4^(delta)|^2.  In u = xi - xi', vtilde = delta (xi + xi')/2 the
    |delta| weight cancels the Jacobian, and f2^(beta + delta xi_eff^2 / 2)
    integrates over beta to ||f2^||^2 whatever the shift."""
    w1, w2, w3, _ = widths
    return (w1 * math.sqrt(math.pi)) * (2.0 * math.pi**1.5 * w3) * (2.0 * math.pi**1.5 * w2)


def plancherel_calibrate(kernel_widths: Sequence[Sequence[float]]) -> CalibrationReport:
    """Parseval ratios c_est = ||kappa||_2^2 / int ||F kappa||_HS^2 |delta| d delta d beta
    of the Gaussian kernels kappa(x) = prod_i exp(-(x_i - c_i)^2 / (2 w_i^2)),
    one per 4-tuple of widths: ||kappa||_2^2 = pi^2 w1 w2 w3 w4, and the
    denominator, delta and beta over the whole line, is `_transverse_mass`
    times int |f4^(delta)|^2 d delta = 2 pi^(3/2) w4; no norm sees a centre.
    Constancy across kernels is the meaningful output."""
    if len(kernel_widths) < 2:
        raise ValueError("need at least two kernels to judge constancy")
    ests = [math.pi**2 * math.prod(w) / (_transverse_mass(w) * 2.0 * math.pi**1.5 * w[3])
            for w in kernel_widths]
    mean = float(np.mean(ests))
    return CalibrationReport(ests, mean, float((max(ests) - min(ests)) / mean))

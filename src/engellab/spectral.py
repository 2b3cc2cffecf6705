"""Finite-difference spectral solver for the sub-Laplacian symbols.

On the generic part of the dual the symbol of the (negative) sub-Laplacian
acts on L^2(R_xi) as

    H(delta, beta) = -d^2/dxi^2 + (beta + (delta/2) xi^2)^2,

and rescaling xi -> |delta|^{-1/3} xi brings it to the Montgomery family

    Htilde(nu) = -d^2/dxi^2 + (nu + xi^2/2)^2,

with eigenvalues mu_n(delta, beta) = delta^{2/3} mutilde_n(beta delta^{-1/3})
(real cube roots for delta < 0); Montgomery(nu) is Generic(1, nu).

Discretization: second-order central differences with Dirichlet walls at
+-L.  Every potential here is even and `build_hamiltonian` mirrors it, so
the symmetric tridiagonal matrix commutes exactly with xi -> -xi and splits
into an even and an odd block of about N/2 rows each.  By the discrete
Sturm oscillation theorem mode j has j - 1 sign changes, so the modes
alternate even, odd, even, ... from the ground state.  On each block,
bisection on Sturm-sequence counts (LAPACK stebz via scipy's
eigh_tridiagonal) certifies which mode is which to 1e-4 E, E the natural
energy |delta|^{2/3} (|lambda| for Schrodinger); inverse iteration (stein)
gives the vectors, which are mirrored to the full grid, exactly even or
odd; and mu is the Rayleigh quotient of the mirrored vector in gradient
form, accurate to ~eps mu where bisection alone stops at ~eps ||H||, with
||H|| ~ 4/h^2.  The wall must clear the confined level by max(E, mu/2).
`eigen_lowest` solves the k lowest modes; `eigen_mode` solves mode n alone,
at its index in its own block, through the same code, and is what
`spectral_data` uses.  Default boxes come from `box_grid`, a closed-form
rule that puts the wall 18 Agmon lengths past the turning point of a bound
on the confined level; it scales with the natural length |delta|^{-1/3}
(|lambda|^{-1/2} for Schrodinger), so the box of Generic(delta, beta) is
|delta|^{-1/3} times that of Montgomery(nu).

Critical points of the Montgomery branches and their curvature reference
come from `dispersion.montgomery_branch` on Hermite functions instead.

Grid functions are normalized in the trapezoid inner product
<u, v> = h * sum(u * conj(v)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded


def real_cbrt(x: float) -> float:
    """Real cube root, odd in x."""
    return np.sign(x) * abs(x) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# dual-set parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Generic:
    """Generic representation parameter (delta, beta), delta != 0."""

    delta: float
    beta: float

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("Generic requires delta != 0; use Schrodinger or Character")


@dataclass(frozen=True)
class Schrodinger:
    """Non-generic infinite-dimensional class, parameter lambda != 0."""

    lam: float

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("Schrodinger requires lambda != 0")


@dataclass(frozen=True)
class Character:
    """One-dimensional character of the first stratum."""

    alpha1: float
    alpha2: float


def Montgomery(nu: float) -> Generic:
    """Rescaled family parameter nu: the generic symbol at delta = 1."""
    return Generic(1.0, nu)


RepParam = Generic | Schrodinger | Character
SpectralParam = Generic | Schrodinger


def potential(param: SpectralParam) -> Callable[[np.ndarray], np.ndarray]:
    """Confining potential of the 1-D symbol for the given parameter."""
    if isinstance(param, Generic):
        d, b = param.delta, param.beta
        return lambda xi: (b + 0.5 * d * xi**2) ** 2
    if isinstance(param, Schrodinger):
        lam = param.lam
        return lambda xi: lam**2 * xi**2
    raise TypeError(f"no 1-D symbol for parameter {param!r}")


class ConfinementError(ValueError):
    """Raised when the Dirichlet box, or a Hermite basis, is too small for the level."""


# ---------------------------------------------------------------------------
# grid and operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform symmetric grid on [-L, L] with N nodes."""

    L: float
    N: int

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("need at least 3 grid nodes")
        if self.L <= 0:
            raise ValueError("box half-width must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.N)

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        return self.h * np.vdot(v, u)  # <u, v> = h sum u conj(v)

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.h * np.sum(np.abs(u) ** 2)))

    def refined(self, factor: int = 2) -> "SpectralGrid":
        return SpectralGrid(self.L, factor * (self.N - 1) + 1)


@dataclass(frozen=True)
class OperatorMatrix:
    """Symmetric tridiagonal -d^2 + V with Dirichlet walls at +-L."""

    grid: SpectralGrid
    diagonal: np.ndarray
    offdiag: float  # constant off-diagonal entry, -1/h^2
    energy_scale: float  # natural energy E of the symbol: |delta|^{2/3} or |lambda|

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diagonal * u
        out[:-1] += self.offdiag * u[1:]
        out[1:] += self.offdiag * u[:-1]
        return out

    def potential_values(self) -> np.ndarray:
        return self.diagonal - 2.0 / self.grid.h**2


def _energy_scale(param: SpectralParam) -> float:
    """Natural energy: mu_n scales as |delta|^{2/3} (generic), |lambda| (Schrodinger)."""
    if isinstance(param, Generic):
        return abs(param.delta) ** (2.0 / 3.0)
    if isinstance(param, Schrodinger):
        return abs(param.lam)
    raise TypeError(f"unsupported parameter {param!r}")


def build_hamiltonian(param: SpectralParam, grid: SpectralGrid) -> OperatorMatrix:
    """Three-point Laplacian plus the diagonal squared potential.

    V is even; it is evaluated on the left half of the nodes (centre
    included) and mirrored, so the diagonal is exactly symmetric although
    linspace nodes are antisymmetric only to ~1 ulp.
    """
    N = grid.N
    V = potential(param)(grid.nodes[: (N + 1) // 2])
    V = np.concatenate([V, V[: N // 2][::-1]])
    h = grid.h
    return OperatorMatrix(grid, 2.0 / h**2 + V, -1.0 / h**2, _energy_scale(param))


# Agmon integral of sqrt(V - mu) from the turning point to the wall: the
# wall error of a level below mu is ~ exp(-2 * _WALL_DECAY)
_WALL_DECAY = 18.0


def _mu_scale_guess(param: SpectralParam, k: int) -> float:
    """Crude upper bound for mu_k used only to size the box."""
    if isinstance(param, Schrodinger):
        return abs(param.lam) * (2 * k + 1)
    if isinstance(param, Generic):
        s = _energy_scale(param)
        nu = param.beta * real_cbrt(param.delta) / s
        return s * (4.0 * (k + 1) ** (4.0 / 3.0) + nu**2 + 2 * abs(nu))
    raise TypeError(f"unsupported parameter {param!r}")


def box_grid(param: SpectralParam, k: int, N: int = 4096) -> SpectralGrid:
    """Default box of N nodes: half-width L with the wall _WALL_DECAY Agmon
    lengths past level k.

    Let mu bound mu_k from above and xi0 be its outer turning point.  Past
    xi0, sqrt(V - mu) >= a (xi^2 - xi0^2) for V = a^2 (xi^2 + b)^2 (generic:
    a = |delta|/2, b = 2 beta/delta; xi0 > 0 because sqrt(mu) > a |b|) and
    sqrt(V - mu) >= |lam| (xi - xi0) for V = lam^2 xi^2, so the Agmon
    integral from xi0 reaches _WALL_DECAY by xi0 + u.  L = 1.1 (xi0 + u),
    and no less than the turning point of 4 mu.
    """
    mu = _mu_scale_guess(param, k)
    if isinstance(param, Schrodinger):
        lam = abs(param.lam)
        xi0, xi4 = np.sqrt(mu) / lam, 2.0 * np.sqrt(mu) / lam
        u = np.sqrt(2.0 * _WALL_DECAY / lam)
    else:
        a, b = 0.5 * abs(param.delta), 2.0 * param.beta / param.delta
        xi0 = np.sqrt(np.sqrt(mu) / a - b)
        xi4 = np.sqrt(2.0 * np.sqrt(mu) / a - b)
        u = min((3.0 * _WALL_DECAY / a) ** (1.0 / 3.0), np.sqrt(_WALL_DECAY / (a * xi0)))
    return SpectralGrid(float(max(1.1 * (xi0 + u), xi4)), N)


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------


@dataclass
class EigenResult:
    """Lowest eigenpairs of an operator; vectors are columns, h-normalized."""

    op: OperatorMatrix  # the operator the pairs were solved on
    eigenvalues: np.ndarray  # shape (k,)
    eigenvectors: np.ndarray  # shape (N, k)

    @property
    def grid(self) -> SpectralGrid:
        return self.op.grid

    def pair(self, n: int) -> tuple[float, np.ndarray]:
        """1-based mode index."""
        return float(self.eigenvalues[n - 1]), self.eigenvectors[:, n - 1]


_EIGEN_RESIDUAL_RTOL = 1e-8  # eigenpair residual bound, relative to max(|mu|, 1)
# bisection tolerance in units of the natural energy E: it only has to tell
# the modes of a block apart; 1e-3 left stein short of the resolvent gate
_BISECT_RTOL = 1e-4


def _parity_block(d: np.ndarray, offdiag: float,
                  parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the even (0) or odd (1) block.

    The unknowns are the left half of the nodes, u_{N-1-i} = +-u_i.  For
    even N the mirror neighbour of node N/2 - 1 is itself, so the last
    diagonal entry becomes d +- offdiag.  For odd N the odd block ends in a
    Dirichlet condition at the centre; the even block keeps the centre
    node, and scaling the other unknowns by sqrt(2) makes its coupling
    sqrt(2) offdiag on both sides, which keeps the block symmetric.
    """
    N = len(d)
    m = N // 2
    if N % 2 == 0:
        block_d = d[:m].copy()
        block_d[-1] += offdiag if parity == 0 else -offdiag
        return block_d, np.full(m - 1, offdiag)
    if parity == 1:
        return d[:m], np.full(m - 1, offdiag)
    block_e = np.full(m, offdiag)
    block_e[-1] *= np.sqrt(2.0)
    return d[: m + 1], block_e


def _solve_modes(op: OperatorMatrix, first: int, last: int,
                 confine_level: int) -> tuple[np.ndarray, np.ndarray]:
    """Certified pairs of modes first..last (1-based) from their parity blocks.

    Mode 2i + 1 + p is the i-th pair of block p, so each block solves only
    the indices of its own modes in the range.  Confinement is checked at
    mode `confine_level`, which must lie in the range.
    """
    N = op.grid.N
    d = op.diagonal
    if np.any(d != d[::-1]):
        raise ValueError("the diagonal is not mirror-symmetric; build the operator "
                         "with build_hamiltonian")
    m = N // 2
    h = op.grid.h
    tol = _BISECT_RTOL * op.energy_scale
    k = last - first + 1
    counted = np.empty(k)
    vecs = np.empty((N, k), order="F")  # contiguous columns, as LAPACK returns them
    for parity in (0, 1):
        lo, hi = (first - parity) // 2, (last - 1 - parity) // 2
        if lo > hi:
            continue
        w, v = eigh_tridiagonal(*_parity_block(d, op.offdiag, parity),
                                select="i", select_range=(lo, hi), tol=tol)
        start = 2 * lo + 1 + parity - first  # column of the block's first mode
        counted[start::2] = w
        # block-orthonormal -> h-weighted orthonormal on the full grid
        half = v[:m] / np.sqrt(2.0 * h)
        cols = vecs[:, start::2]
        cols[:m] = half
        cols[N - m:] = -half[::-1] if parity else half[::-1]
        if N % 2:
            cols[m] = v[m] / np.sqrt(h) if parity == 0 else 0.0
    peak = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[peak, np.arange(k)] < 0, -1.0, 1.0)
    # mu from the Rayleigh quotient in gradient form, h sum ((v_{i+1} - v_i)/h)^2
    # (-offdiag = 1/h^2, Dirichlet zeros past both walls) plus h sum V v^2:
    # no 2/h^2 cancels, so mu is good to ~eps mu where bisection gave eps ||H||
    V = op.potential_values()
    dv = np.diff(vecs, axis=0, prepend=0.0, append=0.0)
    vals = -op.offdiag * h * np.sum(dv * dv, axis=0) + h * (V @ vecs**2)
    # confinement + residual post-conditions
    mu_top = float(vals[confine_level - first])
    V_wall = float(V[-1])
    if V_wall <= mu_top + max(op.energy_scale, 0.5 * abs(mu_top)):
        raise ConfinementError(
            f"V(+-L) = {V_wall:.3g} does not confine level mu = {mu_top:.3g}; "
            f"enlarge the box (L = {op.grid.L})"
        )
    # backward-error floor: inverse iteration delivers ||r|| ~ eps * ||H||
    opnorm = float(np.max(np.abs(d))) + 2.0 * abs(op.offdiag)
    floor = 200.0 * np.finfo(float).eps * opnorm
    # each vector's mode is the one bisection counted at its index
    if np.any(np.abs(vals - counted) > tol + floor):
        raise RuntimeError("inverse iteration left the bisection interval of a mode")
    for j in range(k):
        r = op.apply(vecs[:, j]) - vals[j] * vecs[:, j]
        if op.grid.norm(r) > _EIGEN_RESIDUAL_RTOL * max(abs(vals[j]), 1.0) + floor:
            raise RuntimeError(f"eigen residual too large for mode {first + j}")
    return vals, vecs


def eigen_lowest(op: OperatorMatrix, k: int,
                 confine_level: int | None = None) -> EigenResult:
    """k lowest eigenpairs of the mirror-symmetric tridiagonal operator.

    The operator commutes with xi -> -xi, so it is solved as its even and
    odd blocks of about N/2 rows.  With a negative off-diagonal the j-th
    eigenvector has j - 1 sign changes, so mode 2i + 1 is the i-th even
    pair and mode 2i + 2 the i-th odd one; a tunnelling pair whose values
    come out non-monotone at rounding level keeps these labels.  Vectors
    are exactly even or odd.  Raises ValueError on a diagonal that is not
    mirror-symmetric.  Bisection to `_BISECT_RTOL` E fixes each mode's
    index and mu is the Rayleigh quotient of its vector; a quotient outside
    the bisection interval raises RuntimeError.

    Deterministic sign convention: each vector is positive at the first
    maximum of |phi|; mirror peaks are bitwise equal, so the left one wins
    whatever k is.  Confinement is checked for mode `confine_level`
    (default k); modes above it may be box-limited.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vals, vecs = _solve_modes(op, 1, k, k if confine_level is None else confine_level)
    if k >= 2:
        gaps = np.diff(vals)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.any(gaps < 1e-10 * scale):
            warnings.warn(
                "near-degenerate eigenvalues detected; projector derivatives "
                "will be unreliable at the affected levels",
                stacklevel=2,
            )
    return EigenResult(op, vals, vecs)


def eigen_mode(op: OperatorMatrix, n: int) -> tuple[float, np.ndarray]:
    """Eigenpair n (1-based) alone: `eigen_lowest(op, n).pair(n)` to rounding.

    Only index (n - 1) // 2 of parity block (n - 1) % 2 is bisected and
    inverse-iterated, with the checks of `eigen_lowest`; confinement is
    checked at mode n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vals, vecs = _solve_modes(op, n, n, n)
    return float(vals[0]), vecs[:, 0]


def solve_lowest(param: SpectralParam, k: int, grid: SpectralGrid | None = None,
                 N: int = 4096) -> EigenResult:
    """Build the Hamiltonian on `grid` (default: the box of level k) and
    return the k lowest pairs; confinement is checked at level k."""
    if grid is None:
        grid = box_grid(param, k, N)
    return eigen_lowest(build_hamiltonian(param, grid), k)


# ---------------------------------------------------------------------------
# Feynman-Hellmann machinery
# ---------------------------------------------------------------------------


def _w_values(delta: float, beta: float, grid: SpectralGrid) -> np.ndarray:
    return beta + 0.5 * delta * grid.nodes**2


@dataclass
class SpectralData:
    """Eigen data at one (delta, beta) and its first-order perturbation.

    dphi = d phi_n / d beta is the reduced resolvent of mu_n - H applied to
    d_beta H phi_n = 2 W phi_n; mu_d1/mu_d2 are the Feynman-Hellmann first
    and second derivatives of mu_n in beta (the second uses d_beta^2 H = 2).
    `op` is the operator phi_n was solved on, which the resolvent solves
    reuse.
    """

    param: Generic
    n: int
    grid: SpectralGrid
    mu: float
    phi: np.ndarray
    dphi: np.ndarray
    mu_d1: float
    mu_d2: float
    op: OperatorMatrix

    @property
    def w(self) -> np.ndarray:
        return _w_values(self.param.delta, self.param.beta, self.grid)


def spectral_data(delta: float, beta: float, n: int, grid: SpectralGrid | None = None,
                  N: int = 4096) -> SpectralData:
    """Eigenpair n, its beta-derivative and the FH derivatives of mu_n.

    Solves for mode n alone (`eigen_mode`; the default box is that of level
    n + 1, confinement is checked at n) and takes dphi = (mu_n - H)^{-1}
    Pi_perp (2 W phi_n) from one deflated tridiagonal solve, kept on phi_n's
    parity, so that mu_n'' = 2 + 2 <2 W phi_n, dphi>.  No neighbouring
    level is solved, so a tunnelling pair (e.g. n = 1 at beta = -40) gives
    no near-degeneracy warning; the resolvent's residual gate is what
    refuses a level too close to its neighbours.
    """
    param = Generic(delta, beta)
    if grid is None:
        grid = box_grid(param, n + 1, N)
    op = build_hamiltonian(param, grid)
    mu, phi = eigen_mode(op, n)
    dH_phi = 2.0 * _w_values(delta, beta, grid) * phi
    mu_d1 = float(grid.inner(dH_phi, phi).real)
    # 2 W phi_n has phi_n's parity and H commutes with the mirror, so dphi
    # has it too; the other parity is rounding amplified by 1/gap
    dphi = _deflated_solve(op, mu, phi, dH_phi)
    dphi = 0.5 * (dphi + (-1.0) ** (n - 1) * dphi[::-1])
    mu_d2 = 2.0 + 2.0 * float(grid.inner(dH_phi, dphi).real)
    return SpectralData(param, n, grid, mu, phi, dphi, mu_d1, mu_d2, op)


# worst residual over the default branch sweep is 1.5e-10 of ||rhs||
_RESOLVENT_RTOL = 1e-8


def _deflated_solve(op: OperatorMatrix, mu: float, phi: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """u with (mu - H) u = Pi_perp rhs and <u, phi> = 0, phi the mu-eigenvector.

    mu - H is tridiagonal and singular only along phi: the right side is
    projected off phi, one banded LU solve runs on the matrix as is, and
    the phi-component the near-null direction picks up is projected away.
    Raises when the residual exceeds `_RESOLVENT_RTOL` times ||rhs||.
    """
    grid = op.grid
    rhs_p = rhs - phi * grid.inner(rhs, phi)
    ab = np.empty((3, grid.N))
    ab[0] = ab[2] = -op.offdiag
    ab[1] = mu - op.diagonal
    u = solve_banded((1, 1), ab, rhs_p)
    u = u - phi * grid.inner(u, phi)
    resid = grid.norm(mu * u - op.apply(u) - rhs_p)
    if resid > _RESOLVENT_RTOL * grid.norm(rhs):
        raise RuntimeError(
            f"reduced-resolvent residual {resid:.3g} exceeds "
            f"{_RESOLVENT_RTOL:g} * ||rhs||; "
            "the level is too close to its neighbours"
        )
    return u

"""Finite-difference spectral solver for the sub-Laplacian symbols.

On the generic part of the dual the symbol of the (negative) sub-Laplacian
acts on L^2(R_xi) as

    H(delta, beta) = -d^2/dxi^2 + (beta + (delta/2) xi^2)^2,

and rescaling xi -> |delta|^{-1/3} xi brings it to the Montgomery family

    Htilde(nu) = -d^2/dxi^2 + (nu + xi^2/2)^2,

with eigenvalues mu_n(delta, beta) = delta^{2/3} mutilde_n(beta delta^{-1/3})
(real cube roots for delta < 0); Montgomery(nu) is Generic(1, nu).

Discretization: second-order central differences with Dirichlet walls at
+-L; the matrix is symmetric tridiagonal and eigenpairs are obtained by
bisection on Sturm-sequence counts plus inverse iteration (LAPACK stebz/
stein via scipy's eigh_tridiagonal).  Default boxes come from `box_grid`,
a closed-form rule that puts the wall 18 Agmon lengths past the turning
point of a bound on the confined level; it scales with the natural length
|delta|^{-1/3} (|lambda|^{-1/2} for Schrodinger), so the box of
Generic(delta, beta) is |delta|^{-1/3} times that of Montgomery(nu).

Grid functions are normalized in the trapezoid inner product
<u, v> = h * sum(u * conj(v)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

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
    """Raised when the Dirichlet box is too small for the requested level."""


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

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diagonal * u
        out[:-1] += self.offdiag * u[1:]
        out[1:] += self.offdiag * u[:-1]
        return out

    def potential_values(self) -> np.ndarray:
        return self.diagonal - 2.0 / self.grid.h**2


def build_hamiltonian(param: SpectralParam, grid: SpectralGrid) -> OperatorMatrix:
    """Three-point Laplacian plus the diagonal squared potential."""
    V = potential(param)(grid.nodes)
    h = grid.h
    return OperatorMatrix(grid, 2.0 / h**2 + V, -1.0 / h**2)


# Agmon integral of sqrt(V - mu) from the turning point to the wall: the
# wall error of a level below mu is ~ exp(-2 * _WALL_DECAY)
_WALL_DECAY = 18.0


def _mu_scale_guess(param: SpectralParam, k: int) -> float:
    """Crude upper bound for mu_k used only to size the box."""
    if isinstance(param, Schrodinger):
        return abs(param.lam) * (2 * k + 1)
    if isinstance(param, Generic):
        s = abs(param.delta) ** (2.0 / 3.0)
        nu = param.beta * real_cbrt(param.delta) / abs(param.delta) ** (2.0 / 3.0)
        return s * (4.0 * (k + 1) ** (4.0 / 3.0) + nu**2 + 2 * abs(nu))
    raise TypeError(f"unsupported parameter {param!r}")


def _box_half_width(param: SpectralParam, k: int) -> float:
    """Half-width L with the wall _WALL_DECAY Agmon lengths past level k.

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
    return float(max(1.1 * (xi0 + u), xi4))


def box_grid(params: Sequence[SpectralParam], k: int, N: int = 4096) -> SpectralGrid:
    """Smallest default box confining level k for every parameter given."""
    return SpectralGrid(max(_box_half_width(p, k) for p in params), N)


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------


@dataclass
class EigenResult:
    """Lowest eigenpairs on a grid; vectors are columns, h-normalized."""

    grid: SpectralGrid
    eigenvalues: np.ndarray  # shape (k,)
    eigenvectors: np.ndarray  # shape (N, k)

    def pair(self, n: int) -> tuple[float, np.ndarray]:
        """1-based mode index."""
        return float(self.eigenvalues[n - 1]), self.eigenvectors[:, n - 1]

    def gap(self, n: int) -> float:
        mus = self.eigenvalues
        if len(mus) <= n:
            raise ValueError("request more eigenpairs to know the gap")
        below = abs(mus[n - 1] - mus[n - 2]) if n >= 2 else np.inf
        return float(min(below, abs(mus[n] - mus[n - 1])))


_PEAK_RTOL = 1e-8  # mirror peaks differ by rounding, 1e-13..1e-10 relative
_EIGEN_RESIDUAL_RTOL = 1e-8  # eigenpair residual bound, relative to max(|mu|, 1)
_GAP_RTOL = 1e-8  # smallest spectral gap, relative to max(|mu|, 1), for dPi_n


def eigen_lowest(op: OperatorMatrix, k: int,
                 confine_level: int | None = None) -> EigenResult:
    """k lowest eigenpairs of the tridiagonal operator.

    Deterministic sign convention: each vector is positive at the leftmost
    node where |phi| is within `_PEAK_RTOL` of its maximum.  The potentials
    are even, so odd modes have two mirror peaks that differ only by
    rounding; the tolerance makes the left one win whatever k is.
    Confinement is checked for mode `confine_level` (default k); modes
    above it may be box-limited.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    N = op.grid.N
    d = op.diagonal
    e = np.full(N - 1, op.offdiag)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    h = op.grid.h
    vecs = vecs / np.sqrt(h)  # Euclidean-orthonormal -> h-weighted orthonormal
    for j in range(k):
        v = vecs[:, j]
        mag = np.abs(v)
        peak = int(np.argmax(mag >= (1.0 - _PEAK_RTOL) * mag.max()))
        if v[peak] < 0:
            vecs[:, j] = -v
    # confinement + residual post-conditions
    if confine_level is None:
        confine_level = k
    mu_top = float(vals[confine_level - 1])
    V_wall = float(op.potential_values()[-1])
    if V_wall <= mu_top + max(1.0, 0.5 * abs(mu_top)):
        raise ConfinementError(
            f"V(+-L) = {V_wall:.3g} does not confine level mu = {mu_top:.3g}; "
            f"enlarge the box (L = {op.grid.L})"
        )
    # backward-error floor: inverse iteration delivers ||r|| ~ eps * ||H||
    opnorm = float(np.max(np.abs(d))) + 2.0 * abs(op.offdiag)
    floor = 200.0 * np.finfo(float).eps * opnorm
    for j in range(k):
        r = op.apply(vecs[:, j]) - vals[j] * vecs[:, j]
        if op.grid.norm(r) > _EIGEN_RESIDUAL_RTOL * max(abs(vals[j]), 1.0) + floor:
            raise RuntimeError(f"eigen residual too large for mode {j + 1}")
    if k >= 2:
        gaps = np.diff(vals)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.any(gaps < 1e-10 * scale):
            warnings.warn(
                "near-degenerate eigenvalues detected; projector derivatives "
                "will be unreliable at the affected levels",
                stacklevel=2,
            )
    return EigenResult(op.grid, vals, vecs)


def solve_lowest(param: SpectralParam, k: int, grid: SpectralGrid | None = None,
                 N: int = 4096) -> EigenResult:
    """Build the Hamiltonian on `grid` (default: the box of level k) and
    return the k lowest pairs; confinement is checked at level k."""
    if grid is None:
        grid = box_grid([param], k, N)
    return eigen_lowest(build_hamiltonian(param, grid), k)


def eigenvalues_extrapolated(param: SpectralParam, k: int, N: int = 4096,
                             grid: SpectralGrid | None = None) -> np.ndarray:
    """Richardson-extrapolated eigenvalues from grids N and 2N.

    The three-point stencil carries an O(h^2) eigenvalue bias; combining
    (4 mu_{2N} - mu_N)/3 cancels it, leaving O(h^4).
    """
    if grid is None:
        grid = box_grid([param], k, N)
    coarse = eigen_lowest(build_hamiltonian(param, grid), k).eigenvalues
    fine = eigen_lowest(build_hamiltonian(param, grid.refined()), k).eigenvalues
    return (4.0 * fine - coarse) / 3.0


def montgomery_mu(nu: float, n: int, N: int = 4096) -> float:
    """mutilde_n(nu) = mu_n(1, nu), Richardson-extrapolated."""
    return generic_mu(1.0, nu, n, N=N)


def generic_mu(delta: float, beta: float, n: int, N: int = 4096) -> float:
    """mu_n(delta, beta), Richardson-extrapolated."""
    return float(eigenvalues_extrapolated(Generic(delta, beta), n, N=N)[n - 1])


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
    `eigen` holds the pairs up to level n + 1, enough for the gap at n.
    """

    param: Generic
    n: int
    grid: SpectralGrid
    mu: float
    phi: np.ndarray
    dphi: np.ndarray
    mu_d1: float
    mu_d2: float
    eigen: EigenResult

    @property
    def w(self) -> np.ndarray:
        return _w_values(self.param.delta, self.param.beta, self.grid)


def spectral_data(delta: float, beta: float, n: int, grid: SpectralGrid | None = None,
                  N: int = 4096) -> SpectralData:
    """Eigenpair n, its beta-derivative and the FH derivatives of mu_n.

    Solves for n + 1 eigenpairs and takes dphi = (mu_n - H)^{-1} Pi_perp
    (2 W phi_n) from one deflated tridiagonal solve, so that
    mu_n'' = 2 + 2 <2 W phi_n, dphi>.
    """
    param = Generic(delta, beta)
    res = solve_lowest(param, n + 1, grid=grid, N=N)
    grid = res.grid
    mu, phi = res.pair(n)
    dH_phi = 2.0 * _w_values(delta, beta, grid) * phi
    mu_d1 = float(grid.inner(dH_phi, phi).real)
    dphi = _deflated_solve(build_hamiltonian(param, grid), mu, phi, dH_phi)
    mu_d2 = 2.0 + 2.0 * float(grid.inner(dH_phi, dphi).real)
    return SpectralData(param, n, grid, mu, phi, dphi, mu_d1, mu_d2, res)


def mu_beta_derivative(delta: float, beta: float, n: int,
                       grid: SpectralGrid | None = None, N: int = 4096) -> float:
    """d mu_n / d beta via the Feynman-Hellmann expectation <2 W phi, phi>."""
    param = Generic(delta, beta)
    res = solve_lowest(param, n, grid=grid, N=N)
    mu, phi = res.pair(n)
    w = _w_values(delta, beta, res.grid)
    return float(res.grid.inner(2.0 * w * phi, phi).real)


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
    gap = data.eigen.gap(n)
    if gap < _GAP_RTOL * max(1.0, abs(data.mu)):
        raise RuntimeError(
            f"spectral gap {gap:.3g} at level {n} below threshold; "
            "projector derivative is ill-conditioned"
        )
    return ProjectorPair(data)


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


def reduced_resolvent_solve(data: SpectralData, rhs: np.ndarray) -> np.ndarray:
    """Solve (mu_n - H) u = rhs on the orthogonal complement of phi_n.

    The right side is projected off phi_n first, and the result satisfies
    <u, phi_n> = 0; real and complex right sides are both accepted.
    """
    return _deflated_solve(build_hamiltonian(data.param, data.grid), data.mu,
                           data.phi, rhs)


# ---------------------------------------------------------------------------
# branch sampling / CSV export
# ---------------------------------------------------------------------------


def branch_rows_csv(rows: Sequence[dict]) -> str:
    """CSV of sampled branch rows, every float at full (.17g) precision."""
    return "n,delta,beta,mu,dmu_dbeta,d2mu_dbeta2,grid_L,grid_N\n" + "".join(
        "{n},{delta:.17g},{beta:.17g},{mu:.17g},{dmu_dbeta:.17g},"
        "{d2mu_dbeta2:.17g},{grid_L:.17g},{grid_N}\n".format(**r) for r in rows
    )


def sample_branch(n: int, delta: float, betas: Sequence[float],
                  N: int = 4096) -> list[dict]:
    """Rows of mu_n(delta, .) with first and second FH derivatives.

    For the Montgomery family pass delta = 1 and betas = nus.
    """
    rows = []
    for beta in betas:
        data = spectral_data(delta, float(beta), n, N=N)
        rows.append(
            dict(
                n=n,
                delta=delta,
                beta=float(beta),
                mu=data.mu,
                dmu_dbeta=data.mu_d1,
                d2mu_dbeta2=data.mu_d2,
                grid_L=data.grid.L,
                grid_N=data.grid.N,
            )
        )
    return rows

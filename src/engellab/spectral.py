"""Finite-difference spectral solver for the sub-Laplacian symbols.

On the generic part of the dual the symbol of the (negative) sub-Laplacian
acts on L^2(R_xi) as

    H(delta, beta) = -d^2/dxi^2 + (beta + (delta/2) xi^2)^2,

and rescaling xi -> |delta|^{-1/3} xi brings it to the Montgomery family

    Htilde(nu) = -d^2/dxi^2 + (nu + xi^2/2)^2,

with eigenvalues mu_n(delta, beta) = delta^{2/3} mutilde_n(beta delta^{-1/3})
(real cube roots for delta < 0); Htilde(nu) is H(1, nu).

Discretization: second-order central differences with Dirichlet walls at
+-L.  The potential is even and `build_hamiltonian` mirrors it, so
the symmetric tridiagonal matrix commutes exactly with xi -> -xi and splits
into an even and an odd block of about N/2 rows each.  By the discrete
Sturm oscillation theorem mode j has j - 1 sign changes, so the modes
alternate even, odd, even, ... from the ground state.  On its block,
bisection on Sturm-sequence counts (LAPACK dstebz) certifies which mode is
which to 1e-4 E, E the natural energy |delta|^{2/3}; inverse iteration
(dstein) gives the vector; and mu is its Rayleigh quotient in gradient
form, accurate to ~eps mu where bisection alone stops at ~eps ||H||, with
||H|| ~ 4/h^2.  These and the checks run on the block; vectors are
mirrored to the full grid, exactly even or odd, on return.  The wall must
clear the confined level by max(E, mu/2).
`eigen_mode` solves mode n alone, at its index in its own block, and is
what `spectral_data` uses; `eigen_lowest` stacks it for n = 1..k.  Its
reduced resolvent on the block is the banded LU with Nelson's
normalization (`_resolve`) that the Hermite blocks of `dispersion` and
`wavepacket` share.  Default boxes come from `box_grid`, a closed-form
rule that puts the wall 18 Agmon lengths past the turning point of a bound
on the confined level; it scales with the natural length |delta|^{-1/3},
so the box of Generic(delta, beta) is |delta|^{-1/3} times that of
Generic(1, nu).

Critical points of the Montgomery branches and their curvature reference
come from `dispersion.montgomery_branch` on Hermite functions instead;
`cli` checks `spectral_data` against them, on the cones in `smicro-profile`
and at the ends of each swept branch in `dispersion`.

Grid functions are normalized in the grid inner product
<u, v> = h * sum(u * conj(v)).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv, dstebz, dstein


def real_cbrt(x: float) -> float:
    """Real cube root, odd in x."""
    return np.sign(x) * abs(x) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# the generic representation parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Generic:
    """Generic representation parameter (delta, beta), delta != 0."""

    delta: float
    beta: float

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("Generic requires delta != 0")


def _integral_mode(n) -> None:
    """ValueError naming n unless the mode index is an integer (NumPy's
    included); a float n would only fail later, at a slice or an index."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"the mode index n must be an integer, got n = {n!r}")


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

    def refined(self) -> "SpectralGrid":
        return SpectralGrid(self.L, 2 * (self.N - 1) + 1)


@dataclass(frozen=True)
class OperatorMatrix:
    """Symmetric tridiagonal -d^2 + V with Dirichlet walls at +-L."""

    grid: SpectralGrid
    diagonal: np.ndarray
    offdiag: float  # constant off-diagonal entry, -1/h^2
    energy_scale: float  # natural energy E of the symbol, |delta|^{2/3}

    def apply(self, u: np.ndarray) -> np.ndarray:
        return _tridiagonal_apply(self.diagonal, self.offdiag, u)

    def potential_values(self) -> np.ndarray:
        return self.diagonal - 2.0 / self.grid.h**2


def _tridiagonal_apply(d, e, u: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix (diagonal d, off-diagonal e) times u."""
    out = d * u
    out[:-1] += e * u[1:]
    out[1:] += e * u[:-1]
    return out


def build_hamiltonian(param: Generic, grid: SpectralGrid) -> OperatorMatrix:
    """Three-point Laplacian plus the diagonal potential (beta + delta xi^2/2)^2.

    V is even; it is evaluated on the left half of the nodes (centre
    included) and mirrored, so the diagonal is exactly symmetric although
    linspace nodes are antisymmetric only to ~1 ulp.
    """
    N = grid.N
    d, b = param.delta, param.beta
    V = (b + 0.5 * d * grid.nodes[: (N + 1) // 2] ** 2) ** 2
    V = np.concatenate([V, V[: N // 2][::-1]])
    h = grid.h
    return OperatorMatrix(grid, 2.0 / h**2 + V, -1.0 / h**2, abs(d) ** (2.0 / 3.0))


# Agmon integral of sqrt(V - mu) from the turning point to the wall: the
# wall error of a level below mu is ~ exp(-2 * _WALL_DECAY)
_WALL_DECAY = 18.0


def _mu_scale_guess(param: Generic, k: int) -> float:
    """Crude upper bound for mu_k used only to size the box."""
    s = abs(param.delta) ** (2.0 / 3.0)
    nu = param.beta * real_cbrt(param.delta) / s
    return s * (4.0 * (k + 1) ** (4.0 / 3.0) + nu**2 + 2 * abs(nu))


def box_grid(param: Generic, k: int, N: int = 4096) -> SpectralGrid:
    """Default box of N nodes: half-width L with the wall _WALL_DECAY Agmon
    lengths past level k.

    Let mu bound mu_k from above and xi0 be its outer turning point.  Past
    xi0, sqrt(V - mu) >= a (xi^2 - xi0^2) for V = a^2 (xi^2 + b)^2 with
    a = |delta|/2 and b = 2 beta/delta (xi0 > 0 because sqrt(mu) > a |b|),
    so the Agmon integral from xi0 reaches _WALL_DECAY by xi0 + u.
    L = 1.1 (xi0 + u), and no less than the turning point of 4 mu.
    """
    mu = _mu_scale_guess(param, k)
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
    if parity == 1:  # one row at N = 3, where LAPACK's wrappers still want an e entry
        return d[:m], np.full(max(m - 1, 1), offdiag)
    block_e = np.full(m, offdiag)
    block_e[-1] *= np.sqrt(2.0)
    return d[: m + 1], block_e


def _mirror(x: np.ndarray, parity: int, h: float, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the exactly even (parity 0) or odd grid function(s) u of
    block coordinates x = sqrt(2h) u (sqrt(h) u at an odd grid's centre)."""
    N = len(out)
    m = N // 2
    out[:m] = x[:m] / np.sqrt(2.0 * h)
    out[N - m:] = -out[m - 1::-1] if parity else out[m - 1::-1]
    if N % 2:
        out[m] = x[m] / np.sqrt(h) if parity == 0 else 0.0
    return out


def eigen_mode(op: OperatorMatrix, n: int) -> tuple[float, np.ndarray]:
    """Eigenpair n (1-based) of the mirror-symmetric tridiagonal operator.

    Mode 2i + 1 is the i-th pair of the even block and mode 2i + 2 the i-th
    of the odd one, so only that index of that block is bisected and
    inverse-iterated; a tunnelling pair whose values come out non-monotone
    at rounding level keeps these labels.  Raises ValueError on a diagonal
    that is not mirror-symmetric, RuntimeError when mu, the Rayleigh
    quotient of the vector, leaves the bisection interval of index n, and
    ConfinementError when the wall does not confine mode n.  The vector is
    exactly even or odd and positive at the first maximum of |phi|; mirror
    peaks are bitwise equal, so the left one wins.
    """
    _integral_mode(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    N = op.grid.N
    d = op.diagonal
    if (d != d[::-1]).any():
        raise ValueError("the diagonal is not mirror-symmetric; build the operator "
                         "with build_hamiltonian")
    m, h, V = N // 2, op.grid.h, op.potential_values()
    tol = _BISECT_RTOL * op.energy_scale
    # backward-error floor: inverse iteration delivers ||r|| ~ eps * ||H||
    floor = 200.0 * np.finfo(float).eps * (float(abs(d).max()) + 2.0 * abs(op.offdiag))
    parity, index = (n - 1) % 2, (n - 1) // 2 + 1
    bd, be = _parity_block(d, op.offdiag, parity)
    count, w, iblock, isplit, info = dstebz(bd, be, 2, 0.0, 1.0, index, index, tol, "B")
    if not info:
        x, info = dstein(bd, be, w[:count], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"stebz/stein info {info} on parity block {parity}")
    # mu from the Rayleigh quotient in gradient form: 1/h^2 times the
    # squared differences from the wall's zero on (the last one to the
    # mirror node once for even N, to the centre node twice for odd N)
    # plus V x^2; no 2/h^2 cancels, so mu is good to ~eps mu, not eps ||H||
    dx = x[1:m] - x[:m - 1]
    ends = x[0] ** 2 + ((x[m - 1] - (0.0 if parity else np.sqrt(2.0) * x[m])) ** 2
                        if N % 2 else 2.0 * parity * x[m - 1] ** 2)
    mu = float((-op.offdiag * (np.einsum("ij,ij->j", dx, dx) + ends)
                + V[:len(bd)] @ x**2)[0])
    x = x[:, 0]
    resid = np.linalg.norm(_tridiagonal_apply(bd, be, x) - mu * x)
    phi = _mirror(x, parity, h, np.empty(N))
    # positive at the first maximum of |phi|, which the left half holds
    if phi[abs(phi[:N - m]).argmax()] < 0:
        phi *= -1.0
    # confinement + residual post-conditions
    if V[0] <= mu + max(op.energy_scale, 0.5 * abs(mu)):
        raise ConfinementError(f"V(+-L) = {V[0]:.3g} does not confine level mu = "
                               f"{mu:.3g}; enlarge the box (L = {op.grid.L})")
    # the vector's mode is the one bisection counted at its index
    if abs(mu - w[0]) > tol + floor:
        raise RuntimeError("inverse iteration left the bisection interval of a mode")
    if resid > _EIGEN_RESIDUAL_RTOL * max(abs(mu), 1.0) + floor:
        raise RuntimeError(f"eigen residual too large for mode {n}")
    return mu, phi


def eigen_lowest(op: OperatorMatrix, k: int) -> EigenResult:
    """The k lowest eigenpairs: `eigen_mode(op, n)` for n = 1..k, stacked;
    confinement is checked at each mode."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mus, phis = zip(*(eigen_mode(op, n) for n in range(1, k + 1)))
    return EigenResult(op, np.array(mus), np.column_stack(phis))


def solve_lowest(param: Generic, k: int, grid: SpectralGrid | None = None,
                 N: int = 4096) -> EigenResult:
    """Build the Hamiltonian on `grid` (default: the box of level k) and
    return the k lowest pairs."""
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
    `op` is the operator phi_n and dphi were solved on.
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


# worst residual over the default branch sweep is 1.3e-11 of ||rhs|| (N = 2049: 1.5e-11)
_RESOLVENT_RTOL = 1e-8


def spectral_data(delta: float, beta: float, n: int, grid: SpectralGrid | None = None,
                  N: int = 4096) -> SpectralData:
    """Eigenpair n, its beta-derivative and the FH derivatives of mu_n.

    Solves for mode n alone (`eigen_mode`; the default box is that of level
    n + 1, confinement is checked at n) and takes dphi = (mu_n - H)^{-1}
    Pi_perp (2 W phi_n) from one `_reduced_resolvent` on phi_n's parity
    block, so that mu_n'' = 2 + 2 <2 W phi_n, dphi> and dphi has phi_n's
    parity exactly.  A resolvent residual over `_RESOLVENT_RTOL` ||2 W
    phi_n|| raises: that gate is what refuses a level too close to its
    neighbours.
    """
    param = Generic(delta, beta)
    if grid is None:
        grid = box_grid(param, n + 1, N)
    op = build_hamiltonian(param, grid)
    mu, phi = eigen_mode(op, n)
    parity, h, m = (n - 1) % 2, grid.h, grid.N // 2
    x = phi[: grid.N - m if parity == 0 else m] * np.sqrt(2.0 * h)  # block coordinates
    x[m:] = phi[m:len(x)] * np.sqrt(h)  # an odd grid's centre, in the even block
    dH_x = 2.0 * _w_values(delta, beta, grid)[:len(x)] * x
    bd, be = _parity_block(op.diagonal, op.offdiag, parity)
    u = _reduced_resolvent(np.array([bd, np.append(be[:len(bd) - 1], 0.0)]), mu, x, dH_x)
    mu_d1, mu_d2 = float(dH_x @ x), 2.0 + 2.0 * float(dH_x @ u)
    resid = np.linalg.norm(mu * u - _tridiagonal_apply(bd, be, u) - (dH_x - mu_d1 * x))
    if resid > _RESOLVENT_RTOL * np.linalg.norm(dH_x):
        raise RuntimeError(f"reduced-resolvent residual {resid:.3g} exceeds {_RESOLVENT_RTOL:g}"
                           " * ||rhs||; the level is too close to its neighbours")
    dphi = _mirror(u, parity, h, np.empty(grid.N))
    return SpectralData(param, n, grid, mu, phi, dphi, mu_d1, mu_d2, op)


def _resolve(band: np.ndarray, w: float, r: np.ndarray, i: int | None = None) -> np.ndarray:
    """u (axis 0) with (w - A) u = r on the leading len(r) rows of the
    symmetric banded block A whose lower band, k + 1 rows, is `band`: one
    banded LU (LAPACK dgbsv), given i with Nelson's normalization u_i = 0
    for the eigenvalue w.  k is 1 for a finite-difference block and 2 for
    a Hermite one."""
    k, m = len(band) - 1, len(r)
    # w - A in general band storage, entry (r, c) in row 2k + r - c; the
    # upper band mirrors the lower, and rows 0..k-1 are the LU's fill-in.
    # Fortran order, so dgbsv factors it in place
    ab = np.zeros((3 * k + 1, m), order="F")
    ab[2 * k:] = -band[:, :m]
    for j in range(1, k + 1):
        ab[2 * k - j, j:] = ab[2 * k + j, :-j]
    ab[2 * k] += w
    if i is not None:
        # column i of w - A becomes a unit column, so the other entries of
        # u solve the system without row and column i; row i leaves
        # rounding in u_i, which the normalization sets to zero
        ab[k:, i] = 0.0
        ab[2 * k, i] = 1.0
    *_, u, info = dgbsv(k, k, ab, r, overwrite_ab=1)
    if info:
        raise np.linalg.LinAlgError(f"w - block is degenerate at w = {w} (pivot {info})")
    if i is not None:
        u[i] = 0.0
    return u


def _reduced_resolvent(band: np.ndarray, w: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """u (axis 0) with (w - A) u = Pi_perp r and <u, x> = 0, A the block of
    `_resolve` and x its unit w-eigenvector: `_resolve` of Pi_perp r with
    Nelson's normalization at x's largest entry, then Pi_perp.  u_i = 0
    stands in for <u, x> = 0 until the last projection: the two differ by
    a multiple of x, to which Pi_perp r is orthogonal."""
    u = _resolve(band, w, r - np.multiply.outer(x, x @ r), int(np.argmax(np.abs(x))))
    return u - np.multiply.outer(x, x @ u)

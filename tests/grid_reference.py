"""References on a spectral grid that no library code uses: the Montgomery
parameter, a generic representation applied to a grid vector, its
generators as grid operators, Gaussian product kernels and product-kernel
factors with closed-form 1-D Fourier transforms, the group Fourier
transform of a product kernel with the difference operators Delta_1 and
Delta_2, the harmonic oscillator as a grid operator, Richardson-extrapolated
eigenvalues, and the reduced resolvent solved on the full grid."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from engellab.algebra import WEIGHTS, GroupElement
from engellab.fourier import (
    GridMarginError,
    _quadratic_phase,
    _spline_table,
    live_window,
)
from engellab.spectral import (
    Generic,
    OperatorMatrix,
    SpectralGrid,
    box_grid,
    build_hamiltonian,
    eigen_lowest,
)


def Montgomery(nu: float) -> Generic:
    """Rescaled family parameter nu: the generic symbol at delta = 1."""
    return Generic(1.0, nu)


def rep_apply(param: Generic, x: GroupElement, phi: np.ndarray,
              grid: SpectralGrid) -> np.ndarray:
    """Apply the representation of x to a grid vector; phi(. + s), s = x1,
    comes from phi's not-a-knot cubic spline, zero outside the box."""
    coords = np.array([[float(v) for v in x.coords()]])
    s = coords[0, 0]
    live_window(phi, grid, s)
    nodes = grid.nodes
    target = nodes + s
    i = np.clip(np.searchsorted(nodes, target, side="right") - 1, 0, grid.N - 2)
    c3, c2, c1, c0 = _spline_table(nodes, phi)[:, i]
    t = target - nodes[i]
    t2 = t * t
    shifted = (c0 + c1 * t + c2 * t2 + c3 * (t2 * t)).astype(complex)
    shifted[(target < -grid.L) | (target > grid.L)] = 0.0
    (a,), (b,), (c,) = _quadratic_phase(param, coords)
    return shifted * np.exp(1j * (a + (b + c * target) * target))


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


def harmonic(lam: float, grid: SpectralGrid) -> OperatorMatrix:
    """The harmonic oscillator -d^2 + lam^2 xi^2, levels |lam| (2k - 1), on
    the grid as `build_hamiltonian` builds a symbol: V on the left half of
    the nodes (centre included), mirrored, and natural energy |lam|."""
    N = grid.N
    V = lam**2 * grid.nodes[: (N + 1) // 2] ** 2
    V = np.concatenate([V, V[: N // 2][::-1]])
    h = grid.h
    return OperatorMatrix(grid, 2.0 / h**2 + V, -1.0 / h**2, abs(lam))


def eigenvalues_extrapolated(param: Generic, k: int, N: int = 4096,
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


# ---------------------------------------------------------------------------
# product kernels, their group Fourier transform and Delta_1, Delta_2
# ---------------------------------------------------------------------------


def _moment_transform(omegas: np.ndarray, c: float, w: float, p: int) -> np.ndarray:
    """F_p(omega) = int (t - c)^p exp(-(t - c)^2 / (2 w^2)) exp(-i omega t) dt.

    F_0 = w sqrt(2 pi) exp(-i omega c - w^2 omega^2 / 2); integrating
    (t - c) G = -w^2 G' by parts gives F_{k+1} = w^2 (k F_{k-1} - i omega F_k).
    """
    prev = 0.0
    cur = w * math.sqrt(2 * math.pi) * np.exp(-1j * omegas * c - 0.5 * (w * omegas) ** 2)
    for k in range(p):
        prev, cur = cur, w**2 * (k * prev - 1j * omegas * cur)
    return cur


@dataclass(frozen=True)
class GaussianKernelSpec:
    """Product Gaussian kappa(x) = prod_i exp(-(x_i - c_i)^2 / (2 w_i^2))."""

    centers: tuple[float, float, float, float]
    widths: tuple[float, float, float, float]


@dataclass(frozen=True)
class Factor1D:
    """One coordinate factor of a product kernel: the finite sum of terms
    a (t - c)^p exp(-(t - c)^2 / (2 w^2)), each given as (a, c, w, p).

    Its support box is [min(c - 10 w), max(c + 10 w)] over the terms.
    """

    terms: tuple[tuple[float, float, float, int], ...]

    def __post_init__(self):
        if not self.terms or any(w <= 0 for _, _, w, _ in self.terms):
            raise ValueError("a factor needs at least one term, each of positive width")

    @property
    def lo(self) -> float:
        return min(c - 10 * w for _, c, w, _ in self.terms)

    @property
    def hi(self) -> float:
        return max(c + 10 * w for _, c, w, _ in self.terms)

    def fn(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return sum(a * (t - c) ** p * np.exp(-((t - c) ** 2) / (2 * w**2))
                   for a, c, w, p in self.terms)

    def transform(self, omegas: np.ndarray) -> np.ndarray:
        """f^(w) = int f(t) exp(-i w t) dt, in closed form term by term."""
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        return sum(a * _moment_transform(omegas, c, w, p) for a, c, w, p in self.terms)


def gaussian_factors(spec: GaussianKernelSpec) -> list[Factor1D]:
    """One single-term Gaussian factor per coordinate of the kernel."""
    return [Factor1D(((1.0, float(c), float(w), 0),))
            for c, w in zip(spec.centers, spec.widths)]


def times_minus_t(f: Factor1D) -> Factor1D:
    """The factor -t f(t); each term splits by -t = -(t - c) - c."""
    return Factor1D(tuple(term for a, c, w, p in f.terms
                          for term in ((-a, c, w, p + 1), (-a * c, c, w, p))))


def l1_norm(f: Factor1D) -> float:
    t = np.linspace(f.lo, f.hi, 8192)
    return float(np.trapezoid(np.abs(f.fn(t)), t))


def dilated(spec: GaussianKernelSpec, r: float) -> GaussianKernelSpec:
    """Kernel x -> kappa(r . x) for the group dilation."""
    return GaussianKernelSpec(
        tuple(c / r**u for c, u in zip(spec.centers, WEIGHTS)),
        tuple(w / r**u for w, u in zip(spec.widths, WEIGHTS)),
    )


@dataclass
class ProductKernel:
    """General product kernel given by four 1-D factors."""

    factors: tuple[Factor1D, Factor1D, Factor1D, Factor1D]

    @staticmethod
    def from_gaussian(spec: GaussianKernelSpec) -> "ProductKernel":
        return ProductKernel(tuple(gaussian_factors(spec)))

    def l1_norm(self) -> float:
        out = 1.0
        for f in self.factors:
            out *= l1_norm(f)
        return out

    def with_coordinate_weight(self, i: int) -> "ProductKernel":
        """Kernel of (-x_i) kappa, the difference-operator source."""
        fs = list(self.factors)
        fs[i - 1] = times_minus_t(fs[i - 1])
        return ProductKernel(tuple(fs))


def fourier_product_kernel(kernel: ProductKernel, param: Generic,
                           grid: SpectralGrid) -> np.ndarray:
    """Group Fourier transform of a product kernel at a generic parameter:
    its operator kernel K (N, N), which acts as grid.h * K @ phi.

    Uses the pinned-shift reduction; the three transverse integrals are
    the closed-form 1-D Fourier transforms of the coordinate factors.
    """
    d, b = param.delta, param.beta
    f1, f2, f3, f4 = kernel.factors
    supp1 = max(abs(f1.lo), abs(f1.hi))
    if supp1 > 2 * grid.L:
        raise GridMarginError("x1 support of the kernel exceeds the grid box")
    xi = grid.nodes
    u = xi[:, None] - xi[None, :]
    col2 = f2.transform(b + 0.5 * d * xi**2)
    k3 = f3.transform(0.5 * d * (xi[:, None] + xi[None, :]))
    k4 = complex(f4.transform(np.array([d]))[0])
    return f1.fn(u) * col2[:, None] * k3 * k4


_BETA_STEP = 1e-3  # central-difference step of d_beta in Delta_2


def difference_op_check(spec: GaussianKernelSpec, index: int, delta: float, beta: float,
                        grid: SpectralGrid | None = None) -> tuple[float, float]:
    """Verify the first two difference-operator formulas in HS norm, as the
    (absolute, relative) deviation.

    Delta_1 F kappa = (i/delta) [pi(X3), F kappa]  and
    Delta_2 F kappa = (1/i) d_beta F kappa; the left sides are Fourier
    transforms of (-x_i) kappa computed independently from the factor
    transforms, the right sides use only the kernel of F kappa itself.
    """
    if index not in (1, 2):
        raise ValueError("only Delta_1 and Delta_2 are realized")
    kern = ProductKernel.from_gaussian(spec)
    if grid is None:
        grid = SpectralGrid(12.0, 768)
    param = Generic(delta, beta)
    lhs = fourier_product_kernel(kern.with_coordinate_weight(index), param, grid)
    if index == 1:
        K = fourier_product_kernel(kern, param, grid)
        xi = grid.nodes
        rhs = -(xi[:, None] - xi[None, :]) * K
    else:
        Kp = fourier_product_kernel(kern, Generic(delta, beta + _BETA_STEP), grid)
        Km = fourier_product_kernel(kern, Generic(delta, beta - _BETA_STEP), grid)
        rhs = (Kp - Km) / (2j * _BETA_STEP)
    dev = float(np.sqrt(np.sum(np.abs(lhs - rhs) ** 2)) * grid.h)
    scale = float(np.sqrt(np.sum(np.abs(rhs) ** 2)) * grid.h)
    return dev, dev / max(scale, 1e-300)

"""Wave packets concentrated at a point of the group and a generic
representation, their corrector hierarchy, and propagation experiments.

A packet with profile a, carrier vectors Phi1 (eigenvector of the symbol
at level n) and Phi2, center x0 and scale hbar is

    psi(x) = hbar^{-7/4} a(hbar^{-1/2}.(x0^{-1} x))
             (pi(hbar^{-1}.(x0^{-1} x)) Phi1, Phi2),

the profile depending only on the (x2, x4) coordinates.  Approximate
evolution takes the phase S(t) = -mu_n t, moves the center along
x(t) = x0 Exp(d_beta mu_n t X2), disperses the profile by

    i d_t a + (d_beta^2 mu_n / 2) d_{x2}^2 a = 0,

and corrects the carrier with sigma_1 (order hbar^{1/2}) and sigma_2
(order hbar), after which the Schrodinger residual
i hbar d_t psi + hbar^2 (X1^2 + X2^2) psi is O(hbar^{3/2}) relative to
||psi||.

The exact L2 norm of the bare packet is hbar^{3/4} sqrt(2 pi / |delta0|)
||a||_{L2} ||Phi1|| ||Phi2||: the coefficient carries the (x1, x3) mass at
scales (hbar, hbar^2) with constant transverse mass (an exact ambiguity-
function identity), while the profile carries (x2, x4) at scales
(hbar^{1/2}, hbar^{3/2}).  Sampling proposals below follow those scales.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .algebra import GroupElement, exp_basis, multiply
from .spectral import (
    SpectralData,
    SpectralGrid,
    reduced_resolvent_solve,
    spectral_data,
)
from .fourier import InfinitesimalOp

Q_QUARTER = 7.0 / 4.0
_WEIGHTS = np.array([1.0, 1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# vectorized group arithmetic on coordinate arrays
# ---------------------------------------------------------------------------


def vmultiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Group product on (..., 4) coordinate arrays."""
    x1, x2, x3, x4 = np.moveaxis(x, -1, 0)
    y1, y2, y3, y4 = np.moveaxis(y, -1, 0)
    return np.stack(
        [
            x1 + y1,
            x2 + y2,
            x3 + y3 - x2 * y1,
            x4 + y4 + 0.5 * (x1 * y3 - x3 * y1) - 0.5 * x1 * x2 * y1,
        ],
        axis=-1,
    )


def vinverse(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = np.moveaxis(x, -1, 0)
    return np.stack([-x1, -x2, -x3 - x2 * x1, -x4], axis=-1)


def vdilate(r: float, x: np.ndarray) -> np.ndarray:
    return x * np.power(r, _WEIGHTS)


def _coords(x: GroupElement) -> np.ndarray:
    return np.array([float(c) for c in x.coords()])


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianProfile:
    """Schwartz profile a(t, y2, y4), Gaussian in both slots.

    The y2 factor evolves under i d_t a + coeff d_2^2 a = 0 in closed form
    (complex-width Gaussian); y4 is a spectator.  All partial derivatives
    entering the correctors are analytic.
    """

    width2: float = 0.45
    width4: float = 0.8
    center2: float = 0.0
    center4: float = 0.0
    amplitude: float = 1.0
    coeff: float = 0.0  # dispersion coefficient; 0 freezes the profile

    def _s(self, t: float) -> complex:
        return self.width2**2 + 2j * self.coeff * t

    def values(self, t: float, y2: np.ndarray, y4: np.ndarray) -> dict[str, np.ndarray]:
        """Profile value and the partials used by sigma_1 / sigma_2."""
        s = self._s(t)
        u2 = np.asarray(y2, dtype=float) - self.center2
        u4 = np.asarray(y4, dtype=float) - self.center4
        G = self.width2 / np.sqrt(s) * np.exp(-(u2**2) / (2 * s))
        g = np.exp(-(u4**2) / (2 * self.width4**2))
        a = self.amplitude * G * g
        d2 = -(u2 / s) * a
        d22 = (u2**2 / s**2 - 1.0 / s) * a
        d4 = -(u4 / self.width4**2) * a
        d44 = (u4**2 / self.width4**4 - 1.0 / self.width4**2) * a
        d24 = -(u2 / s) * d4
        return dict(a=a, d2=d2, d22=d22, d4=d4, d44=d44, d24=d24)

    def evolved_width2(self, t: float) -> float:
        """Dispersed |a|^2 width: w^2 + (2 coeff t / w)^2 in variance form."""
        w = self.width2
        return math.sqrt(w**2 + (2.0 * self.coeff * t / w) ** 2)

    def l2_normsq(self) -> float:
        return self.amplitude**2 * math.pi * self.width2 * self.width4

    def with_coeff(self, coeff: float) -> "GaussianProfile":
        return GaussianProfile(
            self.width2, self.width4, self.center2, self.center4, self.amplitude, coeff
        )


@dataclass
class ProfileState:
    """Complex profile on a periodic x2 grid; x4 enters as a parameter axis."""

    x2: np.ndarray  # (n2,) uniform
    values: np.ndarray  # (n2,) or (n2, n4)
    time: float = 0.0

    def normsq(self) -> float:
        dx = self.x2[1] - self.x2[0]
        return float(np.sum(np.abs(self.values) ** 2) * dx)

    def edge_mass(self) -> float:
        amax = float(np.max(np.abs(self.values)))
        strip = max(2, len(self.x2) // 64)
        edge = max(
            float(np.max(np.abs(self.values[:strip]))),
            float(np.max(np.abs(self.values[-strip:]))),
        )
        return edge / amax if amax else 0.0


def profile_evolve(state: ProfileState, t: float, coeff: float) -> ProfileState:
    """Evolve i d_t a + coeff d_{x2}^2 a = 0 exactly in the Fourier basis.

    The multiplier exp(-i coeff k^2 t) is unimodular, so the discrete norm
    is conserved to rounding; a wrap-around check guards the periodic box.
    """
    n2 = len(state.x2)
    dx = state.x2[1] - state.x2[0]
    k = 2.0 * math.pi * np.fft.fftfreq(n2, d=dx)
    mult = np.exp(-1j * coeff * k**2 * t)
    vals = np.asarray(state.values, dtype=complex)
    if vals.ndim == 1:
        out = np.fft.ifft(mult * np.fft.fft(vals))
    else:
        out = np.fft.ifft(mult[:, None] * np.fft.fft(vals, axis=0), axis=0)
    new = ProfileState(state.x2, out, state.time + t)
    if new.edge_mass() > 1e-8:
        raise ValueError(
            "profile reached the periodic box boundary; enlarge the x2 box"
        )
    return new


# ---------------------------------------------------------------------------
# packet specification and cached machinery
# ---------------------------------------------------------------------------


class AnsatzOrder(enum.Enum):
    LEADING = "leading"
    WITH_SIGMA1 = "sigma1"
    WITH_SIGMA1_AND_2 = "sigma2"


@dataclass(frozen=True)
class WavePacketSpec:
    """Concentration data of a packet; heavy spectral objects are cached."""

    x0: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    delta0: float = 1.0
    beta0: float = 0.0
    n: int = 1
    hbar: float = 0.05
    profile: GaussianProfile = GaussianProfile()
    grid_L: float = 20.0
    grid_N: int = 3072

    def x0_element(self) -> GroupElement:
        return GroupElement(*self.x0)


_BASIS_NAMES = ("phi", "xi_phi", "dphi", "d1_xi_phi", "d1_dphi", "w_xi_phi",
                "w_dphi", "u1", "u2", "u3", "u4", "u5", "u6", "u7")


class _PacketMachinery:
    """Spectral data, corrector basis vectors and fast coefficient kernels."""

    def __init__(self, spec: WavePacketSpec):
        self.spec = spec
        grid = SpectralGrid(spec.grid_L, spec.grid_N)
        self.data: SpectralData = spectral_data(spec.delta0, spec.beta0, spec.n, grid=grid)
        self.grid = grid
        d = self.data
        self.mu = d.mu
        self.speed = d.mu_d1  # transport speed d_beta mu_n
        self.dispersion = 0.5 * d.mu_d2  # profile equation coefficient
        self.profile = spec.profile.with_coeff(self.dispersion)

        xi = grid.nodes
        phi = d.phi
        dphi = d.dphi
        w = d.w
        d1 = InfinitesimalOp(grid, None)
        e = {
            "phi": phi,
            "xi_phi": xi * phi,
            "dphi": dphi,
            "d1_xi_phi": d1.apply(xi * phi).real,
            "d1_dphi": d1.apply(dphi).real,
            "w_xi_phi": w * xi * phi,
            "w_dphi": w * dphi,
        }
        for j, src in enumerate(
            ("xi_phi", "dphi", "d1_xi_phi", "d1_dphi", "w_xi_phi", "w_dphi", "phi"),
            start=1,
        ):
            e[f"u{j}"] = reduced_resolvent_solve(d, e[src]).real
        self.basis = {k: np.asarray(v, dtype=float) for k, v in e.items()}

        self.phi2 = phi  # carrier pairing vector; eigenvector by default
        stack = np.column_stack([self.basis[k] for k in _BASIS_NAMES])
        mags = np.max(np.abs(stack), axis=1)
        live = np.nonzero(mags > 1e-13 * mags.max())[0]
        lo = max(0, int(live[0]) - 2)
        hi = min(grid.N, int(live[-1]) + 3)
        self.window = slice(lo, hi)
        self.stack_win = stack[self.window]  # (K, nb)
        self.xi_win = xi[self.window]
        self._phi2_spline = CubicSpline(xi, self.phi2)
        self.xi_support = max(abs(xi[lo]), abs(xi[hi - 1]))
        # proposal scales for the transverse coefficient directions
        var = float(grid.inner(xi**2 * phi, phi).real)
        self.sigma_xi = math.sqrt(max(var, 1e-12))
        self.u1_scale = 2.0 * self.sigma_xi
        self.u3_scale = 2.0 / (abs(spec.delta0) * self.sigma_xi)

    # -- batched matrix coefficients ---------------------------------------

    def coef_batch(self, w_coords: np.ndarray) -> np.ndarray:
        """C_j(w) = (pi(w) v_j, Phi2) for every basis vector, batched.

        Uses (pi(w) v, Phi2) = h sum_xi v(xi) e^{i theta(xi, w)}
        conj(Phi2(xi - w1)) with the pinned phase
        theta = (beta + delta xi^2/2) w2 + delta (2 xi - w1) w3 / 2 + delta w4.
        """
        d0, b0 = self.spec.delta0, self.spec.beta0
        w1 = w_coords[:, 0]
        if np.any(np.abs(w1) + self.xi_support > self.grid.L):
            raise ValueError(
                "sample shift exceeds the grid margin; enlarge grid_L or "
                "tighten the sampling box"
            )
        out = np.empty((len(w_coords), len(_BASIS_NAMES)), dtype=complex)
        xi = self.xi_win
        chunk = max(1, int(2e6 // len(xi)))
        for k0 in range(0, len(w_coords), chunk):
            sl = slice(k0, k0 + chunk)
            w1c = w1[sl, None]
            w2c = w_coords[sl, 1, None]
            w3c = w_coords[sl, 2, None]
            w4c = w_coords[sl, 3, None]
            theta = (
                (b0 + 0.5 * d0 * xi[None, :] ** 2) * w2c
                + 0.5 * d0 * (2.0 * xi[None, :] - w1c) * w3c
                + d0 * w4c
            )
            shifted = self._phi2_spline(xi[None, :] - w1c)
            G = np.exp(1j * theta) * shifted  # Phi2 real by construction
            out[sl] = self.grid.h * (G @ self.stack_win)
        return out

    def center_coords(self, t: float) -> np.ndarray:
        off = np.array([0.0, self.speed * t, 0.0, 0.0])
        return vmultiply(_coords(self.spec.x0_element()), off)


_machinery_cache: dict[WavePacketSpec, _PacketMachinery] = {}


def machinery(spec: WavePacketSpec) -> _PacketMachinery:
    m = _machinery_cache.get(spec)
    if m is None:
        m = _PacketMachinery(spec)
        if len(_machinery_cache) > 8:
            _machinery_cache.clear()
        _machinery_cache[spec] = m
    return m


@dataclass(frozen=True)
class PhaseAndCenter:
    """Phase S(t) = -mu_n t and moving center x(t) = x0 Exp(speed t X2)."""

    mu: float
    speed: float
    x0: GroupElement

    def phase(self, t: float) -> float:
        return -self.mu * t

    def center(self, t: float) -> GroupElement:
        return multiply(self.x0, exp_basis(2, self.speed * t))


def phase_and_center(spec: WavePacketSpec) -> PhaseAndCenter:
    m = machinery(spec)
    return PhaseAndCenter(m.mu, m.speed, spec.x0_element())


# ---------------------------------------------------------------------------
# correctors
# ---------------------------------------------------------------------------


def _scalar_p(y: np.ndarray) -> np.ndarray:
    """P(y) = -(y3 + y1 y2)/2, the X1-coefficient on x2-x4 profiles."""
    return -0.5 * (y[..., 2] + y[..., 0] * y[..., 1])


def corrector_sigma1(spec: WavePacketSpec, t: float, y: GroupElement | np.ndarray) -> np.ndarray:
    """sigma_1(t, y) Phi1 as a grid vector.

    sigma_1 = (i/delta) X1 a pi(X3) Pi_n - i X2 a dPi_n Pi_n collapses on
    Phi1 to -X1a . (xi phi_n) - i X2a . (d_beta phi_n).
    """
    m = machinery(spec)
    yc = _coords(y) if isinstance(y, GroupElement) else np.asarray(y, dtype=float)
    pv = m.profile.values(t, yc[..., 1], yc[..., 3])
    P = _scalar_p(yc)
    x1a = P * pv["d4"]
    x2a = pv["d2"]
    return -x1a * m.basis["xi_phi"] - 1j * x2a * m.basis["dphi"]


def _sigma2_coeffs(m: _PacketMachinery, t: float, yc: np.ndarray) -> list[np.ndarray]:
    """Coefficients of sigma_2 Phi1 on the resolvent images u1..u7.

    These are the scalar weights of the right-hand side
    R = i c2 X2~ sigma_1 - 2 (pi(V).V) sigma_1 - (i d_t a + Delta a) Id
    applied to Phi1, expanded on (xi phi, dphi, D1 xi phi, D1 dphi,
    W xi phi, W dphi, phi); the left-invariant X2 = d_2 also differentiates
    the P(y) factor, producing the y1 d4 a correction on the W xi phi slot.
    """
    c2 = m.speed
    c3 = m.dispersion
    pv = m.profile.values(t, yc[..., 1], yc[..., 3])
    P = _scalar_p(yc)
    y1 = yc[..., 0]
    a22, a24, a44, a4 = pv["d22"], pv["d24"], pv["d44"], pv["d4"]
    return [
        -1j * c2 * P * a24,                 # u1 <- xi phi
        c2 * a22,                           # u2 <- dphi
        2.0 * P**2 * a44,                   # u3 <- D1(xi phi)
        2j * P * a24,                       # u4 <- D1 dphi
        2j * P * a24 - 1j * y1 * a4,        # u5 <- W xi phi
        -2.0 * a22,                         # u6 <- W dphi
        (c3 - 1.0) * a22 - P**2 * a44,      # u7 <- phi
    ]


def corrector_sigma2(spec: WavePacketSpec, t: float, y: GroupElement | np.ndarray) -> np.ndarray:
    """sigma_2(t, y) Phi1 = (mu - H)^{-1} Pi_perp R(t, y) Phi1 as a grid vector."""
    m = machinery(spec)
    yc = _coords(y) if isinstance(y, GroupElement) else np.asarray(y, dtype=float)
    cs = _sigma2_coeffs(m, t, yc)
    out = np.zeros(m.grid.N, dtype=complex)
    for j, c in enumerate(cs, start=1):
        out = out + c * m.basis[f"u{j}"]
    return out


def sigma2_diagnostic(spec: WavePacketSpec, t: float, y_points: np.ndarray) -> float:
    """max |<R(t,y) Phi1, phi_n>| over sample points.

    Vanishing diagonal part of R is exactly the solvability condition for
    sigma_2; it holds when the profile satisfies the dispersion equation
    with the same grid-level mu_n'' used in the coefficients.
    """
    m = machinery(spec)
    g = m.grid
    src = ("xi_phi", "dphi", "d1_xi_phi", "d1_dphi", "w_xi_phi", "w_dphi", "phi")
    diag = np.array(
        [float(g.inner(m.basis[k], m.basis["phi"]).real) for k in src]
    )
    worst = 0.0
    for y in np.atleast_2d(y_points):
        cs = _sigma2_coeffs(m, t, y)
        val = sum(c * dg for c, dg in zip(cs, diag))
        worst = max(worst, abs(complex(val)))
    return worst


# ---------------------------------------------------------------------------
# ansatz evaluation
# ---------------------------------------------------------------------------


def ansatz_values(spec: WavePacketSpec, order: AnsatzOrder, t: float,
                  coords: np.ndarray, hbar: float | None = None) -> np.ndarray:
    """Evaluate the approximate solution at a batch of points (M, 4)."""
    m = machinery(spec)
    hb = spec.hbar if hbar is None else hbar
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    x0_inv = vinverse(_coords(spec.x0_element()))
    z0 = vmultiply(x0_inv, coords)  # x0^{-1} x
    w = vdilate(1.0 / hb, z0)
    center_off = np.array([0.0, -m.speed * t, 0.0, 0.0])
    z = vmultiply(center_off, z0)  # x(t)^{-1} x
    y = vdilate(hb ** (-0.5), z)

    C = m.coef_batch(w)
    names = list(_BASIS_NAMES)
    pv = m.profile.values(t, y[:, 1], y[:, 3])
    vals = pv["a"] * C[:, names.index("phi")]
    if order in (AnsatzOrder.WITH_SIGMA1, AnsatzOrder.WITH_SIGMA1_AND_2):
        P = _scalar_p(y)
        x1a = P * pv["d4"]
        x2a = pv["d2"]
        vals = vals + math.sqrt(hb) * (
            -x1a * C[:, names.index("xi_phi")] - 1j * x2a * C[:, names.index("dphi")]
        )
    if order is AnsatzOrder.WITH_SIGMA1_AND_2:
        cs = _sigma2_coeffs(m, t, y)
        for j, c in enumerate(cs, start=1):
            vals = vals + hb * c * C[:, names.index(f"u{j}")]
    phase = np.exp(-1j * m.mu * t / hb)
    return hb ** (-Q_QUARTER) * phase * vals


def ansatz_value(spec: WavePacketSpec, order: AnsatzOrder, t: float,
                 x: GroupElement, hbar: float | None = None) -> complex:
    return complex(ansatz_values(spec, order, t, _coords(x)[None, :], hbar=hbar)[0])


def build_wavepacket(spec: WavePacketSpec, x: GroupElement,
                     hbar: float | None = None) -> complex:
    """Value of the bare packet at a point (the t = 0 leading ansatz)."""
    return ansatz_value(spec, AnsatzOrder.LEADING, 0.0, x, hbar=hbar)


def packet_norm_exact(spec: WavePacketSpec, hbar: float | None = None) -> float:
    """Closed-form L2 norm hbar^{3/4} sqrt(2 pi/|delta0|) ||a|| of the packet."""
    hb = spec.hbar if hbar is None else hbar
    m = machinery(spec)
    return (
        hb**0.75
        * math.sqrt(2.0 * math.pi / abs(spec.delta0) * m.profile.l2_normsq())
    )


# ---------------------------------------------------------------------------
# Monte-Carlo sampling of the concentration region
# ---------------------------------------------------------------------------


@dataclass
class _Samples:
    coords: np.ndarray  # (M, 4) group points
    weights: np.ndarray  # 1 / proposal density


def _draw_samples(spec: WavePacketSpec, t: float, hb: float, count: int,
                  rng: np.random.Generator) -> _Samples:
    """Importance samples matched to the packet's concentration geometry.

    z2 and z4 follow the profile at scales hbar^{1/2}, hbar^{3/2}; the
    coefficient directions z1, z3 live at scales hbar, hbar^2 but broaden
    linearly with w2 = z2/hbar (the chirp spreads the transverse mass), so
    their proposal widths are conditioned on the drawn z2.
    """
    m = machinery(spec)
    d0 = abs(spec.delta0)
    sx = m.sigma_xi
    w2t = m.profile.evolved_width2(t)
    s2 = w2t * math.sqrt(hb)
    s4 = m.profile.width4 * hb**1.5

    z2 = rng.standard_normal(count) * s2
    z4 = rng.standard_normal(count) * s4
    w2 = z2 / hb
    s1 = hb * np.maximum(m.u1_scale, 1.3 * d0 * sx**3 * np.abs(w2))
    s3 = hb**2 * np.maximum(m.u3_scale, 1.3 * sx * np.abs(w2))
    # keep representation shifts inside the grid margin; the clipped slices
    # carry profile weight exp(-(y2/width)^2) ~ 0 by construction
    w1_cap = 0.9 * (m.grid.L - m.xi_support) * hb
    s1 = np.minimum(s1, w1_cap / 2.5)
    z1 = rng.standard_normal(count) * s1
    z3 = rng.standard_normal(count) * s3
    z1 = np.clip(z1, -w1_cap, w1_cap)

    z = np.stack([z1, z2, z3, z4], axis=-1)
    scales = np.stack([s1, np.full(count, s2), s3, np.full(count, s4)], axis=-1)
    q = np.prod(
        np.exp(-0.5 * (z / scales) ** 2) / (np.sqrt(2 * np.pi) * scales), axis=1
    )
    center = m.center_coords(t)
    coords = vmultiply(center[None, :], z)
    return _Samples(coords, 1.0 / q)


def packet_norm_estimate(spec: WavePacketSpec, t: float = 0.0,
                         order: AnsatzOrder = AnsatzOrder.LEADING,
                         sample_count: int = 20000, seed: int = 0,
                         hbar: float | None = None) -> tuple[float, float]:
    """Importance-sampled L2 norm of the ansatz and its sampling error."""
    hb = spec.hbar if hbar is None else hbar
    rng = np.random.default_rng(seed)
    s = _draw_samples(spec, t, hb, sample_count, rng)
    vals = np.abs(ansatz_values(spec, order, t, s.coords, hbar=hb)) ** 2 * s.weights
    est = float(np.mean(vals))
    err = float(np.std(vals) / math.sqrt(sample_count))
    return math.sqrt(est), 0.5 * err / math.sqrt(est)


# ---------------------------------------------------------------------------
# Schrodinger residual
# ---------------------------------------------------------------------------


@dataclass
class ResidualEstimate:
    hbar: float
    order: str
    relative: float
    absolute: float
    psi_norm: float
    sampling_error: float  # on the relative residual
    sample_count: int


def residual(spec: WavePacketSpec, order: AnsatzOrder, t: float,
             sample_count: int = 10000, seed: int = 0,
             hbar: float | None = None, fd_eps: float = 1e-3,
             dt_factor: float = 1e-4) -> ResidualEstimate:
    """L2 estimate of i hbar d_t psi + hbar^2 Delta psi over the packet.

    Time derivative by central difference with dt = dt_factor * hbar;
    X1^2, X2^2 by nested directional differences along x Exp(+-h Xi) with
    h_i = fd_eps * hbar^{w_i/2}; the L2 integrals are volume-weighted
    Monte-Carlo over a proposal matched to the true concentration scales.
    """
    hb = spec.hbar if hbar is None else hbar
    dt = dt_factor * hb
    h1 = fd_eps * math.sqrt(hb)
    h2 = fd_eps * math.sqrt(hb)
    if max(h1, h2) > hb**1.5 / 10.0 * 100.0:
        raise ValueError("fd step too large for this hbar")
    rng = np.random.default_rng(seed)
    s = _draw_samples(spec, t, hb, sample_count, rng)

    def ev(tt: float, pts: np.ndarray) -> np.ndarray:
        return ansatz_values(spec, order, tt, pts, hbar=hb)

    e1p = np.array([h1, 0.0, 0.0, 0.0])
    e1m = -e1p
    e2p = np.array([0.0, h2, 0.0, 0.0])
    e2m = -e2p
    psi0 = ev(t, s.coords)
    psit_p = ev(t + dt, s.coords)
    psit_m = ev(t - dt, s.coords)
    psi1p = ev(t, vmultiply(s.coords, e1p[None, :]))
    psi1m = ev(t, vmultiply(s.coords, e1m[None, :]))
    psi2p = ev(t, vmultiply(s.coords, e2p[None, :]))
    psi2m = ev(t, vmultiply(s.coords, e2m[None, :]))

    dtpsi = (psit_p - psit_m) / (2.0 * dt)
    lap = (psi1p - 2.0 * psi0 + psi1m) / h1**2 + (psi2p - 2.0 * psi0 + psi2m) / h2**2
    r = 1j * hb * dtpsi + hb**2 * lap

    wr = np.abs(r) ** 2 * s.weights
    wp = np.abs(psi0) ** 2 * s.weights
    R = float(np.mean(wr))
    S = float(np.mean(wp))
    dR = float(np.std(wr) / math.sqrt(sample_count))
    dS = float(np.std(wp) / math.sqrt(sample_count))
    rel = math.sqrt(R / S)
    rel_err = 0.5 * rel * (dR / R + dS / S)
    return ResidualEstimate(
        hbar=hb,
        order=order.value,
        relative=rel,
        absolute=math.sqrt(R),
        psi_norm=math.sqrt(S),
        sampling_error=rel_err,
        sample_count=sample_count,
    )


@dataclass
class ScalingReport:
    order: str
    hbars: list[float]
    residuals: list[float]
    sampling_errors: list[float]
    slope: float
    intercept: float

    def csv_rows(self) -> list[dict]:
        return [
            dict(hbar=h, residual=r, sampling_error=e)
            for h, r, e in zip(self.hbars, self.residuals, self.sampling_errors)
        ]


def residual_scaling_experiment(spec: WavePacketSpec, hbar_list: Sequence[float],
                                order: AnsatzOrder = AnsatzOrder.WITH_SIGMA1_AND_2,
                                t: float = 0.1, sample_count: int = 10000,
                                seed: int = 0) -> ScalingReport:
    """Least-squares slope of log(relative residual) against log(hbar)."""
    if len(hbar_list) < 4:
        raise ValueError("need at least 4 hbar values for a slope")
    res, errs = [], []
    for k, hb in enumerate(hbar_list):
        est = residual(spec, order, t, sample_count=sample_count,
                       seed=seed + 1000 * k, hbar=float(hb))
        res.append(est.relative)
        errs.append(est.sampling_error)
    slope, intercept = np.polyfit(np.log(np.asarray(hbar_list, dtype=float)),
                                  np.log(np.asarray(res)), 1)
    return ScalingReport(order.value, [float(h) for h in hbar_list], res, errs,
                         float(slope), float(intercept))


# ---------------------------------------------------------------------------
# transport of the packet center
# ---------------------------------------------------------------------------


@dataclass
class TransportRow:
    hbar: float
    t: float
    centroid_x2: float
    predicted_x2: float
    packet_width: float
    drift_error: float
    sampling_error: float


def transport_demo(spec: WavePacketSpec, t: float,
                   hbar_list: Sequence[float] | None = None,
                   order: AnsatzOrder = AnsatzOrder.WITH_SIGMA1,
                   sample_count: int = 20000, seed: int = 0) -> list[TransportRow]:
    """x2 centroid of |ansatz|^2 at time t against x0 Exp(speed t X2).

    Works both at generic beta0 (nonzero drift) and on a critical cone
    (stationary center).
    """
    m = machinery(spec)
    rows = []
    for k, hb in enumerate(hbar_list or [spec.hbar]):
        hb = float(hb)
        rng = np.random.default_rng(seed + 7 * k)
        s = _draw_samples(spec, t, hb, sample_count, rng)
        dens = np.abs(ansatz_values(spec, order, t, s.coords, hbar=hb)) ** 2 * s.weights
        x2 = s.coords[:, 1]
        mass = float(np.mean(dens))
        cent = float(np.mean(dens * x2) / mass)
        width = math.sqrt(max(float(np.mean(dens * x2**2) / mass) - cent**2, 0.0))
        pred = float(m.center_coords(t)[1])
        cent_err = float(
            np.std(dens * (x2 - cent)) / math.sqrt(sample_count) / mass
        )
        rows.append(
            TransportRow(
                hbar=hb,
                t=t,
                centroid_x2=cent,
                predicted_x2=pred,
                packet_width=width,
                drift_error=abs(cent - pred),
                sampling_error=cent_err,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# second-microlocal 1-D dispersion demo
# ---------------------------------------------------------------------------


@dataclass
class ProfileDemoReport:
    nu0: float
    coefficient: float
    times: list[float]
    x2: np.ndarray
    densities: list[np.ndarray]
    mass_drift: float
    gaussian_law_error: float | None  # None for non-Gaussian input profiles


def second_microlocal_profile_demo(
    n: int,
    nu0: float,
    curvature: float,
    times: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    profile: ProfileState | None = None,
    width: float = 1.0,
    box: float = 40.0,
    points: int = 2048,
) -> ProfileDemoReport:
    """Free 1-D dispersion of a profile on the x2 line with the
    effective-mass coefficient curvature/2 of mode n at the cone nu0.

    Emits |a(t)|^2 curves and checks mass conservation; any Schwartz-class
    grid profile is accepted, and for the default Gaussian the analytic
    complex-width dispersion law is verified as well.
    """
    coeff = 0.5 * curvature
    if profile is None:
        x2 = np.linspace(-box, box, points, endpoint=False)
        state = ProfileState(x2, np.exp(-(x2**2) / (2.0 * width**2)).astype(complex))
        analytic = GaussianProfile(width2=width, width4=1.0, coeff=coeff)
    else:
        state = profile
        x2 = state.x2
        analytic = None
    mass0 = state.normsq()
    densities = []
    mass_drift = 0.0
    law_err = None if analytic is None else 0.0
    for t in times:
        st = profile_evolve(state, float(t), coeff) if t else state
        densities.append(np.abs(st.values) ** 2)
        mass_drift = max(mass_drift, abs(st.normsq() - mass0) / mass0)
        if analytic is not None:
            ref = analytic.values(float(t), x2, np.zeros_like(x2))["a"]
            law_err = max(law_err, float(np.max(np.abs(st.values - ref))))
    return ProfileDemoReport(
        nu0=nu0,
        coefficient=coeff,
        times=[float(t) for t in times],
        x2=x2,
        densities=densities,
        mass_drift=mass_drift,
        gaussian_law_error=law_err,
    )

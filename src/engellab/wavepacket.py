"""Wave packets concentrated at a point of the group and a generic
representation, their corrector hierarchy, and propagation experiments.

A packet with profile a, carrier vector Phi1 (eigenvector of the symbol
at level n, also the pairing vector), center x0 and scale hbar is

    psi(x) = hbar^{-7/4} a(hbar^{-1/2}.(x0^{-1} x))
             (pi(hbar^{-1}.(x0^{-1} x)) Phi1, Phi1),

the profile depending only on the (x2, x4) coordinates.  `WavePacketSpec`
holds the concentration data of the family (psi^hbar)_{hbar>0}; hbar is
the asymptotic variable, so every evaluator takes it as an argument.
Approximate evolution takes the phase S(t) = -mu_n t, moves the center
along x(t) = x0 Exp(d_beta mu_n t X2), disperses the profile by

    i d_t a + (d_beta^2 mu_n / 2) d_{x2}^2 a = 0,

and corrects the carrier with sigma_1 (order hbar^{1/2}) and sigma_2
(order hbar), after which the Schrodinger residual
i hbar d_t psi + hbar^2 (X1^2 + X2^2) psi is O(hbar^{3/2}) relative to
||psi||.  `residual` evaluates it exactly on the grid, where the
generators act as dpi(X1) = D1, dpi(X2) = iW and dpi(X1^2 + X2^2) = -H.

The exact L2 norm of the bare packet is hbar^{3/4} sqrt(2 pi / |delta0|)
||a||_{L2} ||Phi1||^2: the coefficient carries the (x1, x3) mass at
scales (hbar, hbar^2) with constant transverse mass (an exact ambiguity-
function identity), while the profile carries (x2, x4) at scales
(hbar^{1/2}, hbar^{3/2}).  Sampling proposals below follow those scales.

Batches of points are GroupElements with (M,) float coordinate arrays, and
every product, inverse and dilation goes through the group law in
`algebra`: the arguments are hbar^{-1}.(x0^{-1} x) and
hbar^{-1/2}.(Exp(-d_beta mu_n t X2) x0^{-1} x), and samples are mapped to
the group as x(t) z with the center x(t) from the machinery.  (M, 4)
coordinate arrays appear only at the coefficient kernel and as an accepted
input form.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .algebra import (
    HOMOGENEOUS_DIMENSION,
    GroupElement,
    dilate,
    exp_basis,
    inverse,
    multiply,
)
from .spectral import (
    SpectralData,
    SpectralGrid,
    build_hamiltonian,
    reduced_resolvent_solve,
    spectral_data,
)
from .fourier import InfinitesimalOp, live_window, matrix_coefficients

Q_QUARTER = HOMOGENEOUS_DIMENSION / 4.0


def _points(x: GroupElement | np.ndarray) -> GroupElement:
    """Points as one GroupElement with float coordinates, from a
    GroupElement or from a (4,) or (..., 4) coordinate array."""
    if isinstance(x, GroupElement):
        return GroupElement(*(np.asarray(c, dtype=float) for c in x))
    return GroupElement(*np.moveaxis(np.atleast_2d(np.asarray(x, dtype=float)), -1, 0))


def _stacked(x: GroupElement) -> np.ndarray:
    """The (..., 4) coordinate array of points held in a GroupElement."""
    return np.stack(tuple(x), axis=-1)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def _gaussian_factors(u, s, kmax: int) -> np.ndarray:
    """p_0..p_kmax with d^k exp(-u^2/(2s)) = p_k exp(-u^2/(2s)):
    p_0 = 1, p_1 = -u/s, p_{k+1} = -(u/s) p_k - (k/s) p_{k-1}."""
    p = [np.ones_like(u / s), -u / s]
    for k in range(1, kmax):
        p.append(-(u / s) * p[k] - (k / s) * p[k - 1])
    return np.array(p[: kmax + 1])


@dataclass(frozen=True)
class GaussianProfile:
    """Schwartz profile a(t, y2, y4), centred Gaussian of unit peak in both slots.

    The y2 factor evolves under i d_t a + coeff d_2^2 a = 0 in closed form
    (complex-width Gaussian); y4 is a spectator.  All partial derivatives
    entering the correctors are analytic.
    """

    width2: float = 0.45
    width4: float = 0.8
    coeff: float = 0.0  # dispersion coefficient; 0 freezes the profile

    def _s(self, t: float) -> complex:
        return self.width2**2 + 2j * self.coeff * t

    def partials(self, t: float, y2, y4, kmax: int) -> np.ndarray:
        """d_2^k2 d_4^k4 a for k2, k4 <= kmax, indexed [k2, k4, ...]."""
        s = self._s(t)
        u2 = np.asarray(y2, dtype=float)
        u4 = np.asarray(y4, dtype=float)
        a = (self.width2 / np.sqrt(s) * np.exp(-(u2**2) / (2 * s))
             * np.exp(-(u4**2) / (2 * self.width4**2)))
        p2 = _gaussian_factors(u2, s, kmax)
        p4 = _gaussian_factors(u4, self.width4**2, kmax)
        return p2[:, None] * p4[None, :] * a

    def evolved_width2(self, t: float) -> float:
        """Dispersed |a|^2 width: w^2 + (2 coeff t / w)^2 in variance form."""
        w = self.width2
        return math.sqrt(w**2 + (2.0 * self.coeff * t / w) ** 2)

    def l2_normsq(self) -> float:
        return math.pi * self.width2 * self.width4


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
    """Concentration data of a packet family, without hbar; heavy spectral
    objects are cached per spec.

    The profile disperses with mu_n''/2 of the packet's own mode, so its
    `coeff` is not an input: any value other than 0 is refused.
    """

    x0: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    delta0: float = 1.0
    beta0: float = 0.0
    n: int = 1
    profile: GaussianProfile = GaussianProfile()
    grid_L: float = 20.0
    grid_N: int = 3072

    def __post_init__(self):
        if self.profile.coeff != 0:
            raise ValueError("a packet's profile disperses with mu''/2 of its mode; "
                             "leave profile.coeff at 0")

    def x0_element(self) -> GroupElement:
        return GroupElement(*self.x0)


# sigma_2's basis u_j = (mu - H)^{-1} Pi_perp source_j, each source a column
# [v, D1 v, W v] of the images of v = phi, xi phi or dphi
_RESOLVENT_SOURCES = {"u1": ("xi_phi", 0), "u2": ("dphi", 0), "u3": ("xi_phi", 1),
                      "u4": ("dphi", 1), "u5": ("xi_phi", 2), "u6": ("dphi", 2),
                      "u7": ("phi", 0)}


class _PacketMachinery:
    """Spectral data, corrector basis vectors and their generator images."""

    def __init__(self, spec: WavePacketSpec):
        self.spec = spec
        grid = SpectralGrid(spec.grid_L, spec.grid_N)
        self.data: SpectralData = spectral_data(spec.delta0, spec.beta0, spec.n, grid=grid)
        self.grid = grid
        d = self.data
        self.dispersion = 0.5 * d.mu_d2  # profile equation coefficient
        self.profile = replace(spec.profile, coeff=self.dispersion)

        xi = grid.nodes
        phi = d.phi
        d1 = InfinitesimalOp(grid, None)
        H = build_hamiltonian(d.param, grid)

        def images(v: np.ndarray) -> np.ndarray:
            # on the grid dpi(X1) = D1, dpi(X2) = iW and dpi(X1^2 + X2^2) = -H,
            # the operator the correctors were solved with
            return np.column_stack([v, d1.apply(v).real, d.w * v, d.mu * v - H.apply(v)])

        self.images = {"phi": images(phi), "xi_phi": images(xi * phi), "dphi": images(d.dphi)}
        for u, (k, col) in _RESOLVENT_SOURCES.items():
            self.images[u] = images(reduced_resolvent_solve(d, self.images[k][:, col]).real)
        self.basis = {k: v[:, 0] for k, v in self.images.items()}

        self.xi_support = live_window(np.hstack(list(self.images.values())), grid)[1]
        # proposal scales for the transverse coefficient directions
        var = float(grid.inner(xi**2 * phi, phi).real)
        self.sigma_xi = math.sqrt(max(var, 1e-12))
        self.u1_scale = 2.0 * self.sigma_xi
        self.u3_scale = 2.0 / (abs(spec.delta0) * self.sigma_xi)

    def center(self, t: float) -> GroupElement:
        """Moving center x(t) = x0 Exp(d_beta mu_n t X2)."""
        return multiply(self.spec.x0_element(), exp_basis(2, self.data.mu_d1 * t))


@functools.lru_cache(maxsize=8)
def machinery(spec: WavePacketSpec) -> _PacketMachinery:
    return _PacketMachinery(spec)


# ---------------------------------------------------------------------------
# correctors
# ---------------------------------------------------------------------------
# A term {(p, q, k2, k4): c} is sum c P^p y1^q d_2^k2 d_4^k4 a, P = -(y3 + y1 y2)/2;
# a term table {basis name: term} gives each basis vector its scalar factor.
# A derivation is given by its values on P, y1 and a_k as shift tables
# {(dp, dq, dk2, dk4): factor}.

_X1 = ({}, {(0, 0, 0, 0): 1.0}, {(1, 0, 0, 1): 1.0})  # X1 = d1 - y2 d3 + P d4
_X2 = ({(0, 1, 0, 0): -0.5}, {}, {(0, 0, 1, 0): 1.0})  # X2 = d2

# sigma_1 = (i/delta) X1 a pi(X3) Pi_n - i X2 a dPi_n Pi_n collapses on Phi1
# to -X1a . (xi phi_n) - i X2a . (d_beta phi_n)
_SIGMA1 = {"xi_phi": {(1, 0, 0, 1): -1.0}, "dphi": {(0, 0, 1, 0): -1j}}


def _sigma2_terms(m: _PacketMachinery) -> dict[str, dict]:
    """Coefficients of sigma_2 Phi1 on the resolvent images u1..u7.

    These are the scalar weights of the right-hand side
    R = i c2 X2~ sigma_1 - 2 (pi(V).V) sigma_1 - (i d_t a + Delta a) Id
    applied to Phi1, expanded on the `_RESOLVENT_SOURCES`; the
    left-invariant X2 = d_2 also differentiates the P(y) factor, producing
    the y1 d4 a correction on the W xi phi slot.
    """
    c2, c3 = m.data.mu_d1, m.dispersion
    return {
        "u1": {(1, 0, 1, 1): -1j * c2},
        "u2": {(0, 0, 2, 0): c2},
        "u3": {(2, 0, 0, 2): 2.0},
        "u4": {(1, 0, 1, 1): 2j},
        "u5": {(1, 0, 1, 1): 2j, (0, 1, 0, 1): -1j},
        "u6": {(0, 0, 2, 0): -2.0},
        "u7": {(0, 0, 2, 0): c3 - 1.0, (2, 0, 0, 2): -1.0},
    }


def _ansatz_terms(m: _PacketMachinery, order: AnsatzOrder, hb: float) -> list[dict[str, dict]]:
    """Term tables of a, sqrt(hbar) sigma_1 and hbar sigma_2, one per order
    from LEADING through `order`; their union is the ansatz cut at `order`."""
    orders = [({"phi": {(0, 0, 0, 0): 1.0}}, 1.0), (_SIGMA1, math.sqrt(hb)), (_sigma2_terms(m), hb)]
    return [{n: {k: f * c for k, c in tm.items()} for n, tm in table.items()}
            for table, f in orders[: list(AnsatzOrder).index(order) + 1]]


def _derive(term: dict, rule: tuple[dict, dict, dict]) -> dict:
    on_p, on_y1, on_a = rule
    out: dict = {}
    for (p, q, k2, k4), c in term.items():
        for mult, base, shifts in ((p, (p - 1, q, k2, k4), on_p),
                                   (q, (p, q - 1, k2, k4), on_y1),
                                   (1, (p, q, k2, k4), on_a)):
            for shift, f in shifts.items() if mult else ():
                key = tuple(b + s for b, s in zip(base, shift))
                out[key] = out.get(key, 0.0) + mult * f * c
    return out


def _scalars(m: _PacketMachinery, t: float, y: GroupElement, kmax: int):
    """(P, y1, profile partials up to kmax) at reduced points y."""
    P = -0.5 * (y.x3 + y.x1 * y.x2)
    return P, y.x1, m.profile.partials(t, y.x2, y.x4, kmax)


def _evaluate(term: dict, P, y1, partials):
    return sum(c * P**p * y1**q * partials[k2, k4] for (p, q, k2, k4), c in term.items())


def corrector_sigma1(spec: WavePacketSpec, t: float, y: GroupElement | np.ndarray) -> np.ndarray:
    """sigma_1(t, y) Phi1 = -X1a . (xi phi_n) - i X2a . (d_beta phi_n) as a grid vector."""
    m = machinery(spec)
    sc = _scalars(m, t, _points(y), 2)
    return sum(_evaluate(tm, *sc) * m.basis[n] for n, tm in _SIGMA1.items())


def corrector_sigma2(spec: WavePacketSpec, t: float, y: GroupElement | np.ndarray) -> np.ndarray:
    """sigma_2(t, y) Phi1 = (mu - H)^{-1} Pi_perp R(t, y) Phi1 as a grid vector."""
    m = machinery(spec)
    sc = _scalars(m, t, _points(y), 2)
    return sum(_evaluate(tm, *sc) * m.basis[n] for n, tm in _sigma2_terms(m).items())


def sigma2_diagnostic(spec: WavePacketSpec, t: float, y_points: np.ndarray) -> float:
    """max |<R(t,y) Phi1, phi_n>| over sample points.

    Vanishing diagonal part of R is exactly the solvability condition for
    sigma_2; it holds when the profile satisfies the dispersion equation
    with the same grid-level mu_n'' used in the coefficients.
    """
    m = machinery(spec)
    sc = _scalars(m, t, _points(y_points), 2)
    diag = sum(
        _evaluate(tm, *sc) * float(m.grid.inner(m.images[k][:, col], m.basis["phi"]).real)
        for tm, (k, col) in zip(_sigma2_terms(m).values(), _RESOLVENT_SOURCES.values())
    )
    return float(np.max(np.abs(diag)))


# ---------------------------------------------------------------------------
# ansatz evaluation
# ---------------------------------------------------------------------------


def _arguments(m: _PacketMachinery, t: float, x: GroupElement,
               hb: float) -> tuple[np.ndarray, GroupElement]:
    """Representation argument w = hbar^{-1}.(x0^{-1} x), as an (M, 4)
    array, and profile argument y = hbar^{-1/2}.(x(t)^{-1} x) of points x;
    x(t)^{-1} x = Exp(-d_beta mu_n t X2) x0^{-1} x."""
    z0 = multiply(inverse(m.spec.x0_element()), x)
    z = multiply(exp_basis(2, -m.data.mu_d1 * t), z0)
    return _stacked(dilate(1.0 / hb, z0)), dilate(hb ** (-0.5), z)


def ansatz_values(spec: WavePacketSpec, order: AnsatzOrder, t: float,
                  points: GroupElement | np.ndarray, hbar: float) -> np.ndarray:
    """Evaluate the approximate solution at a batch of points, given as a
    GroupElement with (M,) coordinate arrays or as an (M, 4) array."""
    m = machinery(spec)
    w, y = _arguments(m, t, _points(points), hbar)
    terms = {n: tm for table in _ansatz_terms(m, order, hbar) for n, tm in table.items()}
    C = matrix_coefficients(m.data.param, w, np.column_stack([m.basis[n] for n in terms]),
                            m.data.phi, m.grid)
    sc = _scalars(m, t, y, 2)
    vals = sum(_evaluate(tm, *sc) * C[:, j] for j, tm in enumerate(terms.values()))
    return hbar ** (-Q_QUARTER) * np.exp(-1j * m.data.mu * t / hbar) * vals


def packet_norm_exact(spec: WavePacketSpec, hbar: float) -> float:
    """Closed-form L2 norm hbar^{3/4} sqrt(2 pi/|delta0|) ||a|| of the packet."""
    m = machinery(spec)
    return (
        hbar**0.75
        * math.sqrt(2.0 * math.pi / abs(spec.delta0) * m.profile.l2_normsq())
    )


# ---------------------------------------------------------------------------
# Monte-Carlo sampling of the concentration region
# ---------------------------------------------------------------------------


@dataclass
class _Samples:
    coords: GroupElement  # M group points, (M,) coordinate arrays
    weights: np.ndarray  # 1 / proposal density
    clipped: int  # z1 draws the grid-margin clip moved


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
    clipped = int(np.count_nonzero(np.abs(z1) > w1_cap))
    z1 = np.clip(z1, -w1_cap, w1_cap)

    z = np.stack([z1, z2, z3, z4], axis=-1)
    scales = np.stack([s1, np.full(count, s2), s3, np.full(count, s4)], axis=-1)
    q = np.prod(
        np.exp(-0.5 * (z / scales) ** 2) / (np.sqrt(2 * np.pi) * scales), axis=1
    )
    return _Samples(multiply(m.center(t), GroupElement(z1, z2, z3, z4)), 1.0 / q, clipped)


def _mean_and_error(values: np.ndarray) -> tuple[float, float]:
    """Monte-Carlo mean of importance-weighted samples and its standard error."""
    return float(np.mean(values)), float(np.std(values) / math.sqrt(len(values)))


@dataclass(frozen=True)
class SamplingHealth:
    """How well one draw serves the importance weights w = |psi|^2 / q."""

    ess_ratio: float  # Kish effective sample size over N, (sum w)^2 / (N sum w^2)
    max_weight_share: float  # max w / sum w
    clipped: int  # z1 draws the grid-margin clip moved


def _sampling_health(w: np.ndarray, clipped: int) -> SamplingHealth:
    total = float(np.sum(w))
    return SamplingHealth(total**2 / (len(w) * float(np.sum(w**2))),
                          float(np.max(w)) / total, clipped)


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
    health: SamplingHealth  # of the weights |psi|^2 / q at this order


def residual(spec: WavePacketSpec, order: AnsatzOrder, t: float, hbar: float,
             sample_count: int = 10000, seed: int = 0) -> dict[AnsatzOrder, ResidualEstimate]:
    """L2 estimates of r = i hbar d_t psi + hbar^2 (X1^2 + X2^2) psi over the
    packet, for every ansatz order from LEADING through `order`.

    With psi = hbar^{-7/4} e^{-i mu t/hbar} sum_j A_j(t, y) C_j(w) and
    C_j = (pi(w) v_j, Phi1), one coefficient-kernel call gives exactly

        r = hbar^{-7/4} e^{-i mu t/hbar} sum_j [(i hbar D_t A_j + hbar Delta A_j) C_j
            + 2 sqrt(hbar) (X1 A_j C[D1 v_j] + i X2 A_j C[W v_j]) + A_j C[(mu - H) v_j]];

    the orders are nested, so each lower order's r and psi are the partial
    sums of that accumulation at its cut, and one draw and one kernel call
    serve every order.  The L2 integrals are volume-weighted Monte-Carlo
    over a proposal matched to the true concentration scales.
    """
    m = machinery(spec)
    rng = np.random.default_rng(seed)
    s = _draw_samples(spec, t, hbar, sample_count, rng)
    w, y = _arguments(m, t, s.coords, hbar)
    tables = _ansatz_terms(m, order, hbar)
    V = np.hstack([m.images[n] for table in tables for n in table])
    C = matrix_coefficients(m.data.param, w, V, m.data.phi, m.grid).reshape(len(w), -1, 4)
    sc = _scalars(m, t, y, 4)
    # d_t at fixed x: the profile flows (d_t a = i c3 a_22) and recenters
    # (y2 = (x2 - c2 t)/sqrt(hbar)); P and y1 do not move
    dt = ({}, {}, {(0, 0, 2, 0): 1j * m.dispersion, (0, 0, 1, 0): -m.data.mu_d1 / math.sqrt(hbar)})
    psi0 = r = 0.0
    j = 0
    estimates = {}
    for cut, table in zip(AnsatzOrder, tables):
        for A in table.values():
            x1A, x2A = _derive(A, _X1), _derive(A, _X2)
            slow = (1j * hbar * _evaluate(_derive(A, dt), *sc)
                    + hbar * (_evaluate(_derive(x1A, _X1), *sc)
                              + _evaluate(_derive(x2A, _X2), *sc)))
            a_j = _evaluate(A, *sc)
            psi0 = psi0 + a_j * C[:, j, 0]
            r = (r + slow * C[:, j, 0] + a_j * C[:, j, 3]
                 + 2.0 * math.sqrt(hbar) * (_evaluate(x1A, *sc) * C[:, j, 1]
                                            + 1j * _evaluate(x2A, *sc) * C[:, j, 2]))
            j += 1

        # the phase e^{-i mu t/hbar} has modulus one
        R, dR = _mean_and_error(np.abs(hbar ** (-Q_QUARTER) * r) ** 2 * s.weights)
        dens = np.abs(hbar ** (-Q_QUARTER) * psi0) ** 2 * s.weights
        S, dS = _mean_and_error(dens)
        rel = math.sqrt(R / S)
        estimates[cut] = ResidualEstimate(
            hbar=hbar,
            order=cut.value,
            relative=rel,
            absolute=math.sqrt(R),
            psi_norm=math.sqrt(S),
            sampling_error=0.5 * rel * (dR / R + dS / S),
            sample_count=sample_count,
            health=_sampling_health(dens, s.clipped),
        )
    return estimates


@dataclass
class ScalingReport:
    order: str
    hbars: list[float]
    residuals: list[float]
    sampling_errors: list[float]
    slope: float
    intercept: float
    health: list[SamplingHealth]  # one per hbar

    def csv_rows(self) -> list[dict]:
        return [
            dict(hbar=h, residual=r, sampling_error=e)
            for h, r, e in zip(self.hbars, self.residuals, self.sampling_errors)
        ]


def residual_scaling_experiment(spec: WavePacketSpec, hbar_list: Sequence[float],
                                order: AnsatzOrder = AnsatzOrder.WITH_SIGMA1_AND_2,
                                t: float = 0.1, sample_count: int = 10000,
                                seed: int = 0) -> dict[AnsatzOrder, ScalingReport]:
    """Least-squares slope of log(relative residual) against log(hbar), for
    every ansatz order from LEADING through `order`.

    Each hbar takes one `residual` call (seed + 1000 k for the k-th hbar),
    so one draw and one coefficient-kernel call per hbar serve every order.
    """
    if len(hbar_list) < 4:
        raise ValueError("need at least 4 hbar values for a slope")
    hbars = [float(h) for h in hbar_list]
    per_hbar = [residual(spec, order, t, hb, sample_count=sample_count, seed=seed + 1000 * k)
                for k, hb in enumerate(hbars)]
    reports = {}
    for cut in per_hbar[0]:
        ests = [e[cut] for e in per_hbar]
        res = [e.relative for e in ests]
        slope, intercept = np.polyfit(np.log(np.asarray(hbars)), np.log(np.asarray(res)), 1)
        reports[cut] = ScalingReport(cut.value, hbars, res, [e.sampling_error for e in ests],
                                     float(slope), float(intercept), [e.health for e in ests])
    return reports


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
    health: SamplingHealth  # of the weights |ansatz|^2 / q


def transport_demo(spec: WavePacketSpec, t: float, hbar_list: Sequence[float],
                   sample_count: int = 20000, seed: int = 0) -> list[TransportRow]:
    """x2 centroid of |ansatz|^2 (cut after sigma_1) at time t against the
    center x0 Exp(d_beta mu_n t X2), one row per hbar.

    Works both at generic beta0 (nonzero drift) and on a critical cone
    (stationary center).
    """
    if not hbar_list:
        raise ValueError("need at least one hbar value")
    pred = float(machinery(spec).center(t).x2)
    rows = []
    for k, hb in enumerate(hbar_list):
        hb = float(hb)
        rng = np.random.default_rng(seed + 7 * k)
        s = _draw_samples(spec, t, hb, sample_count, rng)
        psi = ansatz_values(spec, AnsatzOrder.WITH_SIGMA1, t, s.coords, hb)
        dens = np.abs(psi) ** 2 * s.weights
        x2 = s.coords.x2
        mass = float(np.mean(dens))
        cent = float(np.mean(dens * x2) / mass)
        width = math.sqrt(max(float(np.mean(dens * x2**2) / mass) - cent**2, 0.0))
        cent_err = _mean_and_error(dens * (x2 - cent))[1] / mass
        rows.append(
            TransportRow(
                hbar=hb,
                t=t,
                centroid_x2=cent,
                predicted_x2=pred,
                packet_width=width,
                drift_error=abs(cent - pred),
                sampling_error=cent_err,
                health=_sampling_health(dens, s.clipped),
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
            ref = analytic.partials(float(t), x2, 0.0, 0)[0, 0]
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

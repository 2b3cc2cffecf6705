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
(hbar^{1/2}, hbar^{3/2}).  The same identity with the transverse phase
integrated out makes every L2 integral of the packet exact: `residual`'s
||r|| and ||psi|| and `transport_demo`'s moments are Gram sums over the
(w1, w3) fibres followed by a fixed Gauss-Hermite rule in (y2, y4)
(`_fibre_pairs`, `_fibre_densities`).

Batches of points are GroupElements with (M,) float coordinate arrays, and
every product, inverse and dilation goes through the group law in
`algebra`: the arguments are hbar^{-1}.(x0^{-1} x) and
hbar^{-1/2}.(Exp(-d_beta mu_n t X2) x0^{-1} x), with the center x(t) from
the machinery.  (M, 4) coordinate arrays appear only at the coefficient
kernel and as an accepted input form.
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
    reduced_resolvent_solve,
    spectral_data,
)
from .fourier import InfinitesimalOp, matrix_coefficients

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
        H = d.op

        def images(v: np.ndarray) -> np.ndarray:
            # on the grid dpi(X1) = D1, dpi(X2) = iW and dpi(X1^2 + X2^2) = -H,
            # the operator the correctors were solved with
            return np.column_stack([v, d1.apply(v).real, d.w * v, d.mu * v - H.apply(v)])

        self.images = {"phi": images(phi), "xi_phi": images(xi * phi), "dphi": images(d.dphi)}
        for u, (k, col) in _RESOLVENT_SOURCES.items():
            self.images[u] = images(reduced_resolvent_solve(d, self.images[k][:, col]).real)
        self.basis = {k: v[:, 0] for k, v in self.images.items()}

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
# exact L2 integrals over the coefficient fibres
# ---------------------------------------------------------------------------
# Write C[u; v](w) = (pi(w) u, v).  At fixed (w2, w4) the orthogonality
# relations of the square-integrable representation (Folland, A Course in
# Abstract Harmonic Analysis, 7.2) give
#
#     int int C[u; v] conj C[u'; v'] dw1 dw3 = (2 pi / |delta|) (u, u') (v', v),
#
# and the fibre variables of a term act on a coefficient as
#
#     w1 C[u; v] = C[xi u; v] - C[u; xi v],
#     (w3 + w1 w2) C[u; v] = -w2 C[u; xi v] + (i / delta) (C[D1 u; v] + C[u; D1 v]),
#
# with y1 = sqrt(hbar) w1 and P = -hbar (w3 + w1 w2) / 2 (the shift
# x0^{-1} x -> x(t)^{-1} x leaves y3 + y1 y2 unchanged).  With x = x0 z,
# z = hbar.w, hbar w2 = sqrt(hbar) y2 + d_beta mu_n t and y4 = hbar^{3/2} w4,
# every coefficient left over is a polynomial in y2 times a partial of a, so
# after the Gram sum the (y2, y4) integral is Gauss-Hermite with |a|^2's
# weights.  The measure gives ||f||^2 = hbar^{3/2} int int (Gram sum) dy2 dy4
# for f = hbar^{-7/4} sum c C: hbar^{-7/2} from the prefactor, hbar^3 from
# dw1 dw3 and hbar^2 from dy2 dy4.

# Gauss-Hermite nodes per axis of the (y2, y4) integral, exact to degree 15:
# the |r|^2 integrands of sigma_2's residual reach degree 8 per axis
# (k2 + p <= 4, k4 <= 4), 10 in y2 with transport's y2^2 weight
_GH_NODES = 8


def _fibre_rule(m: _PacketMachinery, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes y2 (n, 1) and y4 (1, n) of the (y2, y4) rule and its weights,
    which divide out |a(t)|^2's Gaussian: the integrands carry it."""
    x, wts = np.polynomial.hermite.hermgauss(_GH_NODES)
    alpha2 = m.profile.evolved_width2(t) ** -2  # |a|^2 ~ exp(-alpha2 y2^2 - alpha4 y4^2)
    alpha4 = m.profile.width4 ** -2
    quad = np.outer(wts * np.exp(x**2), wts * np.exp(x**2)) / math.sqrt(alpha2 * alpha4)
    return x[:, None] / math.sqrt(alpha2), x[None, :] / math.sqrt(alpha4), quad


def _fibre_pairs(m: _PacketMachinery, t: float, hb: float, y2: np.ndarray, y4: np.ndarray,
                 columns: list[tuple[tuple[str, int], dict, complex]]) -> dict:
    """{(u word, v word): coefficient on the nodes} with

        sum over columns (u, term, factor) of factor * term . C[u; phi]
            = sum c C[u word; v word]

    at each fixed (w2, w4).  u is an image column (name, col); a word
    (name, col, ops) is that column, or phi's, with xi ('x') and D1 ('d')
    applied in the order of ops.  A monomial P^p y1^q takes the y1 moves q
    times, then the P moves p times.
    """
    kmax = max(max(k[2:]) for _, term, _ in columns for k in term)
    partials = m.profile.partials(t, y2, y4, kmax)
    rh = math.sqrt(hb)
    pf = -0.5j * hb / m.data.param.delta
    on_y1 = (("x", "", rh), ("", "x", -rh))
    on_p = (("", "x", 0.5 * (rh * y2 + m.data.mu_d1 * t)), ("d", "", pf), ("", "d", pf))

    def expansion(p: int, q: int) -> dict:
        words = {("", ""): 1.0}
        for moves in (on_y1,) * q + (on_p,) * p:
            out: dict = {}
            for (du, dv), c in words.items():
                for eu, ev, f in moves:
                    out[du + eu, dv + ev] = out.get((du + eu, dv + ev), 0.0) + f * c
            words = out
        return words

    grouped: dict = {}  # (u, p, q) -> coefficient on the nodes
    for u, term, factor in columns:
        for (p, q, k2, k4), c in term.items():
            grouped[u, p, q] = grouped.get((u, p, q), 0.0) + factor * c * partials[k2, k4]
    expansions = {pq: expansion(*pq) for pq in {(p, q) for _, p, q in grouped}}
    pairs: dict = {}
    for (u, p, q), f in grouped.items():
        for (du, dv), c in expansions[p, q].items():
            key = ((*u, du), ("phi", 0, dv))
            pairs[key] = pairs.get(key, 0.0) + c * f
    return pairs


def _fibre_densities(m: _PacketMachinery, pair_maps: list[dict]) -> list[np.ndarray]:
    """int int |sum c C[u; v]|^2 dw1 dw3 on the nodes for each pair map
    {(u, v): c}, as (2 pi / |delta|) sum_{s,t} c_s conj c_t (u_s, u_t) (v_t, v_s)
    from one Gram matrix of every word the maps name."""
    d1 = InfinitesimalOp(m.grid, None)
    vectors: dict = {}

    def vector(word):
        if word not in vectors:
            name, col, ops = word
            if not ops:
                vectors[word] = m.images[name][:, col]
            else:
                v = vector((name, col, ops[:-1]))
                vectors[word] = m.grid.nodes * v if ops[-1] == "x" else d1.apply(v).real
        return vectors[word]

    words = dict.fromkeys(w for pairs in pair_maps for key in pairs for w in key)
    index = {w: k for k, w in enumerate(words)}
    W = np.column_stack([vector(w) for w in words])
    gram = m.grid.h * (W.T @ W.conj())  # (w_a, w_b)
    densities = []
    for pairs in pair_maps:
        u = [index[key[0]] for key in pairs]
        v = [index[key[1]] for key in pairs]
        coupling = gram[np.ix_(u, u)] * gram[np.ix_(v, v)].T
        c = np.array(list(pairs.values())).reshape(len(pairs), -1)
        form = np.sum(c * (coupling @ c.conj()), axis=0).real
        densities.append(2.0 * math.pi / abs(m.data.param.delta) * form.reshape(_GH_NODES, -1))
    return densities


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


def residual(spec: WavePacketSpec, order: AnsatzOrder, t: float,
             hbar: float) -> dict[AnsatzOrder, ResidualEstimate]:
    """L2 norms of r = i hbar d_t psi + hbar^2 (X1^2 + X2^2) psi and of psi
    over the packet, for every ansatz order from LEADING through `order`.

    With psi = hbar^{-7/4} e^{-i mu t/hbar} sum_j A_j(t, y) C[v_j; Phi1](w),
    exactly

        r = hbar^{-7/4} e^{-i mu t/hbar} sum_j [(i hbar D_t A_j + hbar Delta A_j) C[v_j]
            + 2 sqrt(hbar) (X1 A_j C[D1 v_j] + i X2 A_j C[W v_j]) + A_j C[(mu - H) v_j]];

    the phase has modulus one, and both norms are exact Gram sums over the
    fibres.  The orders are nested, so each lower order's r and psi are
    partial sums of the same columns, and one Gram matrix serves them all.
    """
    m = machinery(spec)
    y2, y4, quad = _fibre_rule(m, t)
    # d_t at fixed x: the profile flows (d_t a = i c3 a_22) and recenters
    # (y2 = (x2 - c2 t)/sqrt(hbar)); P and y1 do not move
    dt = ({}, {}, {(0, 0, 2, 0): 1j * m.dispersion, (0, 0, 1, 0): -m.data.mu_d1 / math.sqrt(hbar)})
    psi_cols: list = []
    r_cols: list = []
    pair_maps = []
    for table in _ansatz_terms(m, order, hbar):
        for name, A in table.items():
            x1A, x2A = _derive(A, _X1), _derive(A, _X2)
            psi_cols.append(((name, 0), A, 1.0))
            r_cols += [((name, 0), _derive(A, dt), 1j * hbar),
                       ((name, 0), _derive(x1A, _X1), hbar),
                       ((name, 0), _derive(x2A, _X2), hbar),
                       ((name, 3), A, 1.0),
                       ((name, 1), x1A, 2.0 * math.sqrt(hbar)),
                       ((name, 2), x2A, 2j * math.sqrt(hbar))]
        pair_maps += [_fibre_pairs(m, t, hbar, y2, y4, cols) for cols in (psi_cols, r_cols)]
    norms = [math.sqrt(hbar**1.5 * float(np.sum(quad * d)))
             for d in _fibre_densities(m, pair_maps)]
    return {cut: ResidualEstimate(hbar=hbar, order=cut.value, relative=r / psi,
                                  absolute=r, psi_norm=psi)
            for cut, psi, r in zip(AnsatzOrder, norms[::2], norms[1::2])}


@dataclass
class ScalingReport:
    order: str
    hbars: list[float]
    residuals: list[float]
    slope: float
    intercept: float


def residual_scaling_experiment(spec: WavePacketSpec, hbar_list: Sequence[float],
                                order: AnsatzOrder = AnsatzOrder.WITH_SIGMA1_AND_2,
                                t: float = 0.1) -> dict[AnsatzOrder, ScalingReport]:
    """Least-squares slope of log(relative residual) against log(hbar), for
    every ansatz order from LEADING through `order`, one `residual` call per
    hbar."""
    if len(hbar_list) < 4:
        raise ValueError("need at least 4 hbar values for a slope")
    hbars = [float(h) for h in hbar_list]
    per_hbar = [residual(spec, order, t, hb) for hb in hbars]
    reports = {}
    for cut in per_hbar[0]:
        res = [e[cut].relative for e in per_hbar]
        slope, intercept = np.polyfit(np.log(np.asarray(hbars)), np.log(np.asarray(res)), 1)
        reports[cut] = ScalingReport(cut.value, hbars, res, float(slope), float(intercept))
    return reports


# ---------------------------------------------------------------------------
# transport of the packet center
# ---------------------------------------------------------------------------


def _fibre_moments(m: _PacketMachinery, order: AnsatzOrder, t: float,
                   hb: float) -> tuple[float, float, float]:
    """Exact ||psi||^2 and the mean and variance of y2 under |psi|^2 for the
    ansatz cut at `order`: y2^j weights on the fibre density of psi."""
    y2, y4, quad = _fibre_rule(m, t)
    cols = [((name, 0), A, 1.0) for table in _ansatz_terms(m, order, hb)
            for name, A in table.items()]
    density, = _fibre_densities(m, [_fibre_pairs(m, t, hb, y2, y4, cols)])
    i0, i1, i2 = (float(np.sum(quad * y2**j * density)) for j in range(3))
    mean = i1 / i0
    return hb**1.5 * i0, mean, i2 / i0 - mean**2


@dataclass
class TransportRow:
    hbar: float
    t: float
    centroid_x2: float
    predicted_x2: float
    packet_width: float
    drift_error: float
    mass: float  # ||ansatz||^2, cut after sigma_1


def transport_demo(spec: WavePacketSpec, t: float,
                   hbar_list: Sequence[float]) -> list[TransportRow]:
    """x2 centroid of |ansatz|^2 (cut after sigma_1) at time t against the
    center x0 Exp(d_beta mu_n t X2), one row per hbar.

    The mass, centroid and width are exact integrals (`_fibre_moments`),
    so the rows are deterministic.  Works both at generic beta0 (nonzero
    drift) and on a critical cone (stationary center).
    """
    if not hbar_list:
        raise ValueError("need at least one hbar value")
    m = machinery(spec)
    pred = float(m.center(t).x2)
    rows = []
    for hb in hbar_list:
        hb = float(hb)
        mass, mean, var = _fibre_moments(m, AnsatzOrder.WITH_SIGMA1, t, hb)
        offset = math.sqrt(hb) * mean  # x2 = x(t)_2 + sqrt(hbar) y2
        rows.append(TransportRow(hbar=hb, t=t, centroid_x2=pred + offset, predicted_x2=pred,
                                 packet_width=math.sqrt(hb * max(var, 0.0)),
                                 drift_error=abs(offset), mass=mass))
    return rows


# ---------------------------------------------------------------------------
# second-microlocal 1-D dispersion demo
# ---------------------------------------------------------------------------


@dataclass
class ProfileDemoReport:
    coefficient: float
    times: list[float]
    x2: np.ndarray
    densities: list[np.ndarray]
    mass_drift: float
    gaussian_law_error: float | None  # None for non-Gaussian input profiles


# width and x2 grid of the demo's default Gaussian profile
_DEMO_WIDTH, _DEMO_BOX, _DEMO_POINTS = 1.0, 40.0, 2048


def second_microlocal_profile_demo(
    curvature: float,
    times: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    profile: ProfileState | None = None,
) -> ProfileDemoReport:
    """Free 1-D dispersion of a profile on the x2 line with the
    effective-mass coefficient curvature/2, curvature = mutilde_n''(nu_c)
    of a branch at its critical point.

    Emits |a(t)|^2 curves and checks mass conservation; any Schwartz-class
    grid profile is accepted, and for the default Gaussian the analytic
    complex-width dispersion law is verified as well.
    """
    coeff = 0.5 * curvature
    if profile is None:
        x2 = np.linspace(-_DEMO_BOX, _DEMO_BOX, _DEMO_POINTS, endpoint=False)
        state = ProfileState(x2, np.exp(-(x2**2) / (2.0 * _DEMO_WIDTH**2)).astype(complex))
        analytic = GaussianProfile(width2=_DEMO_WIDTH, width4=1.0, coeff=coeff)
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
        coefficient=coeff,
        times=[float(t) for t in times],
        x2=x2,
        densities=densities,
        mass_drift=mass_drift,
        gaussian_law_error=law_err,
    )

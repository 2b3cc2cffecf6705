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
||psi||.  The carrier and its correctors are coefficient vectors on
Hermite functions (`_PacketMachinery`), where xi and d/dxi are exact
tridiagonal matrices: the generators act exactly on coefficients as
dpi(X1) = d/dxi, dpi(X2) = iW and dpi(X1^2 + X2^2) = -H = d^2/dxi^2 - W^2,
with no grid and no box.

The exact L2 norm of the bare packet is hbar^{3/4} sqrt(2 pi / |delta0|)
||a||_{L2} ||Phi1||^2: the coefficient carries the (x1, x3) mass with
constant transverse mass (an exact ambiguity-function identity), while
the profile carries (x2, x4) at scales (hbar^{1/2}, hbar^{3/2}).  In x1
the coefficient's scale is hbar.  In x3 its fibre variable w3 has second
moment <w3^2> = 2 ||D phi||^2 / delta^2 + <xi^2>_phi w2^2 on the bare
carrier phi, so the x3 extent is hbar^2 only at x2 = x0_2 and about
hbar^{3/2} across the profile, where w2 ~ hbar^{-1/2}.  The same identity
with the transverse phase integrated out makes every L2 integral of the
packet exact: `residual`'s ||r|| and ||psi|| and `transport_demo`'s
moments are Gram sums over the (w1, w3) fibres followed by a fixed
Gauss-Hermite rule in (y2, y4) (`_fibre_pairs`, `_fibre_densities`).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import GroupElement, exp_basis, multiply
from .dispersion import _hermite_branch, _parity_blocks
from .spectral import _integral_mode, _reduced_resolvent, _resolve, real_cbrt


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
    (complex-width Gaussian), coeff being the packet's dispersion
    coefficient; y4 is a spectator.  All partial derivatives entering the
    correctors are analytic.
    """

    width2: float = 0.45
    width4: float = 0.8

    def partials(self, t: float, coeff: float, y2, y4, kmax: int) -> np.ndarray:
        """d_2^k2 d_4^k4 a for k2, k4 <= kmax, indexed [k2, k4, ...], the
        trailing axes those of y2 and y4 broadcast together."""
        s = self.width2**2 + 2j * coeff * t
        u2, u4 = np.broadcast_arrays(np.asarray(y2, dtype=float), np.asarray(y4, dtype=float))
        a = (self.width2 / np.sqrt(s) * np.exp(-(u2**2) / (2 * s))
             * np.exp(-(u4**2) / (2 * self.width4**2)))
        p2 = _gaussian_factors(u2, s, kmax)
        p4 = _gaussian_factors(u4, self.width4**2, kmax)
        return p2[:, None] * p4[None, :] * a

    def evolved_width2(self, t: float, coeff: float) -> float:
        """Dispersed |a|^2 width: w^2 + (2 coeff t / w)^2 in variance form;
        ValueError naming t where it is not a finite number > 0."""
        w = self.width2
        try:
            width = math.sqrt(w**2 + (2.0 * coeff * t / w) ** 2)
        except OverflowError:
            width = math.inf
        if not (math.isfinite(width) and width > 0.0):
            raise ValueError(f"t = {t} with profile.width2 = {w} disperses the profile to a "
                             f"y2 width of {width}, not a finite number > 0")
        return width

    def l2_normsq(self) -> float:
        return math.pi * self.width2 * self.width4


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

    The profile disperses with mu_n''/2 of the packet's own mode (the
    machinery's `dispersion`), so the spec holds only its two widths.  x0 is
    four finite numbers and both profile widths are finite and > 0.
    """

    x0: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    delta0: float = 1.0
    beta0: float = 0.0
    n: int = 1
    profile: GaussianProfile = GaussianProfile()

    def __post_init__(self):
        _integral_mode(self.n)
        if not (self.n >= 1 and self.delta0 != 0 and math.isfinite(self.delta0)
                and math.isfinite(self.beta0)):
            raise ValueError(f"a packet needs n >= 1, a finite delta0 != 0 and a finite beta0, "
                             f"got n = {self.n}, delta0 = {self.delta0}, beta0 = {self.beta0}")
        if len(self.x0) != 4 or not all(map(math.isfinite, self.x0)):
            raise ValueError(f"a packet needs x0 of 4 finite numbers, got {self.x0}")
        widths = (self.profile.width2, self.profile.width4)
        if not all(math.isfinite(w) and w > 0 for w in widths):
            raise ValueError("a packet needs finite profile widths > 0, got "
                             f"profile.width2 = {widths[0]}, profile.width4 = {widths[1]}")

    def x0_element(self) -> GroupElement:
        return GroupElement(*self.x0)


# zero coefficients kept past the M Hermite functions of the solves: xi and
# d/dxi raise a vector's top index by one, W by two and H by four, and the
# deepest word of `residual` (d/dxi or xi on the (mu - H) image of xi phi)
# by six, so every image and word is exact
_PAD = 6


# An overflow ends in a value that is not finite, which the machinery and
# `_gram_sum` refuse by name; numpy's warnings would only come before the refusal
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _ladder(v: np.ndarray, up: float, down: float) -> np.ndarray:
    """Coefficients (axis 0) of sum_k v_k (up e_k psi_{k+1} + down e_{k-1} psi_{k-1}),
    e_k = sqrt((k + 1)/2): on Hermite functions psi_k of length s, xi is
    up = down = s and d/dxi is up = -1/s, down = 1/s."""
    e = np.sqrt(0.5 * np.arange(1.0, len(v))).reshape(-1, *[1] * (v.ndim - 1))
    out = np.zeros_like(v)
    out[1:] = up * e * v[:-1]
    out[:-1] += down * e * v[1:]
    return out


class _PacketMachinery:
    """Mode n of H(delta0, beta0), the corrector basis vectors and their
    generator images, as coefficients on Hermite functions.

    The length is s = |delta0|^{-1/3} (2 + max(nu, 0))^{-1/4}, nu =
    beta0 / delta0^{1/3}, where H is |delta0|^{2/3} (nu^2 + block) on each
    parity block of `montgomery_branch`, whose phi, mu, mu' and mu'' and
    certified size (m functions per parity, M = 2m) the machinery takes.
    dphi and the sigma_2 correctors, one per monomial of `_SIGMA2`, solve
    (mu - H) u = Pi_perp r, <u, phi> = 0 by one banded LU per block
    (`spectral._resolve`): `spectral._reduced_resolvent` on phi's block,
    a plain solve on the other.  A spec whose (mu, mu', mu'') or images
    overflow is refused with a ValueError.
    """

    @_quiet_overflow
    def __init__(self, spec: WavePacketSpec):
        self.spec = spec
        n, cbrt = spec.n, real_cbrt(spec.delta0)
        nu = spec.beta0 / cbrt
        self.length = abs(spec.delta0) ** (-1.0 / 3.0) * (2.0 + max(nu, 0.0)) ** -0.25
        [((mu, mu_d1, mu_d2), (w, phi_p, on_phi))] = _hermite_branch(n, [nu])
        self.mu, self.mu_d1, self.mu_d2 = float(cbrt * cbrt * mu), float(cbrt * mu_d1), float(mu_d2)
        self.dispersion = 0.5 * self.mu_d2  # profile equation coefficient

        M, p, i = 2 * len(phi_p), (n - 1) % 2, np.argmax(np.abs(phi_p))
        phi = np.zeros(M + _PAD)
        phi[p:M:2] = phi_p = phi_p * np.sign(phi_p[i])  # largest entry positive
        [off_phi] = _parity_blocks(1 - p, [nu], M // 2)[1]

        def solve(r: np.ndarray) -> np.ndarray:
            u = np.zeros_like(r)
            u[p:M:2] = _reduced_resolvent(on_phi, w, phi_p, r[p:M:2])
            u[1 - p:M:2] = _resolve(off_phi, w, r[1 - p:M:2])
            return u / (cbrt * cbrt)

        xi_phi, dphi = self.xi(phi), solve(2.0 * self.w(phi))
        sources = _sigma2_sources(self, xi_phi, dphi)
        correctors = solve(np.column_stack(list(sources.values()))).T
        self.images = self._images({"phi": phi, "xi_phi": xi_phi, "dphi": dphi,
                                    **dict(zip(sources, correctors))})
        self.basis = {k: v[:, 0] for k, v in self.images.items()}
        if not (np.isfinite([self.mu, self.mu_d1, self.mu_d2]).all()
                and all(np.isfinite(v).all() for v in self.images.values())):
            raise ValueError(f"the packet at delta0 = {spec.delta0}, beta0 = {spec.beta0}, "
                             f"n = {n} overflowed: (mu, mu', mu'') or an image of its "
                             "carrier is not finite")

    def xi(self, v: np.ndarray) -> np.ndarray:
        return _ladder(v, self.length, self.length)

    def d(self, v: np.ndarray) -> np.ndarray:
        return _ladder(v, -1.0 / self.length, 1.0 / self.length)

    def w(self, v: np.ndarray) -> np.ndarray:
        return self.spec.beta0 * v + 0.5 * self.spec.delta0 * self.xi(self.xi(v))

    def h(self, v: np.ndarray) -> np.ndarray:
        return self.w(self.w(v)) - self.d(self.d(v))

    def _images(self, vectors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        # dpi(X1) = d/dxi, dpi(X2) = iW and dpi(X1^2 + X2^2) = -H
        V = np.column_stack(list(vectors.values()))
        images = np.stack([V, self.d(V), self.w(V), self.mu * V - self.h(V)], axis=-1)
        return dict(zip(vectors, images.transpose(1, 0, 2)))

    def center(self, t: float) -> GroupElement:
        """Moving center x(t) = x0 Exp(d_beta mu_n t X2)."""
        return multiply(self.spec.x0_element(), exp_basis(2, self.mu_d1 * t))


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

# sigma_2 Phi1 = (mu - H)^{-1} Pi_perp R Phi1, R = i c2 X2~ sigma_1 - 2 (pi(V).V)
# sigma_1 - (i d_t a + Delta a) Id, c2 = mu', takes one corrector per monomial
# of R Phi1 (`_sigma2_sources`); the factors of i stay here, so the correctors
# and the Gram matrix are real.  X2 = d_2 also differentiates P, giving y1 d4 a.
_SIGMA2 = {"u_Pa24": {(1, 0, 1, 1): 1j}, "u_a22": {(0, 0, 2, 0): 1.0},
           "u_PPa44": {(2, 0, 0, 2): 2.0}, "u_y1a4": {(0, 1, 0, 1): -1j}}


def _sigma2_sources(m: _PacketMachinery, xi_phi: np.ndarray,
                    dphi: np.ndarray) -> dict[str, np.ndarray]:
    """{corrector: the source R Phi1 puts on its `_SIGMA2` monomial}, before
    (mu - H)^{-1} Pi_perp.  In the double well, xi phi and D1 dphi solved
    one by one each carry phi's near-degenerate partner with weight ~1/gap;
    summed first, on P a_24, the partner parts cancel."""
    c2 = m.mu_d1
    return {"u_Pa24": 2.0 * (m.d(dphi) + m.w(xi_phi)) - c2 * xi_phi,
            "u_a22": c2 * dphi - 2.0 * m.w(dphi),
            "u_PPa44": m.d(xi_phi), "u_y1a4": m.w(xi_phi)}


def _ansatz_terms(order: AnsatzOrder, hb) -> list[dict[str, dict]]:
    """Term tables of a, sqrt(hbar) sigma_1 and hbar sigma_2, one per order
    from LEADING through `order`; their union is the ansatz cut at `order`.
    hbar is a number or an (H, 1, 1) ladder, and so are the corrector terms."""
    orders = [({"phi": {(0, 0, 0, 0): 1.0}}, 1.0), (_SIGMA1, np.sqrt(hb)), (_SIGMA2, hb)]
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


# ---------------------------------------------------------------------------
# exact L2 integrals over the coefficient fibres
# ---------------------------------------------------------------------------


def packet_norm_exact(spec: WavePacketSpec, hbar: float) -> float:
    """Closed-form L2 norm hbar^{3/4} sqrt(2 pi/|delta0|) ||a|| of the packet,
    from the profile alone: ||a|| does not depend on its dispersion."""
    return hbar**0.75 * math.sqrt(2.0 * math.pi / abs(spec.delta0) * spec.profile.l2_normsq())


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
    # |a|^2 ~ exp(-alpha2 y2^2 - alpha4 y4^2)
    alpha2 = m.spec.profile.evolved_width2(t, m.dispersion) ** -2
    alpha4 = m.spec.profile.width4 ** -2
    quad = np.outer(wts * np.exp(x**2), wts * np.exp(x**2)) / math.sqrt(alpha2 * alpha4)
    return x[:, None] / math.sqrt(alpha2), x[None, :] / math.sqrt(alpha4), quad


def _fibre_pairs(m: _PacketMachinery, t: float, hb: np.ndarray, y2: np.ndarray, y4: np.ndarray,
                 columns: list[tuple[tuple[str, int], dict, complex]]) -> dict:
    """{(u word, v word): coefficient on the ladder hb (H, 1, 1) and nodes} with

        sum over columns (u, term, factor) of factor * term . C[u; phi]
            = sum c C[u word; v word]

    at each fixed (w2, w4).  u is an image column (name, col); a word
    (name, col, ops) is that column, or phi's, with xi ('x') and D1 ('d')
    applied in the order of ops.  A monomial P^p y1^q takes the y1 moves q
    times, then the P moves p times.  No word depends on hbar.
    """
    kmax = max(max(k[2:]) for _, term, _ in columns for k in term)
    partials = m.spec.profile.partials(t, m.dispersion, y2, y4, kmax)
    rh = np.sqrt(hb)
    pf = -0.5j * (hb / m.spec.delta0)
    on_y1 = (("x", "", rh), ("", "x", -rh))
    on_p = (("", "x", 0.5 * (rh * y2 + m.mu_d1 * t)), ("d", "", pf), ("", "d", pf))

    def expansion(p: int, q: int) -> dict:
        words = {("", ""): 1.0}
        for moves in (on_y1,) * q + (on_p,) * p:
            out: dict = {}
            for (du, dv), c in words.items():
                for eu, ev, f in moves:
                    out[du + eu, dv + ev] = out.get((du + eu, dv + ev), 0.0) + f * c
            words = out
        return words

    grouped: dict = {}  # (u, p, q) -> coefficient on the ladder and the nodes
    zero = np.zeros_like(hb)  # so that every coefficient has the ladder's axis
    for u, term, factor in columns:
        for (p, q, k2, k4), c in term.items():
            grouped[u, p, q] = grouped.get((u, p, q), zero) + factor * c * partials[k2, k4]
    expansions = {pq: expansion(*pq) for pq in {(p, q) for _, p, q in grouped}}
    pairs: dict = {}
    for (u, p, q), f in grouped.items():
        for (du, dv), c in expansions[p, q].items():
            key = ((*u, du), ("phi", 0, dv))
            pairs[key] = pairs.get(key, 0.0) + c * f
    return pairs


def _fibre_densities(m: _PacketMachinery, pair_maps: list[dict]) -> list[np.ndarray]:
    """int int |sum c C[u; v]|^2 dw1 dw3 on the ladder and the nodes (H, n, n)
    for each pair map {(u, v): c}, as (2 pi / |delta|) sum_{s,t} c_s conj c_t
    (u_s, u_t) (v_t, v_s) from one Gram matrix of every word the maps name, on
    coefficients; the form is taken one hbar at a time, bitwise as if alone."""
    vectors: dict = {}

    def vector(word):
        if word not in vectors:
            name, col, ops = word
            if not ops:
                vectors[word] = m.images[name][:, col]
            else:
                v = vector((name, col, ops[:-1]))
                vectors[word] = m.xi(v) if ops[-1] == "x" else m.d(v)
        return vectors[word]

    words = dict.fromkeys(w for pairs in pair_maps for key in pairs for w in key)
    index = {w: k for k, w in enumerate(words)}
    W = np.column_stack([vector(w) for w in words])
    gram = W.T @ W  # (w_a, w_b), real coefficients
    densities = []
    for pairs in pair_maps:
        u = [index[key[0]] for key in pairs]
        v = [index[key[1]] for key in pairs]
        coupling = gram[np.ix_(u, u)]
        coupling *= gram[np.ix_(v, v)].T  # in place: one pairs x pairs temporary fewer
        forms = []
        for at_hbar in zip(*pairs.values()):  # (pairs, nodes), as large as a one-hbar call's
            c = np.reshape(at_hbar, (len(pairs), -1))
            ab = np.hstack([c.real, c.imag])  # Re c.(K conj c) = a.(K a) + b.(K b), K real
            form = np.sum(ab * (coupling @ ab), axis=0)
            forms.append(form[: c.shape[1]] + form[c.shape[1]:])
        densities.append(2.0 * math.pi / abs(m.spec.delta0)
                         * np.reshape(forms, (-1, _GH_NODES, _GH_NODES)))
    return densities


# ---------------------------------------------------------------------------
# Schrodinger residual
# ---------------------------------------------------------------------------


class GramSumError(ValueError):
    """A squared L2 norm or a variance summed over the fibres came out
    negative (the correctors lost precision; a guard) or not finite (the
    fibre sums overflowed at a large t)."""


def _gram_sum(value: float, what: str, t: float, hbar: float) -> float:
    """value, or a GramSumError naming `what` with t and hbar if it is NaN
    or infinite, with hbar if it is negative."""
    if not math.isfinite(value):
        raise GramSumError(f"{what} Gram sum is {value} at t = {t}, hbar = {hbar}: "
                           "the fibre sums overflowed")
    if value < 0:
        raise GramSumError(f"{what} Gram sum is {value:.6g} < 0 at hbar = {hbar}: "
                           "its correctors lost precision")
    return value


def _hbar_ladder(hbars: Sequence[float], distinct: int = 1) -> list[float]:
    """The ladder as floats; a ValueError names an hbar that is not finite
    and > 0, or a ladder with fewer than `distinct` distinct values."""
    hbars = [float(h) for h in hbars]
    for h in hbars:
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"every hbar must be finite and > 0, got hbar = {h}")
    if len(set(hbars)) < distinct:
        raise ValueError(f"need {distinct} or more distinct hbar values, got {hbars}")
    return hbars


@dataclass
class ResidualEstimate:
    hbar: float
    relative: float
    absolute: float
    psi_norm: float


def residual(spec: WavePacketSpec, order: AnsatzOrder, t: float,
             hbars: Sequence[float]) -> list[dict[AnsatzOrder, ResidualEstimate]]:
    """L2 norms of r = i hbar d_t psi + hbar^2 (X1^2 + X2^2) psi and of psi
    over the packet, for every ansatz order from LEADING through `order`, one
    dict per hbar of the ladder.

    With psi = hbar^{-7/4} e^{-i mu t/hbar} sum_j A_j(t, y) C[v_j; Phi1](w),
    exactly

        r = hbar^{-7/4} e^{-i mu t/hbar} sum_j [(i hbar D_t A_j + hbar Delta A_j) C[v_j]
            + 2 sqrt(hbar) (X1 A_j C[D1 v_j] + i X2 A_j C[W v_j]) + A_j C[(mu - H) v_j]];

    the phase has modulus one, and both norms are exact Gram sums over the
    fibres.  The orders are nested and name disjoint basis vectors, so each
    order's pairs are built once and merged into the lower orders', and one
    Gram matrix serves them all.
    hbar is a leading (H, 1, 1) axis of the coefficients, so one pass serves
    the ladder, each hbar's estimates bitwise those of a one-hbar call.
    """
    hbars = _hbar_ladder(hbars)
    m = machinery(spec)
    return _residual(m, order, t, hbars, m.dispersion)


@_quiet_overflow
def _residual(m: _PacketMachinery, order: AnsatzOrder, t: float, hbars: list[float],
              c3) -> list[dict[AnsatzOrder, ResidualEstimate]]:
    """`residual` of the packet whose profile flows by i d_t a + c3 d_2^2 a = 0
    in d_t's rule; c3 is a number or an (H, 1, 1) array, one per ladder entry.
    The profile and the fibre rule keep m.dispersion; at t = 0 they do not
    depend on it."""
    y2, y4, quad = _fibre_rule(m, t)
    hb = np.reshape(hbars, (-1, 1, 1))
    rh = np.sqrt(hb)
    # d_t at fixed x: the profile flows (d_t a = i c3 a_22) and recenters
    # (y2 = (x2 - c2 t)/sqrt(hbar)); P and y1 do not move
    dt = ({}, {}, {(0, 0, 2, 0): 1j * c3, (0, 0, 1, 0): -m.mu_d1 / rh})
    psi, r, pair_maps = {}, {}, []
    for table in _ansatz_terms(order, hb):
        psi_cols, r_cols = [], []
        for name, A in table.items():
            x1A, x2A = _derive(A, _X1), _derive(A, _X2)
            psi_cols.append(((name, 0), A, 1.0))
            r_cols += [((name, 0), _derive(A, dt), 1j * hb),
                       ((name, 0), _derive(x1A, _X1), hb),
                       ((name, 0), _derive(x2A, _X2), hb),
                       ((name, 3), A, 1.0),
                       ((name, 1), x1A, 2.0 * rh),
                       ((name, 2), x2A, 2j * rh)]
        psi = {**psi, **_fibre_pairs(m, t, hb, y2, y4, psi_cols)}
        r = {**r, **_fibre_pairs(m, t, hb, y2, y4, r_cols)}
        pair_maps += [psi, r]
    densities = _fibre_densities(m, pair_maps)
    names = [f"the {cut.value} order's ||{f}||^2" for cut in AnsatzOrder for f in ("psi", "r")]
    estimates = []
    for h, hbar in enumerate(hbars):
        norms = [math.sqrt(_gram_sum(hbar**1.5 * float(np.sum(quad * d[h])), name, t, hbar))
                 for name, d in zip(names, densities)]
        estimates.append({cut: ResidualEstimate(hbar=hbar, relative=r / psi,
                                                absolute=r, psi_norm=psi)
                          for cut, psi, r in zip(AnsatzOrder, norms[::2], norms[1::2])})
    return estimates


@dataclass
class ScalingReport:
    hbars: list[float]
    residuals: list[float]
    slope: float


def residual_scaling_experiment(spec: WavePacketSpec, hbar_list: Sequence[float],
                                t: float = 0.1) -> dict[AnsatzOrder, ScalingReport]:
    """Least-squares slope of log(relative residual) against log(hbar), for
    every ansatz order, from one `residual` call on a ladder of >= 4 distinct hbar."""
    hbars = _hbar_ladder(hbar_list, distinct=4)
    per_hbar = residual(spec, AnsatzOrder.WITH_SIGMA1_AND_2, t, hbars)
    reports = {}
    for cut in per_hbar[0]:
        res = [e[cut].relative for e in per_hbar]
        slope = np.polyfit(np.log(np.asarray(hbars)), np.log(np.asarray(res)), 1)[0]
        reports[cut] = ScalingReport(hbars, res, float(slope))
    return reports


# ---------------------------------------------------------------------------
# the effective mass, read back from the residual
# ---------------------------------------------------------------------------

# hbar pair of the read-back, the second half the first for Richardson, and
# the step between the three coefficients that fix each hbar's parabola
_READBACK_HBARS, _READBACK_STEP = (1e-3, 5e-4), 0.1


@dataclass
class MassReadback:
    hbars: list[float]
    coefficient: float  # the machinery's dispersion, mu''/2
    readback: list[float]  # c*(hbar), the vertex of ||r(c)||^2
    richardson: float  # 2 rho(hbar/2) - rho(hbar), rho = c*/coefficient - 1


def _mass_readback(spec: WavePacketSpec) -> MassReadback:
    """The dispersion coefficient c* that the Schrodinger equation forces,
    per hbar of `_READBACK_HBARS`, against the machinery's mu''/2.

    At t = 0 the profile does not depend on its dispersion coefficient c, so
    the residual of the packet whose profile obeys i d_t a + c d_2^2 a = 0 is
    affine in c, through d_t's a_22 term alone, and ||r(c)||^2 is an exact
    parabola.  One `_residual` pass takes c = c0 - step, c0, c0 + step at each
    hbar on the ladder axis; c* is each parabola's vertex.  rho = c*/c0 - 1 is
    O(hbar), and its Richardson value 2 rho(hbar/2) - rho(hbar) tends to 0
    iff c0 is the coefficient the equation forces.  The ansatz is cut after
    sigma_1: sigma_2 moves rho's O(hbar) slope, not its limit.
    """
    m = machinery(spec)
    c0, steps = m.dispersion, (-_READBACK_STEP, 0.0, _READBACK_STEP)
    ladder = [hb for hb in _READBACK_HBARS for _ in steps]
    c3 = np.reshape([c0 + s for _ in _READBACK_HBARS for s in steps], (-1, 1, 1))
    cut = AnsatzOrder.WITH_SIGMA1
    f = np.reshape([e[cut].absolute ** 2 for e in _residual(m, cut, 0.0, ladder, c3)], (-1, 3))
    readback = [c0 + _READBACK_STEP * float(lo - hi) / (2.0 * float(lo - 2.0 * mid + hi))
                for lo, mid, hi in f]
    rho = [c / c0 - 1.0 for c in readback]
    return MassReadback(list(_READBACK_HBARS), c0, readback, 2.0 * rho[1] - rho[0])


# ---------------------------------------------------------------------------
# transport of the packet center
# ---------------------------------------------------------------------------


@_quiet_overflow
def _fibre_moments(m: _PacketMachinery, order: AnsatzOrder, t: float,
                   hbars: list[float]) -> list[tuple[float, float, float]]:
    """Exact ||psi||^2 and the mean and variance of y2 under |psi|^2 for the
    ansatz cut at `order`, per hbar: y2^j weights on the fibre densities of
    psi, hbar a leading axis as in `residual`."""
    y2, y4, quad = _fibre_rule(m, t)
    hb = np.reshape(hbars, (-1, 1, 1))
    cols = [((name, 0), A, 1.0) for table in _ansatz_terms(order, hb)
            for name, A in table.items()]
    density, = _fibre_densities(m, [_fibre_pairs(m, t, hb, y2, y4, cols)])
    moments = []
    for hbar, d in zip(hbars, density):
        i0, i1, i2 = (float(np.sum(quad * y2**j * d)) for j in range(3))
        mean = i1 / _gram_sum(i0, f"the {order.value} order's mass", t, hbar)
        var = _gram_sum(i2 / i0 - mean**2, f"the {order.value} order's y2 variance", t, hbar)
        moments.append((hbar**1.5 * i0, mean, var))
    return moments


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

    The mass, centroid and width are exact integrals from one `_fibre_moments`
    call on the ladder, so the rows are deterministic.  Works both at generic
    beta0 (nonzero drift) and on a critical cone (stationary center).
    """
    hbars = _hbar_ladder(hbar_list)
    m = machinery(spec)
    pred = float(m.center(t).x2)
    rows = []
    for hb, (mass, mean, var) in zip(hbars, _fibre_moments(m, AnsatzOrder.WITH_SIGMA1, t, hbars)):
        offset = math.sqrt(hb) * mean  # x2 = x(t)_2 + sqrt(hbar) y2
        rows.append(TransportRow(hbar=hb, t=t, centroid_x2=pred + offset, predicted_x2=pred,
                                 packet_width=math.sqrt(hb * var),
                                 drift_error=abs(offset), mass=mass))
    return rows

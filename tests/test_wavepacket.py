"""Wave-packet assembly, correctors, residual orders, transport."""

import math

import numpy as np
import packet_reference
import pytest
from algebra_reference import dilate
from grid_reference import rep_apply
from hermite_reference import dense_machinery, parity_block
from packet_reference import (
    ansatz_values,
    corrector_sigma1,
    corrector_sigma2,
    on_grid,
    sigma2_diagnostic,
)

from engellab import fourier, wavepacket
from engellab.algebra import GroupElement, multiply
from engellab.dispersion import critical_points, montgomery_branch
from engellab.fourier import (
    GridMarginError,
    live_window,
    matrix_coefficient,
    matrix_coefficients,
)
from engellab.spectral import ConfinementError, SpectralGrid, real_cbrt
from engellab.wavepacket import (
    AnsatzOrder,
    GaussianProfile,
    GramSumError,
    WavePacketSpec,
    machinery,
    packet_norm_exact,
    residual,
    residual_scaling_experiment,
    transport_demo,
)

SPEC = WavePacketSpec(delta0=1.0, beta0=0.0, n=1)
HBAR = 0.05


def _bare(x):
    """Value of the bare packet (the t = 0 leading ansatz) at one point."""
    return ansatz_values(SPEC, AnsatzOrder.LEADING, 0.0, x, HBAR)[0]


def test_value_at_center():
    v = _bare(GroupElement(0, 0, 0, 0))
    # a(0) = 1 and <Phi1, Phi1> = 1 for the normalized eigenvector
    assert v == pytest.approx(HBAR ** (-7.0 / 4.0), rel=1e-12)


def test_profile_decay_along_x2():
    peak = abs(_bare(GroupElement(0, 0, 0, 0)))
    off = abs(_bare(GroupElement(0, 10 * math.sqrt(HBAR), 0, 0)))
    assert off <= 1e-6 * peak


def test_norm_scaling_is_hbar_three_quarters():
    # hbar^{-3/4} ||psi|| should be flat in hbar and match the closed form
    vals = []
    for hb in (0.1, 0.05, 0.025):
        est = residual(SPEC, AnsatzOrder.LEADING, 0.0, [hb])[0][AnsatzOrder.LEADING].psi_norm
        assert est == pytest.approx(packet_norm_exact(SPEC, hb), rel=0.02)
        vals.append(est / hb**0.75)
    assert max(vals) / min(vals) - 1.0 <= 0.02


def test_norm_needs_no_spectral_data():
    # the norm is the profile's closed form, 0.28187 at hbar 0.05, also at
    # beta0 = -4 (gap 1.6e-5), in the double well
    spec = WavePacketSpec(delta0=1.0, beta0=-4.0, n=1)
    exact = HBAR**0.75 * math.sqrt(2.0 * math.pi * math.pi * 0.45 * 0.8)
    assert packet_norm_exact(spec, HBAR) == pytest.approx(exact, rel=1e-15)
    assert packet_norm_exact(spec, HBAR) == pytest.approx(0.28187, abs=5e-6)


def test_profile_disperses_with_half_the_mode_curvature():
    # the machinery disperses the profile with mu''/2 of the packet's mode
    m = machinery(SPEC)
    assert m.dispersion == 0.5 * m.mu_d2 != 0


@pytest.mark.parametrize("kwargs, message", [
    (dict(x0=(0.0, 0.0, 0.0)), "x0 of 4 finite numbers"),
    (dict(x0=(0.0, math.inf, 0.0, 0.0)), "x0 of 4 finite numbers"),
    (dict(profile=GaussianProfile(width2=-1.0)), "finite profile widths > 0"),
    (dict(profile=GaussianProfile(width4=0.0)), "finite profile widths > 0"),
    (dict(profile=GaussianProfile(width2=math.nan)), "finite profile widths > 0"),
])
def test_spec_refuses_malformed_x0_and_widths(kwargs, message):
    with pytest.raises(ValueError, match=message):
        WavePacketSpec(**kwargs)


def test_phase_and_center_group_law():
    m = machinery(SPEC)
    t, s = 0.3, 0.45
    lhs = m.center(t + s)
    rhs = multiply(m.center(t), GroupElement(0.0, m.mu_d1 * s, 0.0, 0.0))
    assert np.allclose(
        [float(c) for c in lhs.coords()], [float(c) for c in rhs.coords()]
    )


# -- Hermite machinery -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_machinery_matches_montgomery_branch(n):
    # (mu, mu', mu'') = (|d|^{2/3} mu~, sign(d) |d|^{1/3} mu~', mu~'') at
    # nu = beta0 / d^{1/3}: the machinery takes the branch's solve and
    # converts its units, so this checks the conversion against the values
    # scaled here; measured 0 over these 48 points (the same products), and
    # the bound, 3e-14 relative to max(1, |value|), leaves rounding room
    for delta in (-0.7, 1.0, 2.0):
        for beta in (-4.0, -0.35, 0.0, 0.5):
            m = machinery(WavePacketSpec(delta0=delta, beta0=beta, n=n))
            c = real_cbrt(delta)
            ref = np.array(montgomery_branch(n, beta / c)) * [c * c, c, 1.0]
            got = np.array([m.mu, m.mu_d1, m.mu_d2])
            assert np.all(np.abs(got - ref) <= 3e-14 * np.maximum(1.0, np.abs(ref))), (delta, beta)


# the banded block solves against the dense route of hermite_reference
# (eigh, then one bordered solve over both parities), relative to each
# vector's largest entry: measured worst 2.3e-15 at the first three specs;
# at beta0 = -4 (gap 1.6e-5) 7.1e-15 on phi's parity and 2.9e-10 and
# 3.2e-10 for u_Pa24 and u_y1a4, whose block has condition 1.6e8 there.
# (mu, mu', mu'') agree to 6.7e-15 of max(1, |value|).  Bounds at ~4x
@pytest.mark.parametrize("spec, phi_tol, other_tol", [
    (SPEC, 1e-14, 1e-14),
    (WavePacketSpec(n=3, delta0=2.0, beta0=-1.0), 1e-14, 1e-14),
    (WavePacketSpec(n=2, delta0=-0.7, beta0=0.5), 1e-14, 1e-14),
    (WavePacketSpec(beta0=-4.0), 3e-14, 3e-9),
], ids=["default", "n3-even", "n2-odd", "tunnelling"])
def test_machinery_matches_the_dense_bordered_route(spec, phi_tol, other_tol):
    m = machinery(spec)
    basis, fh = dense_machinery(m)
    got = np.array([m.mu, m.mu_d1, m.mu_d2])
    assert np.all(np.abs(got - fh) <= 3e-14 * np.maximum(1.0, np.abs(fh)))
    for name, v in basis.items():
        tol = other_tol if name in ("xi_phi", "u_Pa24", "u_y1a4") else phi_tol
        assert np.max(np.abs(m.basis[name] - v)) <= tol * np.max(np.abs(v)), name


def test_generators_satisfy_the_algebra_on_coefficients():
    # -D^2 + W^2 from the two tridiagonal ladders is |delta0|^{2/3} (nu^2 +
    # block) on each parity, with the closed-form block the branch solves
    # (hermite_reference.parity_block), and couples no two parities:
    # measured 4.8e-16 of max |H|, so the machinery may take the branch's
    # solve.  phi is its eigenvector on the M functions of the solves
    # (measured 5.0e-16); past them (mu - H) phi is the basis' truncation,
    # 1.6e-13 here, which certify_basis bounds
    spec = WavePacketSpec(delta0=-0.7, beta0=0.5, n=2)
    m = machinery(spec)
    c = real_cbrt(spec.delta0)
    nu = spec.beta0 / c
    K = len(m.basis["phi"]) - 4  # h raises the top index by four
    H = m.h(np.eye(K + 4, K))[:K]
    for q in (0, 1):
        block = c * c * (nu * nu * np.eye(K // 2) + parity_block(q + 1, nu, K // 2))
        assert np.max(np.abs(H[q::2, q::2] - block)) <= 1e-13 * np.max(np.abs(H))
        assert not np.any(H[q::2, 1 - q::2])
    phi, M = m.basis["phi"], len(m.basis["phi"]) - wavepacket._PAD
    assert np.linalg.norm((m.w(m.w(phi)) - m.d(m.d(phi)) - m.mu * phi)[:M]) <= 1e-14 * m.mu


def test_tunnelling_pair_builds():
    # beta0 = -4 (gap 1.6e-5): each parity is solved exactly apart, so no
    # rounding crosses the gap, and mu'' is the Hermite branch's
    m = machinery(WavePacketSpec(beta0=-4.0))
    # measured 2.7e-15, bound as in test_machinery_matches_montgomery_branch
    assert abs(m.mu_d2 - montgomery_branch(1, -4.0)[2]) <= 3e-14
    for name in ("phi", "dphi", "u_a22", "u_PPa44"):  # phi's parity: even indices
        assert not np.any(m.basis[name][1::2]), name
    for name in ("xi_phi", "u_Pa24", "u_y1a4"):
        assert not np.any(m.basis[name][::2]), name
    est = residual(WavePacketSpec(beta0=-4.0), AnsatzOrder.WITH_SIGMA1_AND_2, 0.1, [0.0125])[0]
    assert all(math.isfinite(e.relative) for e in est.values())


def test_negative_gram_sum_is_refused_by_name(monkeypatch):
    # a negative sigma_2 Gram sum ended in a bare math domain error from
    # math.sqrt.  Its psi and r densities are negated here, the last two of
    # residual's six pair maps; a sigma_1 cut has four, whose sums stay sane
    fibre_densities = wavepacket._fibre_densities

    def negated(m, pair_maps):
        return [-d if k >= 4 else d for k, d in enumerate(fibre_densities(m, pair_maps))]

    monkeypatch.setattr(wavepacket, "_fibre_densities", negated)
    with pytest.raises(GramSumError, match=r"^the sigma2 order's \|\|(psi|r)\|\|\^2 Gram sum "
                       r"is -\S+ < 0 at hbar = 0\.1: its correctors lost precision$"):
        residual(SPEC, AnsatzOrder.WITH_SIGMA1_AND_2, 0.1, [0.1])
    est, = residual(SPEC, AnsatzOrder.WITH_SIGMA1, 0.1, [0.1])
    assert all(math.isfinite(e.relative) and e.relative > 0 for e in est.values())
    # every hbar of a ladder has a negative sigma_2 sum here; the first in
    # ladder order is named, as one-hbar calls in turn would name it
    for ladder, named in (([0.1, 0.0125], "0.1"), ([0.0125, 0.1], "0.0125")):
        with pytest.raises(GramSumError, match=rf"Gram sum is -\S+ < 0 at hbar = {named}: "):
            residual(SPEC, AnsatzOrder.WITH_SIGMA1_AND_2, 0.1, ladder)


@pytest.mark.parametrize("beta0", [-5.5, -6.0, -7.0])
def test_double_well_packet_is_answered(beta0):
    # the gap mu2 - mu1 is 2.4e-9, 9.0e-11 and 7.1e-14 here, and on the ladder
    # 1e-3 .. 1.25e-4 the slopes are criterion 7's: measured full 1.5035,
    # 1.5042 and 1.5057, sigma1 1.0017, 1.0021 and 1.0030, each at least
    # 0.14 inside the windows [1.35, 1.65] and [0.85, 1.15]
    reports = residual_scaling_experiment(WavePacketSpec(beta0=beta0),
                                          [1e-3, 5e-4, 2.5e-4, 1.25e-4], t=0.1)
    for rep in reports.values():
        assert all(math.isfinite(r) and r > 0 for r in rep.residuals)
    assert 1.35 <= reports[AnsatzOrder.WITH_SIGMA1_AND_2].slope <= 1.65
    assert 0.85 <= reports[AnsatzOrder.WITH_SIGMA1].slope <= 1.15


@pytest.mark.parametrize("beta0", [0.0, -4.0, -6.0, -7.0])
def test_every_sigma2_corrector_stays_order_one(beta0):
    # sigma_2 takes one solve per monomial, so the near-degenerate partner
    # cancels in the source: the largest norm, u_Pa24's, is measured 0.27,
    # 1.21, 1.33 and 1.37 here; a solve of xi phi alone, as for a corrector
    # per source column, reads 0.44, 1.7e5, 3.8e10 and 5.0e13.  Bound at ~2x
    m = machinery(WavePacketSpec(beta0=beta0))
    for name in m.basis.keys() - {"phi", "xi_phi", "dphi"}:
        assert np.linalg.norm(m.basis[name]) <= 3.0, name


def _word_vector(m, word):
    """The coefficients of a word (name, col, ops) of `_fibre_pairs`."""
    name, col, ops = word
    v = m.images[name][:, col]
    for op in ops:
        v = m.xi(v) if op == "x" else m.d(v)
    return v


@pytest.mark.parametrize("beta0", [0.0, -4.0, -6.0])
def test_fibre_densities_match_a_gram_free_form(monkeypatch, beta0):
    # at a node, sum_{s,t} c_s conj c_t (u_s, u_t)(v_t, v_s) is
    # ||U diag(c) V^T||_F^2 with the words as columns of U and V, which
    # forms no Gram matrix and cancels nothing between its entries: the
    # sigma_2 order's psi and r at three (y2, y4) nodes, hbar = 0.1, agree to
    # 1.2e-14 here (with a corrector per source column, 9.9e-8 at beta0 = -4
    # and no digit at -6); bound at ~8x
    spec = WavePacketSpec(beta0=beta0)
    m = machinery(spec)
    captured = []
    fibre_densities = wavepacket._fibre_densities

    def recorded(m, pair_maps):
        captured[:] = zip(pair_maps, fibre_densities(m, pair_maps))
        return [d for _, d in captured]

    monkeypatch.setattr(wavepacket, "_fibre_densities", recorded)
    residual(spec, AnsatzOrder.WITH_SIGMA1_AND_2, 0.1, [0.1])
    for pairs, density in captured[-2:]:
        U = np.column_stack([_word_vector(m, u) for u, _ in pairs])
        V = np.column_stack([_word_vector(m, v) for _, v in pairs])
        for i, j in ((3, 4), (4, 2), (2, 5)):
            c = np.array([f[0, i, j] for f in pairs.values()])
            frobenius = 2.0 * math.pi / abs(spec.delta0) * np.sum(np.abs((U * c) @ V.T) ** 2)
            assert density[0, i, j] == pytest.approx(frobenius, rel=1e-13)


def test_padding_keeps_every_image_and_word_exact(monkeypatch):
    # no ladder step meets a nonzero top coefficient, so none drops a term,
    # and twice the padding changes no bit of residual or transport
    specs = (SPEC, WavePacketSpec(delta0=-0.7, beta0=0.5, n=2),
             WavePacketSpec(delta0=2.0, beta0=-1.0, n=3))
    ladder = wavepacket._ladder

    def checked(v, up, down):
        assert not np.any(v[-1])
        return ladder(v, up, down)

    def outputs():
        wavepacket.machinery.cache_clear()
        out = []
        for spec in specs:
            out += [(e.relative, e.absolute, e.psi_norm) for hb in (0.1, 0.0125) for e in
                    residual(spec, AnsatzOrder.WITH_SIGMA1_AND_2, 0.1, [hb])[0].values()]
            out += [(r.mass, r.centroid_x2, r.packet_width)
                    for r in transport_demo(spec, 0.5, [0.05, 0.0125])]
        return out

    monkeypatch.setattr(wavepacket, "_ladder", checked)
    base = outputs()
    monkeypatch.setattr(wavepacket, "_ladder", ladder)
    monkeypatch.setattr(wavepacket, "_PAD", 2 * wavepacket._PAD)
    assert outputs() == base
    wavepacket.machinery.cache_clear()


def test_basis_beyond_the_cap_is_refused():
    # the basis rule is montgomery_branch's; at beta0 = -600 it needs more
    # than 1024 functions per parity block
    with pytest.raises(ConfinementError, match="more than 1024"):
        machinery(WavePacketSpec(beta0=-600.0))


def test_a_non_integral_mode_index_is_refused_by_name():
    # n = 2.0 was a TypeError from a slice when the machinery was built
    with pytest.raises(ValueError, match="mode index n must be an integer, got n = 2.0"):
        WavePacketSpec(n=2.0)
    assert wavepacket._PacketMachinery(WavePacketSpec(n=np.int64(2))).mu == machinery(
        WavePacketSpec(n=2)).mu


def test_spec_has_no_grid():
    for knob in ("grid_L", "grid_N"):
        with pytest.raises(TypeError, match=knob):
            WavePacketSpec(**{knob: 1})
    for bad in ({"delta0": 0.0}, {"n": 0}, {"beta0": math.inf}, {"delta0": math.nan}):
        with pytest.raises(ValueError, match="needs n >= 1, a finite delta0 != 0"):
            WavePacketSpec(**bad)


# -- profile evolution ----------------------------------------------------------


def test_profile_partials_solve_the_profile_equation():
    # i d_t a + c d_2^2 a = 0 with d_t a a centred difference of step 1e-4:
    # at most 2.25e-9 over the grid (the O(step^2) error of the difference),
    # bounded with a margin of 4.4; a 1e-3 error in c leaves 4e-4
    prof, c = GaussianProfile(width2=1.2, width4=1.0), 0.7
    y2, y4, step = np.linspace(-8.0, 8.0, 321), np.zeros(1), 1e-4
    for t in (0.4, 1.5):
        dt = (prof.partials(t + step, c, y2, y4, 0)[0, 0]
              - prof.partials(t - step, c, y2, y4, 0)[0, 0]) / (2.0 * step)
        a22 = prof.partials(t, c, y2, y4, 2)[2, 0]
        assert np.max(np.abs(1j * dt + c * a22)) <= 1e-8
        assert np.max(np.abs(1j * dt + 1.001 * c * a22)) >= 1e-4


def test_profile_partials_broadcast_nodes_of_any_rank():
    # y2 and y4 of different ranks broadcast as arrays do: each entry is the
    # one-point call's to rounding (vectorized exp differs in the last ulp)
    prof, t, c = GaussianProfile(width2=1.2, width4=1.0), 0.4, 0.7
    y2, y4 = np.linspace(-2.0, 2.0, 5), np.array([[-0.5], [0.0], [0.8]])
    for a2, a4 in ((y2, 0.3), (0.3, y2), (y2, y4)):
        got = prof.partials(t, c, a2, a4, 2)
        b2, b4 = np.broadcast_arrays(a2, a4)
        assert got.shape == (3, 3, *b2.shape)
        for i in np.ndindex(b2.shape):
            one = prof.partials(t, c, b2[i], b4[i], 2)
            err = np.abs(got[(slice(None), slice(None), *i)] - one)
            assert np.max(err) <= 1e-14 * np.max(np.abs(one))


def test_profile_dispersed_width_law():
    w, c = 0.9, 0.6
    prof = GaussianProfile(width2=w)
    for t in (0.5, 2.0):
        assert prof.evolved_width2(t, c) == pytest.approx(
            math.sqrt(w**2 + (2 * c * t / w) ** 2)
        )


# -- correctors ------------------------------------------------------------------


def test_sigma1_vanishes_where_profile_is_flat():
    # centered Gaussian: d2 = d4 = 0 at the profile center
    m = machinery(SPEC)
    out = corrector_sigma1(SPEC, 0.0, GroupElement(0.7, 0.0, -0.3, 0.0))
    # y2 = y4 = 0 kills both derivative factors regardless of y1, y3
    assert np.linalg.norm(out) <= 1e-14


def test_sigma1_diagonal_vanishes_on_zero_p_locus():
    # at y3 + y1 y2 = 0 only the dPi term survives, and <dPi phi, phi> = 0
    m = machinery(SPEC)
    y = GroupElement(0.6, 0.5, -0.3, 0.8)  # y3 + y1 y2 = 0
    out = corrector_sigma1(SPEC, 0.0, y)
    assert abs(out @ m.basis["phi"]) <= 1e-12


def test_sigma1_norm_bound():
    m = machinery(SPEC)
    y = GroupElement(0.4, 0.3, 0.2, -0.5)
    pv = m.spec.profile.partials(0.0, m.dispersion, 0.3, -0.5, 1)  # [k2, k4]
    P = -0.5 * (0.2 + 0.4 * 0.3)
    bound = abs(P * pv[0, 1]) * np.linalg.norm(m.basis["xi_phi"]) + abs(
        pv[1, 0]
    ) * np.linalg.norm(m.basis["dphi"])
    assert np.linalg.norm(corrector_sigma1(SPEC, 0.0, y)) <= bound * (1 + 1e-12)


def test_sigma2_orthogonal_to_carrier():
    m = machinery(SPEC)
    out = corrector_sigma2(SPEC, 0.2, GroupElement(0.3, 0.1, 0.2, -0.3))
    assert abs(out @ m.basis["phi"]) <= 1e-8


def test_sigma2_zero_when_all_profile_curvature_vanishes():
    # with a flat (zero-coefficient) stand-in for the effective flow and a
    # point where every second derivative of a vanishes, sigma_2 collapses
    m = machinery(SPEC)
    w2, w4 = m.spec.profile.width2, m.spec.profile.width4
    # inflection points of each Gaussian factor: u^2 = w^2 kills d22/d44
    y = GroupElement(0.0, w2, 0.0, w4)  # y1 = P = 0 removes the d24/d4 slots
    out = corrector_sigma2(SPEC, 0.0, y)
    pv = m.spec.profile.partials(0.0, m.dispersion, w2, w4, 2)
    assert abs(pv[2, 0]) <= 1e-14 and abs(pv[0, 2]) <= 1e-14
    # sigma_2 has no term on phi: the identity term (c3 - 1) a22 - P^2 a44
    # of its right side lies along phi, which Pi_perp removes
    assert np.linalg.norm(out) <= 1e-12


def test_sigma2_diagonal_diagnostic():
    # the diagonal part cancels through <d/dxi (xi phi), phi> = 1/2 and
    # <W dphi, phi> = (mu'' - 2)/4, both exact on coefficients
    ys = np.array(
        [
            [0.5, 0.3, -0.2, 0.4],
            [1.0, -0.5, 0.3, -0.2],
            [0.0, 1.0, 0.5, 1.0],
            [0.8, 0.8, 0.6, -0.6],
        ]
    )
    assert sigma2_diagnostic(SPEC, 0.3, ys) <= 1e-6


# -- ansatz ----------------------------------------------------------------------


def test_ansatz_phase_continuity_along_center_path():
    m = machinery(SPEC)
    ts = np.linspace(0.0, 0.4, 41)
    vals = []
    for t in ts:
        c = np.array(m.center(t).coords(), dtype=float)
        v = ansatz_values(SPEC, AnsatzOrder.WITH_SIGMA1, float(t), c[None, :], HBAR)[0]
        vals.append(v * np.exp(1j * m.mu * t / HBAR))
    vals = np.array(vals)
    # after removing the dynamical phase the path is smooth: no branch jumps
    assert np.max(np.abs(np.diff(vals))) <= 0.1 * np.max(np.abs(vals))


def test_ansatz_modulus_at_moving_center():
    # |psi(t, x(t))| = hbar^{-7/4} |a(t,0)| |(pi(w)Phi1, Phi2)|: the profile
    # recenters with x(t) but the representation argument stays at x0, so
    # the coefficient dephases; check against the independent coefficient
    # route (rep_apply shifts Phi1, the batch kernel shifts Phi2)
    m, g = machinery(SPEC), on_grid(SPEC)
    hb = HBAR
    t = 0.3
    c = np.array(m.center(t).coords(), dtype=float)
    v = ansatz_values(SPEC, AnsatzOrder.LEADING, t, c[None, :], hb)[0]
    a = m.spec.profile.partials(t, m.dispersion, 0.0, 0.0, 0)[0, 0]
    w = GroupElement(0.0, m.mu_d1 * t / hb, 0.0, 0.0)
    phi = g.basis["phi"].astype(complex)
    coef = complex(g.grid.inner(rep_apply(g.param, w, phi, g.grid), phi))
    assert abs(v) == pytest.approx(hb ** (-1.75) * abs(a) * abs(coef), rel=1e-9)


def test_oversized_shift_raises_grid_margin_error():
    g = on_grid(SPEC)
    reach = live_window(np.hstack(list(g.images.values())), g.grid)[1]
    w1 = g.grid.L - 0.5 * reach  # past the margin, inside the box
    with pytest.raises(GridMarginError):
        matrix_coefficient(g.param, GroupElement(w1, 0, 0, 0),
                           g.basis["phi"], g.basis["phi"], g.grid)
    with pytest.raises(GridMarginError):
        _bare(np.array([[w1 * HBAR, 0, 0, 0]]))


def test_vectorized_group_ops_match_exact():
    # the group law on float-array coordinates acts elementwise in float64,
    # agrees with per-point calls to rounding, and those with exact Fractions
    from fractions import Fraction

    from engellab.algebra import inverse

    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    r = 1.7
    ga, gb = GroupElement(*a.T), GroupElement(*b.T)
    batched = {"multiply": multiply(ga, gb), "inverse": inverse(ga), "dilate": dilate(r, ga)}
    for name, out in batched.items():
        for c in out.coords():
            assert isinstance(c, np.ndarray) and c.dtype == np.float64, name
    for k in range(len(a)):
        pa, pb = GroupElement(*a[k]), GroupElement(*b[k])
        fa, fb = (GroupElement(*(Fraction(float(c)) for c in p)) for p in (pa, pb))
        for name, point, exact in (
            ("multiply", multiply(pa, pb), multiply(fa, fb)),
            ("inverse", inverse(pa), inverse(fa)),
            ("dilate", dilate(r, pa), dilate(Fraction(r), fa)),
        ):
            per_point = [float(c) for c in point.coords()]
            assert np.allclose([c[k] for c in batched[name].coords()], per_point,
                               rtol=1e-15, atol=0), name
            assert np.allclose(per_point, [float(c) for c in exact.coords()],
                               rtol=1e-14, atol=1e-15), name


# -- residual orders (cheap versions; the full ladder runs in acceptance) --------


def test_residual_order_hierarchy():
    # exact values 0.265 > 0.0833 > 0.0367
    hb = 0.05
    t = 0.1
    r, = residual(SPEC, AnsatzOrder.WITH_SIGMA1_AND_2, t, [hb])
    r0, r1, r2 = (r[order] for order in AnsatzOrder)
    assert r2.relative < r1.relative < r0.relative
    assert r2.relative <= 0.1


def test_one_pass_orders_match_separate_calls(monkeypatch):
    # the residual integrates over the fibres and reaches no coefficient
    # kernel (both kernels take their phase from fourier._quadratic_phase);
    # the leading and sigma1 estimates differ from a lone call's only by the
    # Gram matrix's summation order over fewer words
    calls = []
    phase = fourier._quadratic_phase

    def counted(*args, **kwargs):
        calls.append(1)
        return phase(*args, **kwargs)

    ladder = [0.1, 0.05, 0.025, 0.0125]
    top = AnsatzOrder.WITH_SIGMA1_AND_2
    monkeypatch.setattr(fourier, "_quadratic_phase", counted)
    reports = residual_scaling_experiment(SPEC, ladder, t=0.1)
    assert not calls
    _bare(GroupElement(0, 0, 0, 0))  # the pointwise reference does reach it
    assert calls
    monkeypatch.undo()
    assert list(reports) == list(AnsatzOrder)

    def fields(e):
        return e.relative, e.absolute, e.psi_norm

    for k, hb in enumerate(ladder):
        one_pass, = residual(SPEC, top, 0.1, [hb])
        for order, est in one_pass.items():
            assert reports[order].residuals[k] == est.relative
            if order is not top:
                lone = residual(SPEC, order, 0.1, [hb])[0][order]
                assert fields(est) == pytest.approx(fields(lone), rel=1e-14)


def test_residual_builds_each_orders_pairs_once(monkeypatch):
    # psi and r of each order are paired once, over that order's columns;
    # a lower order's pairs enter the higher cut by merging, not by pairing
    # the cumulative columns again
    seen = []
    fibre_pairs = wavepacket._fibre_pairs

    def recorded(m, t, hb, y2, y4, columns):
        seen.append({u[0] for u, _, _ in columns})
        return fibre_pairs(m, t, hb, y2, y4, columns)

    monkeypatch.setattr(wavepacket, "_fibre_pairs", recorded)
    residual(SPEC, AnsatzOrder.WITH_SIGMA1_AND_2, 0.1, [0.05])
    names = [{"phi"}, {"xi_phi", "dphi"}, {"u_Pa24", "u_a22", "u_PPa44", "u_y1a4"}]
    assert seen == [names[0], names[0], names[1], names[1], names[2], names[2]]


def test_residual_gauss_hermite_rule_is_exact(monkeypatch):
    # the |r|^2 and |psi|^2 integrands are polynomials of degree <= 8 per
    # axis times a Gaussian, so doubling the nodes changes nothing beyond rounding
    def fields():
        return [(e.relative, e.absolute, e.psi_norm)
                for t, hb in ((0.1, 0.1), (0.1, 0.0125), (0.5, 0.05))
                for e in residual(SPEC, AnsatzOrder.WITH_SIGMA1_AND_2, t, [hb])[0].values()]

    base = fields()
    monkeypatch.setattr(wavepacket, "_GH_NODES", 2 * wavepacket._GH_NODES)
    for a, b in zip(base, fields()):
        assert a == pytest.approx(b, rel=1e-13)


def test_leading_residual_halforder_scaling():
    # bare ansatz (its profile flows with mu''/2, as every packet's does):
    # residual ~ hbar^{1/2}, from the sqrt(hbar) X1 a, X2 a terms sigma_1
    # removes; exact slope 0.5086
    rels = []
    for hb in (0.1, 0.025):
        rels.append(residual(SPEC, AnsatzOrder.LEADING, 0.05, [hb])[0][AnsatzOrder.LEADING].relative)
    slope = math.log(rels[0] / rels[1]) / math.log(4.0)
    assert 0.3 <= slope <= 0.7


def test_residual_invariant_under_left_translation():
    # moving x0 left-translates the packet, and the Haar measure does not
    # see it, so the estimate is reproduced up to arithmetic roundoff
    base = residual(SPEC, AnsatzOrder.WITH_SIGMA1, 0.1, [0.05])[0][AnsatzOrder.WITH_SIGMA1]
    moved_spec = WavePacketSpec(x0=(0.3, -0.2, 0.15, 0.1), delta0=1.0, beta0=0.0, n=1)
    moved = residual(moved_spec, AnsatzOrder.WITH_SIGMA1, 0.1, [0.05])[0][AnsatzOrder.WITH_SIGMA1]
    assert moved.relative == pytest.approx(base.relative, rel=1e-6)


# -- pointwise and Monte-Carlo references for the residual -----------------------


def _draw_samples(spec, t, hb, count, rng):
    """Importance samples matched to the packet's concentration geometry,
    as group points and their weights 1 / (proposal density).

    z2 and z4 follow the profile at scales hbar^{1/2}, hbar^{3/2}; the
    coefficient directions z1, z3 live at scales hbar, hbar^2 but broaden
    linearly with w2 = z2/hbar (the chirp spreads the transverse mass), so
    their proposal widths are conditioned on the drawn z2.
    """
    m, g = machinery(spec), on_grid(spec)
    grid = g.grid
    phi = g.basis["phi"]
    sx = math.sqrt(max(float(grid.inner(grid.nodes**2 * phi, phi).real), 1e-12))
    reach = live_window(np.hstack(list(g.images.values())), grid)[1]
    d0 = abs(spec.delta0)
    s2 = m.spec.profile.evolved_width2(t, m.dispersion) * math.sqrt(hb)
    s4 = m.spec.profile.width4 * hb**1.5
    z2 = rng.standard_normal(count) * s2
    z4 = rng.standard_normal(count) * s4
    w2 = z2 / hb
    s1 = hb * np.maximum(2.0 * sx, 1.3 * d0 * sx**3 * np.abs(w2))
    s3 = hb**2 * np.maximum(2.0 / (d0 * sx), 1.3 * sx * np.abs(w2))
    # keep representation shifts inside the grid margin; the clipped slices
    # carry profile weight exp(-(y2/width)^2) ~ 0 by construction
    w1_cap = 0.9 * (grid.L - reach) * hb
    s1 = np.minimum(s1, w1_cap / 2.5)
    z1 = np.clip(rng.standard_normal(count) * s1, -w1_cap, w1_cap)
    z3 = rng.standard_normal(count) * s3
    z = np.stack([z1, z2, z3, z4], axis=-1)
    scales = np.stack([s1, np.full(count, s2), s3, np.full(count, s4)], axis=-1)
    q = np.prod(np.exp(-0.5 * (z / scales) ** 2) / (np.sqrt(2 * np.pi) * scales), axis=1)
    return multiply(m.center(t), GroupElement(z1, z2, z3, z4)), 1.0 / q


def _pointwise(spec, order, t, hb, points, grid=packet_reference.GRID):
    """Reference: r and psi at group points, accumulated from one
    coefficient-kernel call on the packet's vectors sampled on `grid`,

        r = hbar^{-7/4} e^{-i mu t/hbar} sum_j [(i hbar D_t A_j + hbar Delta A_j) C[v_j]
            + 2 sqrt(hbar) (X1 A_j C[D1 v_j] + i X2 A_j C[W v_j]) + A_j C[(mu - H) v_j]],

    without the common factor hbar^{-7/4} e^{-i mu t/hbar}, as {order: (r, psi)}
    for every order from LEADING through `order`."""
    m, g = machinery(spec), on_grid(spec, grid)
    w, y = packet_reference._arguments(m, t, points, hb)
    tables = wavepacket._ansatz_terms(order, hb)
    V = np.hstack([g.images[n] for table in tables for n in table])
    C = matrix_coefficients(g.param, w, V, g.basis["phi"], grid).reshape(len(w), -1, 4)
    sc = packet_reference._scalars(m, t, y, 4)
    ev, derive, X1, X2 = (packet_reference._evaluate, wavepacket._derive,
                          wavepacket._X1, wavepacket._X2)
    dt = ({}, {}, {(0, 0, 2, 0): 1j * m.dispersion, (0, 0, 1, 0): -m.mu_d1 / math.sqrt(hb)})
    psi = r = 0.0
    j = 0
    out = {}
    for cut, table in zip(AnsatzOrder, tables):
        for A in table.values():
            x1A, x2A = derive(A, X1), derive(A, X2)
            slow = (1j * hb * ev(derive(A, dt), *sc)
                    + hb * (ev(derive(x1A, X1), *sc) + ev(derive(x2A, X2), *sc)))
            a_j = ev(A, *sc)
            psi = psi + a_j * C[:, j, 0]
            r = (r + slow * C[:, j, 0] + a_j * C[:, j, 3]
                 + 2.0 * math.sqrt(hb) * (ev(x1A, *sc) * C[:, j, 1]
                                          + 1j * ev(x2A, *sc) * C[:, j, 2]))
            j += 1
        out[cut] = r, psi
    return out


def _mc_residual(spec, order, t, hb, points, weights):
    """The relative residual and its standard error for every order from
    LEADING through `order`, as volume-weighted Monte-Carlo means of the
    pointwise reference on importance samples."""
    out = {}
    for cut, (r, psi) in _pointwise(spec, order, t, hb, points).items():
        R, S = (np.abs(hb ** (-packet_reference.Q_QUARTER) * f) ** 2 * weights for f in (r, psi))
        rel = math.sqrt(np.mean(R) / np.mean(S))
        err = 0.5 * rel * sum(np.std(f) / (math.sqrt(len(f)) * np.mean(f)) for f in (R, S))
        out[cut] = rel, err
    return out


def _fd_relative_residual(spec, order, t, hb, points, weights, fd_eps=1e-3, dt_factor=1e-4):
    """Reference: i hbar d_t psi + hbar^2 (X1^2 + X2^2) psi from a 7-point
    stencil on ansatz_values (central difference in t with dt = dt_factor
    hbar, nested differences along x Exp(+-h Xi) with h = fd_eps hbar^{1/2}),
    on the given samples."""
    dt = dt_factor * hb
    h = fd_eps * math.sqrt(hb)

    def ev(tt, pts):
        return ansatz_values(spec, order, tt, pts, hbar=hb)

    psi0 = ev(t, points)
    dtpsi = (ev(t + dt, points) - ev(t - dt, points)) / (2.0 * dt)
    lap = 0.0
    for e in (np.array([h, 0.0, 0.0, 0.0]), np.array([0.0, h, 0.0, 0.0])):
        lap = lap + (ev(t, multiply(points, GroupElement(*e))) - 2.0 * psi0
                     + ev(t, multiply(points, GroupElement(*-e)))) / h**2
    r = 1j * hb * dtpsi + hb**2 * lap
    return math.sqrt(np.mean(np.abs(r) ** 2 * weights) / np.mean(np.abs(psi0) ** 2 * weights))


@pytest.mark.parametrize("hb", [0.1, 0.0125])
@pytest.mark.parametrize("order", list(AnsatzOrder))
def test_exact_residual_matches_finite_differences(order, hb):
    # same samples, so only the discretizations differ: exact generators
    # against the stencil on the coefficient kernel (measured <= 2.4e-3)
    points, weights = _draw_samples(SPEC, 0.1, hb, 2000, np.random.default_rng(3))
    exact = _mc_residual(SPEC, order, 0.1, hb, points, weights)[order][0]
    fd = _fd_relative_residual(SPEC, order, 0.1, hb, points, weights)
    assert exact == pytest.approx(fd, rel=1e-2)


# over seeds 0-11 the largest |exact - MC| was 3.82 standard errors (sigma_2
# at hbar = 0.1, seed 5, where one heavy weight dominates); ~30 % margin
MAX_Z = 5.0


@pytest.mark.parametrize("hb", [0.1, 0.0125])
def test_residual_exact_matches_monte_carlo(hb):
    # the pointwise-kernel reference on 20 000 importance samples, every order
    points, weights = _draw_samples(SPEC, 0.1, hb, 20000, np.random.default_rng(0))
    top = AnsatzOrder.WITH_SIGMA1_AND_2
    mc = _mc_residual(SPEC, top, 0.1, hb, points, weights)
    for order, est in residual(SPEC, top, 0.1, [hb])[0].items():
        rel, err = mc[order]
        assert abs(est.relative - rel) <= MAX_Z * err, order


# a coarse grid (h = 0.05) for the brute-force (w1, w3) quadratures, so
# that the kernel's w3 period 2 pi/(|delta| h) takes few nodes; L = 20
# clears the largest w1 shift (9.5) plus the reach of the (mu - H) images,
# whose rounding-level Hermite tails stay above the kernel's live threshold
# out to |xi| ~ 9.2
COARSE = SpectralGrid(20.0, 801)


@pytest.mark.parametrize("hb", [0.1, 0.0125])
def test_residual_fibre_density_matches_brute_force(monkeypatch, hb):
    # int int |r|^2 dw1 dw3 at three (y2, y4) nodes: residual's Gram-sum
    # density against a brute-force quadrature of the pointwise reference.
    # The w3 window is one period of the grid kernel, shifted to the
    # transverse mass at w3 ~ -w1 w2 / 2.  The pair map's generators are
    # exact, so the two agree up to the kernel's splines: measured 1.9e-8
    # at both hbar, bound at ~5x
    spec = WavePacketSpec(delta0=1.3, beta0=0.3, n=1)
    m = machinery(spec)
    t, top = 0.1, AnsatzOrder.WITH_SIGMA1_AND_2
    densities = []
    fibre_densities = wavepacket._fibre_densities

    def captured(m, pair_maps):
        densities[:] = fibre_densities(m, pair_maps)
        return densities

    monkeypatch.setattr(wavepacket, "_fibre_densities", captured)
    residual(spec, top, t, [hb])
    r_density = densities[-1][0]  # psi and r of each order in turn; hbar leads
    y2, y4, _ = wavepacket._fibre_rule(m, t)
    period, M, dw1 = 2.0 * math.pi / (abs(spec.delta0) * COARSE.h), 256, 0.1
    w1, k = np.meshgrid(np.arange(-9.5, 9.5, dw1) + 0.013,
                        (np.arange(M) - M // 2) * period / M, indexing="ij")
    for i, j in ((3, 4), (4, 2), (2, 5)):
        w2 = (math.sqrt(hb) * y2[i, 0] + m.mu_d1 * t) / hb
        w = GroupElement(w1.ravel(), np.full(w1.size, w2), (k - 0.5 * w1 * w2).ravel(),
                         np.full(w1.size, y4[0, j] / hb**1.5))
        r = _pointwise(spec, top, t, hb, dilate(hb, w), COARSE)[top][0]
        brute = dw1 * period / M * np.sum(np.abs(r) ** 2)
        assert brute == pytest.approx(r_density[i, j], rel=1e-7)


# -- transport --------------------------------------------------------------------


def test_transport_t0_centroid_is_center():
    rows = transport_demo(SPEC, 0.0, hbar_list=[0.05])
    r = rows[0]
    assert r.predicted_x2 == pytest.approx(0.0, abs=1e-15)
    assert abs(r.centroid_x2) <= 0.01 * r.packet_width


def test_transport_moving_centroid():
    rows = transport_demo(SPEC, 0.4, hbar_list=[0.025])
    r = rows[0]
    drift = abs(r.predicted_x2)
    assert drift > 0.1
    assert r.drift_error <= 0.05 * drift


def _spectral_derivative(v, grid):
    """d/dxi of a grid vector that vanishes at the box ends, by FFT."""
    k = 2.0 * math.pi * np.fft.fftfreq(grid.N, d=grid.h)
    return np.fft.ifft(1j * k * np.fft.fft(v)).real


@pytest.mark.parametrize("w2, w4", [(0.0, 0.0), (3.0, 0.7), (-7.5, 2.0)])
def test_fibre_gram_and_w3_identities(w2, w4):
    # brute-force (w1, w3) quadrature of the coefficient kernel against
    #   int int C[u;v] conj C[u';v'] = (2 pi/|delta|) (u,u') (v',v)
    #   (w3 + w1 w2) C[u;v] = -w2 C[u; xi v] + (i/delta) (C[u';v] + C[u;v'])
    # on the packet's vectors sampled on a coarse grid (h = 0.05).  The
    # kernel's sum over nodes makes C a trigonometric polynomial in w3 of
    # period 2 pi/(|delta| h), so the trapezoid rule on one period with
    # more nodes than the live span (208) is exact in w3; w1 runs off the
    # nodes, through the splines of v.
    spec = WavePacketSpec(delta0=1.3, beta0=0.3, n=1)
    g = on_grid(spec, COARSE)
    grid, d = g.grid, spec.delta0
    us = [g.basis[k] for k in ("phi", "xi_phi", "dphi")]
    vs = [g.basis[k] for k in ("phi", "xi_phi")]
    period, M, dw1 = 2.0 * math.pi / (abs(d) * grid.h), 256, 0.1
    w1, w3 = np.meshgrid(np.arange(-9.5, 9.5, dw1) + 0.013,
                         (np.arange(M) - M // 2) * period / M, indexing="ij")
    pts = np.stack([w1.ravel(), np.full(w1.size, w2), w3.ravel(), np.full(w1.size, w4)], -1)
    C = np.concatenate([matrix_coefficients(g.param, pts, np.column_stack(us), v, grid)
                        for v in vs], axis=1)  # column (v, u) pairs, v-major
    pairs = [(u, v) for v in vs for u in us]
    dA = dw1 * period / M

    def gram(a, b):  # (2 pi/|delta|) (u_a, u_b) (v_b, v_a) for pairs a, b
        return 2.0 * math.pi / abs(d) * grid.inner(a[0], b[0]) * grid.inner(b[1], a[1])

    xi = grid.nodes
    brute = dA * C.T @ C.conj()
    moment = dA * (C * (pts[:, 2] + pts[:, 0] * w2)[:, None]).T @ C.conj()
    exact = np.array([[gram(a, b) for b in pairs] for a in pairs])

    def w3_rhs(deriv):
        return np.array([[-w2 * gram((u, xi * v), b)
                          + 1j / d * (gram((deriv(u), v), b) + gram((u, deriv(v)), b))
                          for b in pairs] for u, v in pairs])

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    # measured 4.9e-8 (Gram) and 3.6e-8 to 9.6e-8 (w3, FFT derivatives) over
    # the three (w2, w4), the splines' interpolation error; bounds at ~4x
    assert rel(brute, exact) <= 2e-7
    assert rel(moment, w3_rhs(lambda v: _spectral_derivative(v, grid))) <= 4e-7


def _mc_transport(spec, t, hb, count, seed):
    """Importance-sampled mass, x2 centroid and x2 variance of |ansatz|^2
    (cut after sigma_1), each as (estimate, standard error).

    x = x0 z with z = (hbar w1, z2, hbar^2 w3, z4): z2 and z4 follow |a|^2
    at twice its variance, and (w1, w3) follow the coefficient's transverse
    mass, which sits at w3 ~ -w1 w2 / 2 and spreads with the chirp |w2|.
    """
    m, g = machinery(spec), on_grid(spec)
    rng = np.random.default_rng(seed)
    grid = g.grid
    sig = math.sqrt(grid.inner(grid.nodes**2 * g.basis["phi"], g.basis["phi"]).real)
    c = m.mu_d1 * t
    s2 = m.spec.profile.evolved_width2(t, m.dispersion) * math.sqrt(hb)
    s4 = m.spec.profile.width4 * hb**1.5
    z2 = c + s2 * rng.standard_normal(count)
    z4 = s4 * rng.standard_normal(count)
    w2 = z2 / hb
    s1, s3 = 2.0 * sig, 2.0 / (abs(spec.delta0) * sig) + sig * np.abs(w2)
    w1 = s1 * rng.standard_normal(count)
    w3 = -0.5 * w1 * w2 + s3 * rng.standard_normal(count)
    q = (np.exp(-0.5 * (((z2 - c) / s2) ** 2 + (z4 / s4) ** 2 + (w1 / s1) ** 2
                        + ((w3 + 0.5 * w1 * w2) / s3) ** 2))
         / ((2.0 * math.pi) ** 2 * s1 * s2 * s3 * s4 * hb**3))
    x = multiply(spec.x0_element(), GroupElement(hb * w1, z2, hb**2 * w3, z4))
    dens = np.abs(ansatz_values(spec, AnsatzOrder.WITH_SIGMA1, t, x, hb)) ** 2 / q
    x2, root_n = x.x2, math.sqrt(count)
    mass = float(np.mean(dens))
    cent = float(np.mean(dens * x2)) / mass
    var = float(np.mean(dens * (x2 - cent) ** 2)) / mass
    return ((mass, float(np.std(dens)) / root_n),
            (cent, float(np.std(dens * (x2 - cent))) / (root_n * mass)),
            (var, float(np.std(dens * ((x2 - cent) ** 2 - var))) / (root_n * mass)))


@pytest.mark.parametrize("t, hb", [(0.1, 0.05), (0.1, 0.0125), (0.5, 0.0125)])
def test_transport_exact_matches_monte_carlo(t, hb):
    # an independent importance sampler of |ansatz|^2 (ESS/N 0.30-0.50);
    # over seeds 0-11 every |exact - MC| stayed within 2.6 standard errors
    r = transport_demo(SPEC, t, [hb])[0]
    mass, cent, var = _mc_transport(SPEC, t, hb, 20000, seed=0)
    for (est, err), exact in ((mass, r.mass), (cent, r.centroid_x2),
                              (var, r.packet_width**2)):
        assert abs(est - exact) <= 3.0 * err


def test_transport_gauss_hermite_rule_is_exact(monkeypatch):
    # the (y2, y4) integrands are polynomials of degree <= 4 times a Gaussian,
    # so doubling the nodes changes nothing beyond rounding
    specs = (SPEC, WavePacketSpec(delta0=1.0, beta0=-0.3467583952, n=1),
             WavePacketSpec(x0=(0.3, -0.2, 0.15, 0.1), delta0=0.7, beta0=0.5, n=2))
    ladder = [0.05, 0.025, 0.0125]

    def rows():
        return [(r.mass, r.centroid_x2, r.packet_width)
                for s in specs for r in transport_demo(s, 0.5, ladder)]

    base = rows()
    monkeypatch.setattr(wavepacket, "_GH_NODES", 2 * wavepacket._GH_NODES)
    for a, b in zip(base, rows()):
        assert a == pytest.approx(b, rel=1e-13)


def test_leading_order_mass_is_closed_form():
    m = machinery(SPEC)
    for t in (0.0, 0.5):
        for hb in (0.1, 0.0125):
            [(mass, _, _)] = wavepacket._fibre_moments(m, AnsatzOrder.LEADING, t, [hb])
            assert mass == pytest.approx(packet_norm_exact(SPEC, hb) ** 2, rel=1e-13)


# -- the effective mass, read back from the residual --------------------------------


def _cone(n):
    return WavePacketSpec(delta0=1.0, beta0=critical_points(n, samples=81)[0].nu_c, n=n)


@pytest.mark.parametrize("n, delta0, beta0", [(1, 1.0, None), (2, 1.0, None), (3, 1.0, None),
                                               (4, 1.0, None), (1, 1.0, 0.0), (2, -0.7, 0.7)])
def test_mass_readback_recovers_half_the_curvature(n, delta0, beta0):
    # |Richardson value| 6.9e-8, 1.7e-6, 4.7e-7 and 3.4e-6 on the cones
    # (beta0 None) of modes 1..4, 1.8e-8 and 8.2e-7 off them; smicro-profile
    # gates it at 1e-4
    spec = _cone(n) if beta0 is None else WavePacketSpec(delta0=delta0, beta0=beta0, n=n)
    rb = wavepacket._mass_readback(spec)
    assert rb.coefficient == machinery(spec).dispersion
    assert abs(rb.richardson) <= 1e-4
    # rho = c*/coefficient - 1 is O(hbar)
    for c, hb in zip(rb.readback, rb.hbars):
        assert abs(c / rb.coefficient - 1.0) <= 3.0 * hb


def test_mass_readback_sees_a_scaled_dispersion(monkeypatch):
    # c* does not depend on the coefficient the machinery holds, so a
    # dispersion 1e-3 too large reads back as rho's limit -1e-3
    spec = _cone(1)
    m = machinery(spec)
    monkeypatch.setattr(m, "dispersion", m.dispersion * (1.0 + 1e-3))
    rb = wavepacket._mass_readback(spec)
    assert rb.richardson == pytest.approx(-1e-3, rel=0.01)
    assert abs(rb.richardson) > 1e-4


@pytest.mark.parametrize("order", [AnsatzOrder.WITH_SIGMA1, AnsatzOrder.WITH_SIGMA1_AND_2])
def test_residual_at_t0_is_a_parabola_in_the_dispersion(order):
    # at t = 0, r is affine in the d_t coefficient: a fourth coefficient
    # lies on the parabola through three (measured to 3.1e-14 relative)
    spec = _cone(1)
    m = machinery(spec)
    cs = m.dispersion + np.array([-0.1, 0.0, 0.1, 0.25])
    est = wavepacket._residual(m, order, 0.0, [1e-3] * 4, cs.reshape(-1, 1, 1))
    f = np.array([e[order].absolute ** 2 for e in est])
    assert np.polyval(np.polyfit(cs[:3], f[:3], 2), cs[3]) == pytest.approx(f[3], rel=1e-12)


def test_short_ladders_raise_value_error():
    # library callers get a ValueError before any work; the CLI checks its
    # ladders itself and reports them as usage errors
    with pytest.raises(ValueError, match="4 or more distinct hbar values"):
        residual_scaling_experiment(SPEC, [0.1, 0.05, 0.025])
    with pytest.raises(ValueError, match="1 or more distinct hbar values"):
        transport_demo(SPEC, 0.5, [])
    with pytest.raises(ValueError, match="1 or more distinct hbar values"):
        residual(SPEC, AnsatzOrder.LEADING, 0.1, [])
    # four copies of one hbar fitted a slope through one abscissa with only
    # a RankWarning
    with pytest.raises(ValueError, match=r"^need 4 or more distinct hbar values, got \[0\.05, "):
        residual_scaling_experiment(SPEC, [0.05] * 4)


def _residual_call(ladder):
    return residual(SPEC, AnsatzOrder.WITH_SIGMA1_AND_2, 0.1, ladder)


def _transport_call(ladder):
    return transport_demo(SPEC, 0.5, ladder)


@pytest.mark.parametrize("call", [_residual_call, _transport_call])
@pytest.mark.parametrize("bad", [0.0, -0.0125, math.nan, math.inf])
def test_bad_hbar_is_refused_by_name(call, bad):
    # hbar = 0 raised ZeroDivisionError in residual and gave a silent
    # mass = 0, width = 0 transport row; hbar < 0 was a math domain error;
    # nan and inf gave NaN estimates and rows
    with pytest.raises(ValueError, match=rf"^every hbar must be finite and > 0, got hbar = {bad}$"):
        call([0.05, bad, 0.025])


LADDER = [0.1, 0.05, 0.025, 0.0125, 0.00625]
LADDER_SPECS = [SPEC, WavePacketSpec(beta0=-4.0), WavePacketSpec(delta0=-0.7, n=2)]


@pytest.mark.parametrize("spec", LADDER_SPECS)
def test_ladder_estimates_are_one_hbar_estimates_bitwise(spec):
    # the ladder is a leading array axis, and each hbar's Gram form is taken
    # on its own slice, so no hbar's bits depend on the others in the call
    top = AnsatzOrder.WITH_SIGMA1_AND_2
    ladder_est = residual(spec, top, 0.1, LADDER)
    assert ladder_est == [residual(spec, top, 0.1, [hb])[0] for hb in LADDER]
    # so is the machinery's dispersion given once per ladder entry to the
    # core, as the effective-mass read-back gives its coefficients
    m = machinery(spec)
    c3 = np.full((len(LADDER), 1, 1), m.dispersion)
    assert wavepacket._residual(m, top, 0.1, LADDER, c3) == ladder_est
    assert [e[top].hbar for e in ladder_est] == LADDER
    rows = transport_demo(spec, 0.5, LADDER)
    assert rows == [transport_demo(spec, 0.5, [hb])[0] for hb in LADDER]


@pytest.mark.parametrize("spec", LADDER_SPECS)
def test_permuted_ladder_permutes_estimates(spec):
    order = [3, 0, 4, 2, 1]
    permuted = [LADDER[k] for k in order]
    top = AnsatzOrder.WITH_SIGMA1_AND_2
    base = residual(spec, top, 0.1, LADDER)
    assert residual(spec, top, 0.1, permuted) == [base[k] for k in order]
    rows = transport_demo(spec, 0.5, LADDER)
    assert transport_demo(spec, 0.5, permuted) == [rows[k] for k in order]


def test_negative_transport_moments_are_refused_by_name(monkeypatch):
    # _fibre_moments divided by a negative mass, and transport_demo hid a
    # negative variance behind max(var, 0)
    fibre_densities = wavepacket._fibre_densities

    def negated(m, pair_maps):
        return [-d for d in fibre_densities(m, pair_maps)]

    monkeypatch.setattr(wavepacket, "_fibre_densities", negated)
    with pytest.raises(GramSumError, match=r"^the sigma1 order's mass Gram sum is -\S+ < 0 "
                       r"at hbar = 0\.025: its correctors lost precision$"):
        transport_demo(SPEC, 0.5, [0.025, 0.05])

    # d (1 - k y2^2) with m2/m4 < k < m0/m2 (m_j = int y2^j d) keeps the mass
    # positive and makes the second moment, so the variance, negative
    def tilted(m, pair_maps):
        y2, _, quad = wavepacket._fibre_rule(m, 0.5)
        out = []
        for d in fibre_densities(m, pair_maps):
            m0, m2, m4 = (np.sum(quad * y2**j * d, axis=(1, 2))[:, None, None] for j in (0, 2, 4))
            out.append(d * (1.0 - 0.5 * (m2 / m4 + m0 / m2) * y2**2))
        return out

    monkeypatch.setattr(wavepacket, "_fibre_densities", tilted)
    with pytest.raises(GramSumError, match=r"^the sigma1 order's y2 variance Gram sum is -\S+ < 0 "
                       r"at hbar = 0\.025: its correctors lost precision$"):
        transport_demo(SPEC, 0.5, [0.025, 0.05])

"""Wave-packet assembly, correctors, residual orders, transport."""

import math

import numpy as np
import pytest

from engellab import wavepacket
from engellab.algebra import GroupElement, multiply
from engellab.fourier import GridMarginError, matrix_coefficient, matrix_coefficients, rep_apply
from engellab.spectral import Generic
from engellab.wavepacket import (
    AnsatzOrder,
    GaussianProfile,
    ProfileState,
    WavePacketSpec,
    ansatz_values,
    corrector_sigma1,
    corrector_sigma2,
    machinery,
    packet_norm_exact,
    profile_evolve,
    residual,
    residual_scaling_experiment,
    second_microlocal_profile_demo,
    sigma2_diagnostic,
    transport_demo,
)
from engellab.wavepacket import _draw_samples

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
        est = residual(SPEC, AnsatzOrder.LEADING, 0.0, hb, sample_count=20000,
                       seed=11)[AnsatzOrder.LEADING].psi_norm
        assert est == pytest.approx(packet_norm_exact(SPEC, hb), rel=0.02)
        vals.append(est / hb**0.75)
    assert max(vals) / min(vals) - 1.0 <= 0.02


def test_spec_refuses_a_profile_coefficient():
    # the machinery disperses the profile with mu''/2 of the packet's mode
    with pytest.raises(ValueError, match="coeff"):
        WavePacketSpec(profile=GaussianProfile(coeff=0.3))
    m = machinery(SPEC)
    assert m.profile.coeff == 0.5 * m.data.mu_d2 != SPEC.profile.coeff


def test_phase_and_center_group_law():
    m = machinery(SPEC)
    t, s = 0.3, 0.45
    lhs = m.center(t + s)
    rhs = multiply(m.center(t), GroupElement(0.0, m.data.mu_d1 * s, 0.0, 0.0))
    assert np.allclose(
        [float(c) for c in lhs.coords()], [float(c) for c in rhs.coords()]
    )


# -- profile evolution ----------------------------------------------------------


def _gaussian_state(width=1.0, box=30.0, n=1024):
    x2 = np.linspace(-box, box, n, endpoint=False)
    return ProfileState(x2, np.exp(-(x2**2) / (2 * width**2)).astype(complex))


def test_profile_evolve_zero_coeff_is_identity():
    st = _gaussian_state()
    out = profile_evolve(st, 1.7, 0.0)
    assert np.max(np.abs(out.values - st.values)) < 1e-12


def test_profile_evolve_norm_conservation():
    st = _gaussian_state(box=60.0, n=2048)
    n0 = st.normsq()
    for t in (0.5, 2.0, 4.0):
        assert profile_evolve(st, t, 0.8).normsq() == pytest.approx(n0, rel=1e-10)


def test_profile_evolve_matches_analytic_gaussian():
    st = _gaussian_state(width=1.2)
    coeff = 0.7
    ref = GaussianProfile(width2=1.2, width4=1.0, coeff=coeff)
    for t in (0.4, 1.5):
        out = profile_evolve(st, t, coeff)
        expected = ref.partials(t, st.x2, 0.0, 0)[0, 0]
        assert np.max(np.abs(out.values - expected)) <= 1e-6


def test_profile_evolve_wraparound_guard():
    st = _gaussian_state(width=1.0, box=6.0, n=256)
    with pytest.raises(ValueError, match="box"):
        profile_evolve(st, 40.0, 1.0)


def test_profile_dispersed_width_law():
    w, c = 0.9, 0.6
    prof = GaussianProfile(width2=w, coeff=c)
    for t in (0.5, 2.0):
        assert prof.evolved_width2(t) == pytest.approx(
            math.sqrt(w**2 + (2 * c * t / w) ** 2)
        )


# -- correctors ------------------------------------------------------------------


def test_sigma1_vanishes_where_profile_is_flat():
    # centered Gaussian: d2 = d4 = 0 at the profile center
    m = machinery(SPEC)
    out = corrector_sigma1(SPEC, 0.0, GroupElement(0.7, 0.0, -0.3, 0.0))
    # y2 = y4 = 0 kills both derivative factors regardless of y1, y3
    assert m.grid.norm(out) <= 1e-14


def test_sigma1_diagonal_vanishes_on_zero_p_locus():
    # at y3 + y1 y2 = 0 only the dPi term survives, and <dPi phi, phi> = 0
    m = machinery(SPEC)
    y = GroupElement(0.6, 0.5, -0.3, 0.8)  # y3 + y1 y2 = 0
    out = corrector_sigma1(SPEC, 0.0, y)
    assert abs(complex(m.grid.inner(out, m.basis["phi"]))) <= 1e-12


def test_sigma1_norm_bound():
    m = machinery(SPEC)
    y = GroupElement(0.4, 0.3, 0.2, -0.5)
    pv = m.profile.partials(0.0, 0.3, -0.5, 1)  # [k2, k4]
    P = -0.5 * (0.2 + 0.4 * 0.3)
    bound = abs(P * pv[0, 1]) * m.grid.norm(m.basis["xi_phi"]) + abs(
        pv[1, 0]
    ) * m.grid.norm(m.basis["dphi"])
    assert m.grid.norm(corrector_sigma1(SPEC, 0.0, y)) <= bound * (1 + 1e-12)


def test_sigma2_orthogonal_to_carrier():
    m = machinery(SPEC)
    out = corrector_sigma2(SPEC, 0.2, GroupElement(0.3, 0.1, 0.2, -0.3))
    assert abs(complex(m.grid.inner(out, m.basis["phi"]))) <= 1e-8


def test_sigma2_zero_when_all_profile_curvature_vanishes():
    # with a flat (zero-coefficient) stand-in for the effective flow and a
    # point where every second derivative of a vanishes, sigma_2 collapses
    m = machinery(SPEC)
    w2, w4 = m.profile.width2, m.profile.width4
    # inflection points of each Gaussian factor: u^2 = w^2 kills d22/d44
    y = GroupElement(0.0, w2, 0.0, w4)  # y1 = P = 0 removes the d24/d4 slots
    out = corrector_sigma2(SPEC, 0.0, y)
    pv = m.profile.partials(0.0, w2, w4, 2)
    assert abs(pv[2, 0]) <= 1e-14 and abs(pv[0, 2]) <= 1e-14
    # remaining contribution only from (c3 - 1) a22 - P^2 a44 = 0 here
    assert m.grid.norm(out) <= 1e-12


def test_sigma2_diagonal_diagnostic():
    # the diagonal-part cancellation is exact up to an O(h^2) quadrature
    # drift in <d1(xi phi), phi>, so the 1e-6 bar needs the finer grid
    spec = WavePacketSpec(delta0=1.0, beta0=0.0, n=1, grid_L=8.0, grid_N=8192)
    ys = np.array(
        [
            [0.5, 0.3, -0.2, 0.4],
            [1.0, -0.5, 0.3, -0.2],
            [0.0, 1.0, 0.5, 1.0],
            [0.8, 0.8, 0.6, -0.6],
        ]
    )
    assert sigma2_diagnostic(spec, 0.3, ys) <= 1e-6


# -- ansatz ----------------------------------------------------------------------


def test_ansatz_phase_continuity_along_center_path():
    m = machinery(SPEC)
    ts = np.linspace(0.0, 0.4, 41)
    vals = []
    for t in ts:
        c = np.array(m.center(t).coords(), dtype=float)
        v = ansatz_values(SPEC, AnsatzOrder.WITH_SIGMA1, float(t), c[None, :], HBAR)[0]
        vals.append(v * np.exp(1j * m.data.mu * t / HBAR))
    vals = np.array(vals)
    # after removing the dynamical phase the path is smooth: no branch jumps
    assert np.max(np.abs(np.diff(vals))) <= 0.1 * np.max(np.abs(vals))


def test_ansatz_modulus_at_moving_center():
    # |psi(t, x(t))| = hbar^{-7/4} |a(t,0)| |(pi(w)Phi1, Phi2)|: the profile
    # recenters with x(t) but the representation argument stays at x0, so
    # the coefficient dephases; check against the independent coefficient
    # route (rep_apply shifts Phi1, the batch kernel shifts Phi2)
    m = machinery(SPEC)
    hb = HBAR
    t = 0.3
    c = np.array(m.center(t).coords(), dtype=float)
    v = ansatz_values(SPEC, AnsatzOrder.LEADING, t, c[None, :], hb)[0]
    a = m.profile.partials(t, 0.0, 0.0, 0)[0, 0]
    w = GroupElement(0.0, m.data.mu_d1 * t / hb, 0.0, 0.0)
    pi_phi = rep_apply(Generic(SPEC.delta0, SPEC.beta0), w, m.basis["phi"].astype(complex), m.grid)
    coef = complex(m.grid.inner(pi_phi, m.data.phi.astype(complex)))
    assert abs(v) == pytest.approx(hb ** (-1.75) * abs(a) * abs(coef), rel=1e-9)


def test_oversized_shift_raises_grid_margin_error():
    m = machinery(SPEC)
    w1 = m.grid.L - 0.5 * m.xi_support  # past the margin, inside the box
    with pytest.raises(GridMarginError):
        matrix_coefficient(Generic(SPEC.delta0, SPEC.beta0), GroupElement(w1, 0, 0, 0),
                           m.basis["phi"], m.data.phi, m.grid)
    with pytest.raises(GridMarginError):
        _bare(np.array([[w1 * HBAR, 0, 0, 0]]))


def test_vectorized_group_ops_match_exact():
    # the group law on float-array coordinates acts elementwise in float64,
    # agrees with per-point calls to rounding, and those with exact Fractions
    from fractions import Fraction

    from engellab.algebra import dilate, inverse

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
    hb = 0.05
    t = 0.1
    r = residual(SPEC, AnsatzOrder.WITH_SIGMA1_AND_2, t, sample_count=3000, seed=5, hbar=hb)
    r0, r1, r2 = (r[order] for order in AnsatzOrder)
    assert r2.relative < r1.relative < r0.relative
    assert r2.relative <= 0.1


def test_one_pass_orders_match_separate_calls(monkeypatch):
    # one draw and one kernel call per hbar serve every order; the sigma1 and
    # leading columns differ from a lone call's narrower kernel call only by
    # the GEMM's summation order
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return matrix_coefficients(*args, **kwargs)

    ladder = [0.1, 0.05, 0.025, 0.0125]
    top = AnsatzOrder.WITH_SIGMA1_AND_2
    monkeypatch.setattr(wavepacket, "matrix_coefficients", counted)
    reports = residual_scaling_experiment(SPEC, ladder, order=top, t=0.1,
                                          sample_count=400, seed=21)
    assert len(calls) == len(ladder)
    monkeypatch.undo()
    assert list(reports) == list(AnsatzOrder)

    def fields(e):
        return e.relative, e.absolute, e.sampling_error

    for k, hb in enumerate(ladder):
        def lone(order):
            return residual(SPEC, order, 0.1, sample_count=400, seed=21 + 1000 * k,
                            hbar=hb)[order]

        one_pass = residual(SPEC, top, 0.1, sample_count=400, seed=21 + 1000 * k, hbar=hb)
        for order, est in one_pass.items():
            rep = reports[order]
            assert (rep.residuals[k], rep.sampling_errors[k]) == (est.relative, est.sampling_error)
            if order is not top:
                assert fields(est) == pytest.approx(fields(lone(order)), rel=1e-14)


def test_residual_sample_doubling_consistency():
    hb = 0.05
    r1 = residual(SPEC, AnsatzOrder.WITH_SIGMA1, 0.1, sample_count=2000, seed=6,
                  hbar=hb)[AnsatzOrder.WITH_SIGMA1]
    r2 = residual(SPEC, AnsatzOrder.WITH_SIGMA1, 0.1, sample_count=4000, seed=7,
                  hbar=hb)[AnsatzOrder.WITH_SIGMA1]
    tol = 4.0 * (r1.sampling_error + r2.sampling_error)
    assert abs(r1.relative - r2.relative) <= tol


def test_leading_residual_halforder_scaling():
    # bare ansatz (its profile flows with mu''/2, as every packet's does):
    # residual ~ hbar^{1/2}, from the sqrt(hbar) X1 a, X2 a terms sigma_1 removes
    rels = []
    for hb in (0.1, 0.025):
        rels.append(
            residual(SPEC, AnsatzOrder.LEADING, 0.05, sample_count=4000,
                     seed=8, hbar=hb)[AnsatzOrder.LEADING].relative
        )
    slope = math.log(rels[0] / rels[1]) / math.log(4.0)
    assert 0.3 <= slope <= 0.7


def test_residual_invariant_under_left_translation():
    # moving x0 left-translates samples and arguments together, so the
    # estimate is reproduced up to arithmetic roundoff
    base = residual(SPEC, AnsatzOrder.WITH_SIGMA1, 0.1, sample_count=2000,
                    seed=14, hbar=0.05)[AnsatzOrder.WITH_SIGMA1]
    moved_spec = WavePacketSpec(x0=(0.3, -0.2, 0.15, 0.1), delta0=1.0, beta0=0.0, n=1)
    moved = residual(moved_spec, AnsatzOrder.WITH_SIGMA1, 0.1,
                     sample_count=2000, seed=14, hbar=0.05)[AnsatzOrder.WITH_SIGMA1]
    assert moved.relative == pytest.approx(base.relative, rel=1e-6)


def _fd_relative_residual(spec, order, t, sample_count, seed, hb,
                          fd_eps=1e-3, dt_factor=1e-4):
    """Reference: i hbar d_t psi + hbar^2 (X1^2 + X2^2) psi from a 7-point
    stencil on ansatz_values (central difference in t with dt = dt_factor
    hbar, nested differences along x Exp(+-h Xi) with h = fd_eps hbar^{1/2}),
    on the samples residual() draws for the same seed."""
    s = _draw_samples(spec, t, hb, sample_count, np.random.default_rng(seed))
    dt = dt_factor * hb
    h = fd_eps * math.sqrt(hb)

    def ev(tt, pts):
        return ansatz_values(spec, order, tt, pts, hbar=hb)

    psi0 = ev(t, s.coords)
    dtpsi = (ev(t + dt, s.coords) - ev(t - dt, s.coords)) / (2.0 * dt)
    lap = 0.0
    for e in (np.array([h, 0.0, 0.0, 0.0]), np.array([0.0, h, 0.0, 0.0])):
        lap = lap + (ev(t, multiply(s.coords, GroupElement(*e))) - 2.0 * psi0
                     + ev(t, multiply(s.coords, GroupElement(*-e)))) / h**2
    r = 1j * hb * dtpsi + hb**2 * lap
    return math.sqrt(np.mean(np.abs(r) ** 2 * s.weights)
                     / np.mean(np.abs(psi0) ** 2 * s.weights))


@pytest.mark.parametrize("hb", [0.1, 0.0125])
@pytest.mark.parametrize("order", list(AnsatzOrder))
def test_exact_residual_matches_finite_differences(order, hb):
    # same samples, so only the discretizations differ: grid generators
    # against the stencil on the coefficient kernel (measured <= 2.4e-3)
    exact = residual(SPEC, order, 0.1, sample_count=2000, seed=3, hbar=hb)[order]
    fd = _fd_relative_residual(SPEC, order, 0.1, 2000, 3, hb)
    assert exact.relative == pytest.approx(fd, rel=1e-2)


# -- transport --------------------------------------------------------------------


def test_transport_t0_centroid_is_center():
    rows = transport_demo(SPEC, 0.0, hbar_list=[0.05], sample_count=8000, seed=9)
    r = rows[0]
    assert r.predicted_x2 == pytest.approx(0.0, abs=1e-15)
    assert abs(r.centroid_x2) <= max(4 * r.sampling_error, 0.01 * r.packet_width)


def test_transport_moving_centroid():
    rows = transport_demo(SPEC, 0.4, hbar_list=[0.025], sample_count=15000, seed=10)
    r = rows[0]
    drift = abs(r.predicted_x2)
    assert drift > 0.1
    assert r.drift_error <= 0.05 * drift


# -- 1-D dispersion demo ------------------------------------------------------------


def test_second_microlocal_demo_checks():
    rep = second_microlocal_profile_demo(1, -0.3467583952, 1.5761268)
    assert rep.coefficient == pytest.approx(0.5 * 1.5761268)
    assert rep.mass_drift <= 1e-10
    assert rep.gaussian_law_error <= 1e-6
    d0 = rep.densities[0]
    assert np.max(np.abs(d0 - np.exp(-(rep.x2**2)))) < 1e-12


def test_second_microlocal_demo_custom_profile():
    x2 = np.linspace(-40, 40, 2048, endpoint=False)
    bump = (np.exp(-(x2**2) / 2) * np.cos(1.3 * x2)).astype(complex)
    rep = second_microlocal_profile_demo(
        1, -0.3467583952, 1.5761268, profile=ProfileState(x2, bump),
        times=(0.0, 1.0),
    )
    assert rep.gaussian_law_error is None
    assert rep.mass_drift <= 1e-10
    # a modulated packet drifts: the density at t=1 is not the initial one
    assert np.max(np.abs(rep.densities[1] - rep.densities[0])) > 0.1

"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines;
the full module takes a few seconds on a 2-core host.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from grid_reference import (
    GaussianKernelSpec,
    InfinitesimalOp,
    Montgomery,
    difference_op_check,
    eigenvalues_extrapolated,
    harmonic,
)

from engellab import algebra, cli, dispersion, fourier, spectral, wavepacket

# frozen by the Richardson grid-refinement / dense-scan oracles
NU_CRIT_1 = -0.3467583952
MU_AT_CRIT_1 = 0.5698203191
CURV_CRIT_1 = 1.5761268


def _criterion(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_exact_algebra_suite():
    rep = cli.run_identities({"trials": 40}, seed=0)
    bad = [c.name for c in rep.checks if not c.passed]
    _criterion(1, "exact algebra suite", not bad, f"failing checks: {bad or 'none'}")


def test_criterion_2_harmonic_sanity():
    res = spectral.eigen_lowest(harmonic(1.0, spectral.SpectralGrid(10.0, 4096)), 4)
    target = np.array([1.0, 3.0, 5.0, 7.0])
    worst = float(np.max(np.abs(res.eigenvalues - target) / target))
    _criterion(2, "harmonic sanity", worst <= 1e-5,
               f"max relative deviation from 2k-1: {worst:.3e} (tol 1e-5)")


def test_criterion_3_rescaling_law():
    worst = 0.0
    for delta in (0.5, 1.0, 2.0, 8.0):
        scale = delta ** (2.0 / 3.0)
        cbrt = spectral.real_cbrt(delta)
        for beta in np.linspace(-2.0, 2.0, 11):
            nu = beta / cbrt
            lhs = eigenvalues_extrapolated(
                spectral.Generic(delta, float(beta)), 4, N=4096
            )
            # boxes scale with the natural length, so at equal N the two
            # grids would be scaled copies; N = 3072 keeps them independent
            rhs = scale * eigenvalues_extrapolated(
                Montgomery(float(nu)), 4, N=3072
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(lhs))))
    _criterion(3, "rescaling law", worst <= 1e-6,
               f"max relative deviation: {worst:.3e} (tol 1e-6)")


def test_criterion_4_feynman_hellmann():
    rng = np.random.default_rng(42)
    worst_fh = 0.0
    for _ in range(3):
        delta = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(-1.0, 1.0))
        n = int(rng.integers(1, 4))
        grid = spectral.solve_lowest(spectral.Generic(delta, beta), n).grid
        fh = spectral.spectral_data(delta, beta, n, grid=grid).mu_d1
        s = 1e-4
        mp = spectral.solve_lowest(spectral.Generic(delta, beta + s), n,
                                   grid=grid).eigenvalues[n - 1]
        mm = spectral.solve_lowest(spectral.Generic(delta, beta - s), n,
                                   grid=grid).eigenvalues[n - 1]
        worst_fh = max(worst_fh, abs(fh - (mp - mm) / (2 * s)))

    delta, beta, n = 1.0, 0.3, 1
    data = spectral.spectral_data(delta, beta, n, N=8192)
    g = data.grid
    s = 2e-3
    mu_of = lambda b: spectral.solve_lowest(
        spectral.Generic(delta, b), n, grid=g
    ).eigenvalues[n - 1]
    mu_dd = (mu_of(beta + s) - 2 * data.mu + mu_of(beta - s)) / s**2
    lhs_x2 = complex(g.inner(1j * data.w * data.dphi, data.phi))
    dev_x2 = abs(lhs_x2 - 0.5j * (0.5 * mu_dd - 1.0))

    d1 = InfinitesimalOp(g, None)
    lhs_x1 = complex(g.inner(d1.apply(data.dphi), data.phi))
    m3 = complex(g.inner(1j * delta * g.nodes * data.phi, data.phi))
    dev_x1 = abs(lhs_x1 - data.mu_d1 / (2j * delta) * m3)

    ok = worst_fh <= 1e-6 and dev_x2 <= 1e-4 and dev_x1 <= 1e-4
    _criterion(4, "Feynman-Hellmann", ok,
               f"FH-vs-fd {worst_fh:.2e} (1e-6), X2-lemma {dev_x2:.2e} (1e-4), "
               f"X1-lemma {dev_x1:.2e} (1e-4)")


def test_criterion_5_hl_reproduction():
    reports = dispersion.critical_points(1, scan=(-4.0, 4.0), samples=161)
    unique = len(reports) == 1
    r = reports[0]
    # refinement: the finite-difference root at N = 16384, bisected on the
    # box of the bracket's left end; it shares no discretization with r
    a, b = r.bracket
    grid = spectral.box_grid(Montgomery(a), 2, 16384)
    fa = spectral.spectral_data(1.0, a, 1, grid=grid).mu_d1
    while b - a > 1e-9:
        m = 0.5 * (a + b)
        fm = spectral.spectral_data(1.0, m, 1, grid=grid).mu_d1
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    fine_nu_c = 0.5 * (a + b)
    stable = abs(fine_nu_c - r.nu_c) <= 1e-4
    frozen_ok = (
        abs(r.nu_c - NU_CRIT_1) <= 1e-5
        and abs(r.mu_at_c - MU_AT_CRIT_1) <= 1e-5
        and abs(r.curvature - CURV_CRIT_1) <= 1e-5
    )
    ok = unique and r.curvature > 0 and stable and frozen_ok
    _criterion(5, "HL reproduction", ok,
               f"count={len(reports)}, nu_c={r.nu_c:.8f} (frozen {NU_CRIT_1}), "
               f"mu={r.mu_at_c:.8f}, curv={r.curvature:.6f}, "
               f"refinement shift {abs(fine_nu_c - r.nu_c):.2e}")


def test_criterion_6_cone_curvature_consistency():
    cc = dispersion.curvature_consistency(1, NU_CRIT_1, [0.5, 1.0, 2.0, 8.0], N=8192)
    ok = cc.max_deviation <= 1e-3 and cc.max_on_cone_d1 <= 1e-5
    _criterion(6, "cone curvature consistency", ok,
               f"max |d2mu - curv| = {cc.max_deviation:.2e} (1e-3), "
               f"max |dmu| on cone = {cc.max_on_cone_d1:.2e} (1e-5)")


@pytest.fixture(scope="module")
def scaling_spec():
    return wavepacket.WavePacketSpec(delta0=1.0, beta0=0.0, n=1)


def test_criterion_7_residual_scaling(scaling_spec):
    ladder = [0.1, 0.05, 0.025, 0.0125]
    reports = wavepacket.residual_scaling_experiment(scaling_spec, ladder, t=0.1)
    full = reports[wavepacket.AnsatzOrder.WITH_SIGMA1_AND_2]
    first = reports[wavepacket.AnsatzOrder.WITH_SIGMA1]
    ok = 1.35 <= full.slope <= 1.65 and 0.85 <= first.slope <= 1.15
    _criterion(7, "residual scaling", ok,
               f"full-corrector slope {full.slope:.3f} in [1.35,1.65], "
               f"first-corrector slope {first.slope:.3f} in [0.85,1.15]")


def test_criterion_8_transport_law(scaling_spec):
    rows = wavepacket.transport_demo(scaling_spec, 0.5, hbar_list=[0.0125])
    r = rows[0]
    drift = abs(r.predicted_x2)
    generic_ok = r.drift_error <= 0.03 * drift

    crit_spec = wavepacket.WavePacketSpec(delta0=1.0, beta0=NU_CRIT_1, n=1)
    rows_c = wavepacket.transport_demo(crit_spec, 0.5, hbar_list=[0.0125])
    rc = rows_c[0]
    critical_ok = rc.drift_error <= 0.02 * rc.packet_width
    _criterion(8, "transport law", generic_ok and critical_ok,
               f"generic drift error {100 * r.drift_error / drift:.2f}% of "
               f"{drift:.4f} (3%), critical offset "
               f"{100 * rc.drift_error / rc.packet_width:.2f}% of width (2%)")


def test_criterion_9_plancherel_invariance():
    widths = [(1.0, 1.0, 1.0, 1.0), (0.7, 1.3, 0.8, 0.6), (1.2, 0.9, 1.1, 1.4)]
    cal = fourier.plancherel_calibrate(widths)
    ok = cal.relative_spread <= 0.01
    _criterion(9, "Plancherel invariance", ok,
               f"spread {100 * cal.relative_spread:.3f}% (1%), c = {cal.mean:.6e}")


def test_criterion_10_difference_operators():
    spec = GaussianKernelSpec((0.0, 0.0, 0.0, 0.0), (0.8, 1.0, 0.9, 0.7))
    _, r1 = difference_op_check(spec, 1, 1.0, 0.3)
    _, r2 = difference_op_check(spec, 2, 1.0, 0.3)
    ok = r1 <= 1e-5 and r2 <= 1e-4
    _criterion(10, "difference operators", ok,
               f"Delta_1 deviation {r1:.2e} (1e-5), "
               f"Delta_2 deviation {r2:.2e} (1e-4)")


def test_criterion_11_strichartz_arithmetic():
    allowed = [(math.inf, 2), (2, Fraction(14, 5))]
    ok = all(dispersion.strichartz_admissible(q, p) == "allowed" for q, p in allowed)
    # on the admissibility line but excluded
    on_line = [(4, Fraction(7, 3)), (3, Fraction(42, 17)), (14, Fraction(98, 47))]
    ok &= all(
        dispersion.strichartz_admissible(q, p) == "admissible-but-obstructed"
        for q, p in on_line
    )
    off_line = [(3, 3), (math.inf, 3), (2, 2)]
    ok &= all(
        dispersion.strichartz_admissible(q, p) == "not-admissible"
        for q, p in off_line
    )
    _criterion(11, "Strichartz arithmetic", bool(ok),
               "allowed exactly for (inf,2) and (2,14/5); line 2/q+7/p=7/2 enforced")


def test_criterion_12_second_microlocal_profile():
    # the packet on the n = 1 cone disperses with the effective mass mu''/2:
    # the Schrodinger residual forces that coefficient (the read-back's
    # Richardson value, measured 6.9e-8), mu'' is the frozen curvature, and
    # the curvature holds along the cone
    cc = dispersion.curvature_consistency(1, NU_CRIT_1, [0.5, 1.0, 2.0], N=4096)
    rb = wavepacket._mass_readback(wavepacket.WavePacketSpec(delta0=1.0, beta0=NU_CRIT_1, n=1))
    ok = (
        abs(rb.richardson) <= 1e-4
        and abs(2.0 * rb.coefficient - CURV_CRIT_1) <= 1e-6
        and cc.max_deviation <= 1e-3
    )
    _criterion(12, "second-microlocal effective mass", ok,
               f"mu''/2 = {rb.coefficient:.7f} read back from the residual to "
               f"{rb.richardson:.2e} (1e-4), on-cone curvature deviation "
               f"{cc.max_deviation:.2e} (1e-3)")

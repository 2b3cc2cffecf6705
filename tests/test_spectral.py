"""Spectral solver, Feynman-Hellmann machinery, reduced resolvent."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from projector import projector_derivative
from scipy.linalg import eigh_tridiagonal

from engellab import spectral
from engellab.spectral import (
    ConfinementError,
    Generic,
    Montgomery,
    Schrodinger,
    SpectralGrid,
    box_grid,
    build_hamiltonian,
    eigen_lowest,
    eigen_mode,
    eigenvalues_extrapolated,
    potential,
    real_cbrt,
    reduced_resolvent_solve,
    solve_lowest,
    spectral_data,
)

# frozen by the Richardson grid-refinement oracle (N = 16384, box ~6.5)
MU1_MONTGOMERY_0 = 0.667986262381
NU_CRIT_1 = -0.3467583952


def test_potential_entries():
    g = SpectralGrid(6.0, 101)
    H = build_hamiltonian(Generic(2.0, 0.7), g)
    V = H.potential_values()
    k0 = np.argmin(np.abs(g.nodes))
    assert V[k0] == pytest.approx(0.7**2, abs=1e-12)
    Hm = build_hamiltonian(Montgomery(0.0), g)
    assert Hm.potential_values()[5] == pytest.approx(g.nodes[5] ** 4 / 4)
    Hs = build_hamiltonian(Schrodinger(1.0), g)
    assert np.allclose(Hs.potential_values(), g.nodes**2)


def test_generic_requires_nonzero_delta():
    with pytest.raises(ValueError):
        Generic(0.0, 1.0)
    with pytest.raises(ValueError):
        Schrodinger(0.0)


def test_harmonic_sanity_relative():
    res = solve_lowest(Schrodinger(1.0), 4, grid=SpectralGrid(10.0, 4096))
    target = np.array([1.0, 3.0, 5.0, 7.0])
    rel = np.abs(res.eigenvalues - target) / target
    assert np.max(rel) <= 1e-5


def test_orthonormality_and_residual():
    res = solve_lowest(Montgomery(-0.5), 5)
    g = res.grid
    V = res.eigenvectors
    gram = g.h * V.T @ V
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10
    H = build_hamiltonian(Montgomery(-0.5), g)
    for j in range(5):
        r = H.apply(V[:, j]) - res.eigenvalues[j] * V[:, j]
        assert g.norm(r) <= 1e-8 * max(1.0, abs(res.eigenvalues[j]))


def test_sign_convention():
    # positive at the first maximum of |phi|, which is left of the centre
    res = solve_lowest(Montgomery(0.3), 3)
    for j in range(3):
        peak = int(np.argmax(np.abs(res.eigenvectors[:, j])))
        assert res.eigenvectors[peak, j] > 0
        assert peak < res.grid.N // 2


@pytest.mark.filterwarnings("ignore:near-degenerate")
def test_parity_split_matches_full_solve():
    # the even and odd blocks against one full-N solve, on even and odd N
    # (refined grids are odd) and through the tunnelling pairs of nu = -4
    # and Generic(1, -40); the measured worst case is 0.89 eps ||H||, the
    # bound leaves a margin of ~4.5x
    eps = np.finfo(float).eps
    for N in (2048, 1024, 8192, 4097, 8191):
        for p in [Montgomery(nu) for nu in (-4.0, -3.0, NU_CRIT_1, 0.0, 2.0, 4.0)] + [
                Generic(1.0, -40.0)]:
            H = build_hamiltonian(p, box_grid(p, 5, N))
            full = eigh_tridiagonal(H.diagonal, np.full(N - 1, H.offdiag), select="i",
                                    select_range=(0, 4), eigvals_only=True)
            opnorm = np.max(np.abs(H.diagonal)) + 2.0 * abs(H.offdiag)
            for k in range(1, 6):
                res = eigen_lowest(H, k)
                assert np.max(np.abs(res.eigenvalues - full[:k])) <= 4.0 * eps * opnorm
                for j in range(k):
                    # mode j + 1 is exactly even (j even) or odd, bitwise
                    phi = res.eigenvectors[:, j]
                    assert np.array_equal(phi[::-1], (-1.0) ** j * phi), (N, p, k, j)


def test_asymmetric_diagonal_refused():
    H = build_hamiltonian(Montgomery(0.0), SpectralGrid(7.0, 1024))
    d = H.diagonal.copy()
    d[0] = np.nextafter(d[0], np.inf)
    with pytest.raises(ValueError, match="mirror-symmetric"):
        eigen_lowest(replace(H, diagonal=d), 1)


def test_mode_certificate_refuses_a_swapped_vector(monkeypatch):
    # a vector of another mode has its Rayleigh quotient outside the
    # bisection interval of the index it was returned for
    def swapped(*args, **kwargs):
        w, v = eigh_tridiagonal(*args, **kwargs)
        return w, v[:, ::-1]
    monkeypatch.setattr(spectral, "eigh_tridiagonal", swapped)
    with pytest.raises(RuntimeError, match="bisection interval"):
        solve_lowest(Montgomery(0.0), 4, N=2048)


def test_confinement_error_advises_larger_box():
    with pytest.raises(ConfinementError, match="enlarge"):
        solve_lowest(Schrodinger(1.0), 4, grid=SpectralGrid(2.0, 256))


@settings(max_examples=30, deadline=None)
@given(st.floats(-6.0, 3.0), st.sampled_from([-1.0, 1.0]), st.floats(-4.0, 4.0),
       st.integers(1, 4))
def test_box_rule_natural_length_and_wall_decay(log_delta, sign, nu, k):
    delta = sign * 10.0**log_delta
    p = Generic(delta, nu * real_cbrt(delta))
    grid = box_grid(p, k, 2048)
    montgomery_L = box_grid(Montgomery(nu), k, 2048).L
    assert grid.L * abs(delta) ** (1.0 / 3.0) == pytest.approx(montgomery_L, rel=1e-12)
    # solve_lowest raises when its residual or confinement check fails
    res = solve_lowest(p, k, N=2048)
    assert res.grid == grid
    # Agmon integral of the computed level from its outer turning point,
    # where |xi^2 + 2 beta/delta| = 2 sqrt(mu)/|delta|, to the unpadded wall
    mu = res.eigenvalues[k - 1]
    xi0 = np.sqrt(2.0 * np.sqrt(mu) / abs(delta) - 2.0 * p.beta / delta)
    xi = np.linspace(xi0, grid.L / 1.1, 20001)
    assert np.trapezoid(np.sqrt(np.maximum(potential(p)(xi) - mu, 0.0)), xi) >= 18.0


def test_schrodinger_box_natural_length():
    unit = box_grid(Schrodinger(1.0), 4).L
    for lam in (1e-4, 0.3, -5.0, 40.0, -1e3):
        assert box_grid(Schrodinger(lam), 4).L * abs(lam) ** 0.5 == pytest.approx(
            unit, rel=1e-12)
        mus = solve_lowest(Schrodinger(lam), 4).eigenvalues / abs(lam)
        assert np.max(np.abs(mus - [1.0, 3.0, 5.0, 7.0])) <= 1e-4


def test_tiny_scales_certified():
    # the wall margin is in the natural energy E, so boxes that follow the
    # natural length confine at any scale; measured 7.7e-13 (rescaling law),
    # 1.1e-6 and 5.2e-6 (harmonic ladder, the O(h^2) stencil bias), and
    # the bounds leave a margin of ~10x
    lhs = eigenvalues_extrapolated(Generic(1e-6, 0.0), 1)[0]
    rhs = 1e-4 * eigenvalues_extrapolated(Montgomery(0.0), 1)[0]
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)
    assert abs(solve_lowest(Schrodinger(1e-4), 1).eigenvalues[0] / 1e-4 - 1.0) <= 1e-5
    ladder = np.array([1.0, 3.0, 5.0, 7.0])
    mus = solve_lowest(Schrodinger(0.01), 4).eigenvalues / 0.01
    assert np.max(np.abs(mus - ladder) / ladder) <= 5e-5


@pytest.mark.filterwarnings("ignore:near-degenerate")
def test_eigenvalue_independent_of_mode_count():
    # mu is the Rayleigh quotient of its vector, so it does not carry the
    # k-dependent bisection error (~1e-11 at eps ||H|| on these grids);
    # measured worst case 9.6e-16
    for N in (2048, 8192):
        for nu in (-4.0, -3.0, NU_CRIT_1, 0.0, 2.0, 4.0):
            p = Montgomery(nu)
            H = build_hamiltonian(p, box_grid(p, 7, N))
            for n in range(1, 5):
                mu = eigen_lowest(H, n).eigenvalues[n - 1]
                more = eigen_lowest(H, n + 3).eigenvalues[n - 1]
                assert abs(mu - more) <= 1e-13 * max(1.0, abs(mu)), (N, nu, n)


def test_montgomery_ground_frozen_value():
    mu = eigenvalues_extrapolated(Montgomery(0.0), 1)[0]
    assert mu == pytest.approx(MU1_MONTGOMERY_0, abs=1e-6)


def test_rescaling_identity_sample():
    # mu_n(d, b) = d^{2/3} mutilde_n(b d^{-1/3}); full grid in acceptance
    for delta, beta, n in ((2.0, -1.0, 1), (0.5, 0.8, 2), (8.0, 2.0, 3)):
        lhs = eigenvalues_extrapolated(Generic(delta, beta), n)[n - 1]
        nu = beta / real_cbrt(delta)
        rhs = delta ** (2.0 / 3.0) * eigenvalues_extrapolated(Montgomery(nu), n)[n - 1]
        assert abs(lhs - rhs) / abs(lhs) <= 1e-6


def test_rescaling_negative_delta_real_cbrt():
    delta, beta = -2.0, 0.6
    lhs = eigenvalues_extrapolated(Generic(delta, beta), 1)[0]
    nu = beta / real_cbrt(delta)
    rhs = abs(delta) ** (2.0 / 3.0) * eigenvalues_extrapolated(Montgomery(nu), 1)[0]
    assert abs(lhs - rhs) / abs(lhs) <= 1e-6


def test_grid_convergence_under_refinement():
    grid = SpectralGrid(7.0, 4096)
    mu_c = eigen_lowest(build_hamiltonian(Montgomery(0.0), grid), 1).eigenvalues[0]
    mu_f = eigen_lowest(build_hamiltonian(Montgomery(0.0), grid.refined()), 1).eigenvalues[0]
    assert abs(mu_f - mu_c) <= 1e-6


# -- Feynman-Hellmann --------------------------------------------------------


def test_fh_first_derivative_vs_central_difference():
    rng = np.random.default_rng(4)
    for _ in range(3):
        delta = float(rng.uniform(0.5, 2.5))
        beta = float(rng.uniform(-1.5, 1.5))
        n = int(rng.integers(1, 4))
        grid = solve_lowest(Generic(delta, beta), n).grid
        fh = spectral_data(delta, beta, n, grid=grid).mu_d1
        s = 1e-4
        mp = solve_lowest(Generic(delta, beta + s), n, grid=grid).eigenvalues[n - 1]
        mm = solve_lowest(Generic(delta, beta - s), n, grid=grid).eigenvalues[n - 1]
        assert abs(fh - (mp - mm) / (2 * s)) <= 1e-6


def test_fh_derivative_vanishes_on_cone():
    for delta in (0.5, 2.0):
        beta = NU_CRIT_1 * real_cbrt(delta)
        assert abs(spectral_data(delta, beta, 1, N=8192).mu_d1) <= 1e-5


def test_fh_derivative_positive_above_critical():
    assert spectral_data(1.0, NU_CRIT_1 + 0.5, 1).mu_d1 > 0
    assert spectral_data(1.0, NU_CRIT_1 - 0.5, 1).mu_d1 < 0


def test_fh_second_derivative_vs_central_difference():
    # fd step balances truncation against eigenvalue roundoff * 4/s^2
    delta, beta, n = 1.3, 0.4, 1
    data = spectral_data(delta, beta, n, N=4096)
    s = 2e-3
    grid = data.grid
    mu = lambda b: solve_lowest(Generic(delta, b), n, grid=grid).eigenvalues[n - 1]
    fd = (mu(beta + s) - 2 * data.mu + mu(beta - s)) / s**2
    assert abs(data.mu_d2 - fd) <= 1e-4


# -- projector derivative -----------------------------------------------------


def test_projector_idempotent_derivative():
    pair = projector_derivative(1.0, 0.2, 1, N=4096)
    d = pair.data
    g = d.grid
    # Pi^2 = Pi on a random vector
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.N)
    assert g.norm(pair.project(pair.project(u)) - pair.project(u)) < 1e-10
    # Pi dPi Pi = 0
    v = pair.project(pair.apply_derivative(pair.project(u)))
    assert g.norm(v) <= 1e-8 * g.norm(u)


def test_diagonal_part_identity_x2():
    # <pi(X2) dPi phi, phi> = (i/2)(mu''/2 - 1), mu'' by central difference
    delta, beta, n = 1.0, 0.3, 1
    data = spectral_data(delta, beta, n, N=8192)
    g = data.grid
    w = data.w
    lhs = complex(g.inner(1j * w * data.dphi, data.phi))
    s = 2e-3
    mu = lambda b: solve_lowest(Generic(delta, b), n, grid=g).eigenvalues[n - 1]
    mu_dd = (mu(beta + s) - 2 * data.mu + mu(beta - s)) / s**2
    rhs = 0.5j * (0.5 * mu_dd - 1.0)
    assert abs(lhs - rhs) <= 1e-4


def test_diagonal_part_identity_x1():
    # <pi(X1) dPi phi, phi> = (1/(2 i delta)) mu' <pi(X3) phi, phi>
    from engellab.fourier import InfinitesimalOp

    delta, beta, n = 1.0, 0.3, 1
    data = spectral_data(delta, beta, n, N=8192)
    g = data.grid
    d1 = InfinitesimalOp(g, None)
    lhs = complex(g.inner(d1.apply(data.dphi), data.phi))
    m3 = complex(g.inner(1j * delta * g.nodes * data.phi, data.phi))
    rhs = data.mu_d1 / (2j * delta) * m3
    assert abs(lhs - rhs) <= 1e-4


# -- reduced resolvent ---------------------------------------------------------


def test_reduced_resolvent_zero_rhs():
    data = spectral_data(1.0, 0.1, 1, N=2048)
    u = reduced_resolvent_solve(data, np.zeros(data.grid.N))
    assert data.grid.norm(u) == 0.0


def test_reduced_resolvent_eigenvector_rhs():
    data = spectral_data(1.0, 0.1, 1, N=2048)
    mu_m, phi_m = solve_lowest(data.param, 3, grid=data.grid).pair(3)
    u = reduced_resolvent_solve(data, phi_m)
    expected = phi_m / (data.mu - mu_m)
    assert data.grid.norm(u - expected) <= 1e-8 * data.grid.norm(expected)


def test_reduced_resolvent_random_rhs_residual():
    data = spectral_data(1.0, 0.1, 1, N=2048)
    g = data.grid
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(g.N) * np.exp(-(g.nodes**2))
    u = reduced_resolvent_solve(data, rhs)
    H = build_hamiltonian(data.param, g)
    rhs_perp = rhs - data.phi * complex(g.inner(rhs, data.phi)).real
    resid = data.mu * u - H.apply(u) - rhs_perp
    assert g.norm(resid) <= 1e-8 * g.norm(rhs)
    assert abs(complex(g.inner(u, data.phi))) <= 1e-10


def test_reduced_resolvent_refuses_wrong_level():
    # phi_1 paired with mu_2: mu - H is singular off the deflated direction
    data = spectral_data(1.0, 0.1, 1, N=2048)
    mu_2 = float(solve_lowest(data.param, 2, grid=data.grid).eigenvalues[1])
    with pytest.raises(RuntimeError, match="residual"):
        reduced_resolvent_solve(replace(data, mu=mu_2), data.grid.nodes * data.phi)


@pytest.mark.filterwarnings("ignore:near-degenerate")
def test_single_mode_solves_match_lowest_modes_route():
    # spectral_data solves mode n alone; the reference takes pair n of
    # eigen_lowest(H, n + 1) on the same grid.  Measured worst cases at
    # N = 2048: 4.8e-16 (mu), 4.6e-14 (mu'), 9.6e-14 (mu'') and 7.3e-14
    # (dphi, phi's parity); the bounds leave a margin of >= 20x.  dphi's part of the other parity is rounding amplified by
    # 1/gap: at nu = -40 it is up to 7.4e-2 of ||dphi|| on either route and
    # the routes differ there by up to 3.3e-3, so only phi's parity is
    # compared
    for n in (1, 2, 3, 4):
        for nu in (-40.0, -4.0, NU_CRIT_1, 0.0, 4.0):
            p = Montgomery(nu)
            grid = box_grid(p, n + 1, 2048)
            with warnings.catch_warnings():
                # no neighbouring level is solved, so the tunnelling pair
                # of nu = -40 gives no near-degeneracy warning
                warnings.simplefilter("error")
                data = spectral_data(1.0, nu, n, grid=grid)
            H = build_hamiltonian(p, grid)
            mu, phi = eigen_lowest(H, n + 1).pair(n)
            dH_phi = 2.0 * data.w * phi
            dphi = reduced_resolvent_solve(replace(data, mu=mu, phi=phi), dH_phi)
            mu_d2 = 2.0 + 2.0 * grid.inner(dH_phi, dphi).real
            scale = max(1.0, abs(mu))
            assert abs(data.mu - mu) <= 1e-14 * scale, (n, nu)
            assert abs(data.mu_d1 - grid.inner(dH_phi, phi).real) <= 1e-12 * scale, (n, nu)
            assert abs(data.mu_d2 - mu_d2) <= 2e-12 * max(1.0, abs(mu_d2)), (n, nu)
            diff = data.dphi - dphi
            same_parity = 0.5 * (diff + (-1.0) ** (n - 1) * diff[::-1])
            assert grid.norm(same_parity) <= 2e-12 * grid.norm(dphi), (n, nu)


def test_eigenvector_derivative_matches_complete_spectral_sum():
    # at N = 512 the sum over all N modes is exact; measured worst cases are
    # 3.1e-12 (mu'') and 8.2e-8 (dphi, the nu = -4 tunnelling pair with gap
    # 1.6e-5); the bounds leave a margin of ~30x and ~12x
    for n in (1, 2, 3, 4):
        for nu in (-4.0, -1.0, NU_CRIT_1, 0.0, 2.0, 4.0):
            data = spectral_data(1.0, nu, n, N=512)
            g = data.grid
            H = build_hamiltonian(data.param, g)
            vals, vecs = eigh_tridiagonal(H.diagonal, np.full(g.N - 1, H.offdiag))
            vecs /= np.sqrt(g.h)
            phi = vecs[:, n - 1] * np.sign(g.inner(vecs[:, n - 1], data.phi))
            dH_phi = 2.0 * data.w * phi
            others = np.arange(g.N) != n - 1
            coef = g.h * (vecs[:, others].T @ dH_phi) / (vals[n - 1] - vals[others])
            dphi = vecs[:, others] @ coef
            mu_d2 = 2.0 + 2.0 * g.inner(dH_phi, dphi).real
            assert abs(data.mu_d2 - mu_d2) <= 1e-10 * abs(mu_d2)
            assert g.norm(data.dphi - dphi) <= 1e-6 * g.norm(dphi)


@pytest.mark.parametrize("nu, N", [(-1.0, 2048), (2.0, 2048), (-3.0, 4096), (0.0, 8192),
                                   (-0.5, 2048), (3.0, 2048), (-1.0, 4096)])
def test_eigenvector_sign_independent_of_mode_count(nu, N):
    # vectors are mirrored from their parity block, so an odd mode's two
    # peaks are bitwise equal and the sign rule is a plain argmax of |phi|;
    # the sign must not depend on how many modes the solve was asked for
    p = Generic(1.0, nu)
    H = build_hamiltonian(p, box_grid(p, 4, N))
    many = eigen_lowest(H, 32, confine_level=5).eigenvectors
    for n in (2, 4):
        few = eigen_lowest(H, n + 1).eigenvectors[:, n - 1]
        assert np.max(np.abs(few - many[:, n - 1])) <= 1e-8
        _, alone = eigen_mode(H, n)
        assert np.max(np.abs(alone - many[:, n - 1])) <= 1e-8


def test_richardson_extrapolation_improves():
    grid = SpectralGrid(7.0, 1024)
    plain = eigen_lowest(build_hamiltonian(Montgomery(0.0), grid), 1).eigenvalues[0]
    extr = eigenvalues_extrapolated(Montgomery(0.0), 1, grid=grid)[0]
    assert abs(extr - MU1_MONTGOMERY_0) < abs(plain - MU1_MONTGOMERY_0) / 10

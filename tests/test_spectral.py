"""Spectral solver, Feynman-Hellmann machinery, reduced resolvent."""

from dataclasses import replace

import numpy as np
import pytest
from grid_reference import (
    InfinitesimalOp,
    Montgomery,
    deflated_solve,
    eigenvalues_extrapolated,
    harmonic,
)
from hypothesis import given, settings, strategies as st
from projector import projector_derivative
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein

from engellab import dispersion, spectral
from engellab.spectral import (
    _reduced_resolvent,
    ConfinementError,
    Generic,
    SpectralGrid,
    box_grid,
    build_hamiltonian,
    eigen_lowest,
    eigen_mode,
    real_cbrt,
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


def test_generic_requires_nonzero_delta():
    with pytest.raises(ValueError):
        Generic(0.0, 1.0)


def test_harmonic_sanity_relative():
    res = eigen_lowest(harmonic(1.0, SpectralGrid(10.0, 4096)), 4)
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


def test_a_non_integral_mode_index_is_refused_by_name():
    # n = 1.5 left the bisection interval of a mode, a misleading RuntimeError
    with pytest.raises(ValueError, match="mode index n must be an integer, got n = 1.5"):
        spectral_data(1.0, 0.0, 1.5)
    assert spectral_data(1.0, 0.0, np.int64(2), N=512).mu == spectral_data(1.0, 0.0, 2, N=512).mu


def test_mode_certificate_refuses_a_swapped_vector(monkeypatch):
    # inverse iteration hands back the vector of the next index of the same
    # block, whose Rayleigh quotient is outside the bisection interval of
    # the index it was asked for
    def swapped(d, e, w, iblock, isplit):
        block = eigh_tridiagonal(d, e, eigvals_only=True)
        return dstein(d, e, block[np.abs(block - w[0]).argmin() + 1:][:1], iblock, isplit)
    H = build_hamiltonian(Montgomery(0.0), box_grid(Montgomery(0.0), 6, 2048))
    monkeypatch.setattr(spectral, "dstein", swapped)
    for n in (1, 2, 3, 4):
        with pytest.raises(RuntimeError, match="bisection interval"):
            eigen_mode(H, n)


def test_confinement_error_advises_larger_box():
    with pytest.raises(ConfinementError, match="enlarge"):
        eigen_lowest(harmonic(1.0, SpectralGrid(2.0, 256)), 4)
    # the odd block of the smallest grid has a single row
    with pytest.raises(ConfinementError, match="enlarge"):
        spectral_data(1.0, 0.0, 2, grid=SpectralGrid(5.0, 3))


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
    V = (p.beta + 0.5 * p.delta * xi**2) ** 2
    assert np.trapezoid(np.sqrt(np.maximum(V - mu, 0.0)), xi) >= 18.0


def test_tiny_scales_certified():
    # the wall margin is in the natural energy E, so boxes that follow the
    # natural length confine at any scale: the harmonic oscillator's unit
    # box L = 10 scaled by |lam|^{-1/2}; measured 7.7e-13 (rescaling law),
    # 1.5e-6 and 5.3e-6 (harmonic ladder, the O(h^2) stencil bias), and
    # the bounds leave a margin of ~7-10x
    lhs = eigenvalues_extrapolated(Generic(1e-6, 0.0), 1)[0]
    rhs = 1e-4 * eigenvalues_extrapolated(Montgomery(0.0), 1)[0]
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def harmonic_levels(lam, k):
        return eigen_lowest(harmonic(lam, SpectralGrid(10.0 / abs(lam) ** 0.5, 4096)),
                            k).eigenvalues / abs(lam)

    assert abs(harmonic_levels(1e-4, 1)[0] - 1.0) <= 1e-5
    ladder = np.array([1.0, 3.0, 5.0, 7.0])
    assert np.max(np.abs(harmonic_levels(0.01, 4) - ladder) / ladder) <= 5e-5


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
    delta, beta, n = 1.0, 0.3, 1
    data = spectral_data(delta, beta, n, N=8192)
    g = data.grid
    d1 = InfinitesimalOp(g, None)
    lhs = complex(g.inner(d1.apply(data.dphi), data.phi))
    m3 = complex(g.inner(1j * delta * g.nodes * data.phi, data.phi))
    rhs = data.mu_d1 / (2j * delta) * m3
    assert abs(lhs - rhs) <= 1e-4


# -- reduced resolvent ---------------------------------------------------------


def _resolvent(data, mu, rhs):
    """`_reduced_resolvent` on the even block of `spectral_data`'s operator
    for an even mode on an even grid and a right side of its parity, both
    on the full grid."""
    g = data.grid
    bd, be = spectral._parity_block(data.op.diagonal, data.op.offdiag, 0)
    x, r = (v[: g.N // 2] * np.sqrt(2.0 * g.h) for v in (data.phi, rhs))
    u = _reduced_resolvent(np.array([bd, np.append(be, 0.0)]), mu, x, r)
    return spectral._mirror(u, 0, g.h, np.empty(g.N))


def test_reduced_resolvent_zero_rhs():
    data = spectral_data(1.0, 0.1, 1, N=2048)
    u = _resolvent(data, data.mu, np.zeros(data.grid.N))
    assert data.grid.norm(u) == 0.0


def test_reduced_resolvent_eigenvector_rhs():
    data = spectral_data(1.0, 0.1, 1, N=2048)
    mu_m, phi_m = solve_lowest(data.param, 3, grid=data.grid).pair(3)
    u = _resolvent(data, data.mu, phi_m)
    expected = phi_m / (data.mu - mu_m)
    assert data.grid.norm(u - expected) <= 1e-8 * data.grid.norm(expected)


def test_reduced_resolvent_random_rhs_residual():
    data = spectral_data(1.0, 0.1, 1, N=2048)
    g = data.grid
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(g.N) * np.exp(-(g.nodes**2))
    rhs += rhs[::-1]  # the even block's right side, like phi_1
    u = _resolvent(data, data.mu, rhs)
    H = build_hamiltonian(data.param, g)
    rhs_perp = rhs - data.phi * complex(g.inner(rhs, data.phi)).real
    resid = data.mu * u - H.apply(u) - rhs_perp
    assert g.norm(resid) <= 1e-8 * g.norm(rhs)
    assert abs(complex(g.inner(u, data.phi))) <= 1e-10


def test_reduced_resolvent_refuses_wrong_level(monkeypatch):
    # phi_1 paired with mu_3, the next level of its block: mu - H is
    # singular off the deflated direction, and spectral_data's residual
    # gate refuses the solve
    data = spectral_data(1.0, 0.1, 1, N=2048)
    mu_3 = float(solve_lowest(data.param, 3, grid=data.grid).eigenvalues[2])
    monkeypatch.setattr(spectral, "eigen_mode", lambda op, n: (mu_3, data.phi))
    with pytest.raises(RuntimeError, match="residual"):
        spectral_data(1.0, 0.1, 1, N=2048)


def _block(k: int):
    """A parity block's lower band (k + 1 rows), an eigenvalue w and a
    w-eigenvector x: the even finite-difference block of mode 3 for k = 1,
    the Hermite block of mode 4 at nu = 7 for k = 2."""
    if k == 1:
        data = spectral_data(1.0, 0.1, 3, N=256)
        bd, be = spectral._parity_block(data.op.diagonal, data.op.offdiag, 0)
        return np.array([bd, np.append(be, 0.0)]), data.mu, data.phi[:128]
    [(_, (w, phi, band))] = dispersion._hermite_branch(4, [7.0])
    return band, w, phi


def _dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band is `band`."""
    m = band.shape[1]
    lower = sum(np.diag(row[:m - j], -j) for j, row in enumerate(band))
    return lower + np.tril(lower, -1).T


@pytest.mark.parametrize("k, bound", [(1, 1e-13), (2, 4e-15)])
def test_banded_solve_matches_the_dense_block(k, bound):
    # `_resolve` against np.linalg.solve on the dense block: plain off the
    # spectrum, on the leading rows too, and with Nelson's unit column at
    # x's largest entry for the eigenvalue.  Measured 7.9e-15 (k = 1) and
    # 3.0e-16 (k = 2) of the largest entry at worst; the bounds are at ~13x
    band, w, x = _block(k)
    assert band.shape[0] == k + 1
    m, dense = band.shape[1], _dense(band)
    r = np.random.default_rng(3).standard_normal((m, 2))
    for rows, at, i in ((m, w + 0.3, None), (m - 8, w + 0.3, None),
                        (m, w, int(np.argmax(np.abs(x))))):
        system = at * np.eye(rows) - dense[:rows, :rows]
        if i is not None:
            system[:, i] = np.eye(rows)[i]
        expected = np.linalg.solve(system, r[:rows])
        if i is not None:
            expected[i] = 0.0
        u = spectral._resolve(band, at, r[:rows], i)
        assert np.max(np.abs(u - expected)) <= bound * np.max(np.abs(expected)), (rows, i)


def test_resolvent_solves_a_row_where_a_plain_lu_meets_a_zero_pivot():
    # at this row of a branch sweep a plain tridiagonal LU (LAPACK dgtsv)
    # of the even block of mu - H meets an exactly zero pivot; the
    # library's solve puts a unit column at phi's peak (`spectral._resolve`),
    # and mu'' matches the full-grid route (measured 2.9e-15)
    nu = 1.7000000000000046
    data = spectral_data(1.0, nu, 3, grid=box_grid(Montgomery(nu), 4, 2048))
    dH_phi = 2.0 * data.w * data.phi
    dphi = deflated_solve(data.op, data.mu, data.phi, dH_phi)
    mu_d2 = 2.0 + 2.0 * data.grid.inner(dH_phi, dphi).real
    assert abs(data.mu_d2 - mu_d2) <= 2e-12 * max(1.0, abs(mu_d2))


def test_single_mode_solves_match_lowest_modes_route():
    # spectral_data solves mode n alone and its resolvent on the parity
    # block; the reference takes pair n of eigen_lowest(H, n + 1) on the
    # same grid, which is that mode's pair bitwise, and the full-grid
    # resolvent solve.  Measured worst cases at N = 2048: 1.5e-15 (mu'),
    # 5.4e-13 (mu'', n = 3 at nu = -4, where both routes are 1.2-1.8e-12
    # from the block's complete spectral sum) and 2.7e-13 (dphi, phi's
    # parity); the bounds leave a margin of >= 3.6x.
    # The reference's dphi has a part of the other parity, rounding
    # amplified by 1/gap (up to 7.4e-2 of ||dphi|| at nu = -40), which the
    # block solve never forms, so only phi's parity is compared
    for n in (1, 2, 3, 4):
        for nu in (-40.0, -4.0, NU_CRIT_1, 0.0, 4.0):
            p = Montgomery(nu)
            grid = box_grid(p, n + 1, 2048)
            data = spectral_data(1.0, nu, n, grid=grid)
            H = build_hamiltonian(p, grid)
            mu, phi = eigen_lowest(H, n + 1).pair(n)
            dH_phi = 2.0 * data.w * phi
            dphi = deflated_solve(data.op, mu, phi, dH_phi)
            mu_d2 = 2.0 + 2.0 * grid.inner(dH_phi, dphi).real
            scale = max(1.0, abs(mu))
            assert data.mu == mu, (n, nu)
            assert abs(data.mu_d1 - grid.inner(dH_phi, phi).real) <= 1e-12 * scale, (n, nu)
            assert abs(data.mu_d2 - mu_d2) <= 2e-12 * max(1.0, abs(mu_d2)), (n, nu)
            diff = data.dphi - dphi
            same_parity = 0.5 * (diff + (-1.0) ** (n - 1) * diff[::-1])
            assert grid.norm(same_parity) <= 2e-12 * grid.norm(dphi), (n, nu)


def test_dphi_has_the_parity_of_phi():
    # 2 W phi_n has phi_n's parity and H commutes with the mirror; at the
    # tunnelling pairs of nu = -40 the solve alone gave the other parity
    # 0.97 / 7.4 / 1.6 / 3.3 % of ||dphi|| for n = 1..4 (N = 2048)
    for n in (1, 2, 3, 4):
        data = spectral_data(1.0, -40.0, n, N=2048)
        assert np.array_equal(data.dphi, (-1.0) ** (n - 1) * data.dphi[::-1]), n
        assert data.grid.norm(data.dphi) > 0.0


def test_eigenvector_derivative_matches_complete_spectral_sum():
    # at N = 512 the sum over all N modes is exact; measured worst cases are
    # 2.6e-12 (mu'') and 3.3e-10 (dphi, which the nu = -4 tunnelling
    # partner, 1.6e-5 away in the other block, does not reach); the bounds
    # leave a margin of ~38x and ~3000x
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
                                   (-0.5, 2048), (3.0, 2048), (-1.0, 4096), (-1.0, 2049),
                                   (-4.0, 2048), (-4.0, 4097), (-4.0, 8192), (-3.0, 2048),
                                   (-3.0, 8192), (NU_CRIT_1, 2048), (NU_CRIT_1, 8192),
                                   (0.0, 2048), (2.0, 8192), (4.0, 2048), (4.0, 8192)])
def test_eigenvector_sign_independent_of_mode_count(nu, N):
    # eigen_lowest stacks eigen_mode, so pair n, its vector's sign included,
    # is bitwise the same whatever the mode count, up to n + 3 modes for
    # n <= 4 in a box of level 7; nu = -4 puts modes 1 and 2 in a
    # tunnelling pair
    p = Generic(1.0, nu)
    H = build_hamiltonian(p, box_grid(p, 7, N))
    modes = [eigen_mode(H, n) for n in range(1, 8)]
    for k in range(1, 8):
        res = eigen_lowest(H, k)
        for n, (mu, phi) in enumerate(modes[:k], start=1):
            assert res.pair(n)[0] == mu, (k, n)
            assert np.array_equal(res.pair(n)[1], phi), (k, n)


def test_richardson_extrapolation_improves():
    grid = SpectralGrid(7.0, 1024)
    plain = eigen_lowest(build_hamiltonian(Montgomery(0.0), grid), 1).eigenvalues[0]
    extr = eigenvalues_extrapolated(Montgomery(0.0), 1, grid=grid)[0]
    assert abs(extr - MU1_MONTGOMERY_0) < abs(plain - MU1_MONTGOMERY_0) / 10

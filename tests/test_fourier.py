"""Representations, group Fourier transform, Plancherel, difference ops."""

import numpy as np
import pytest
from grid_reference import (
    Factor1D,
    ProductKernel,
    difference_op_check,
    dilated,
    fourier_product_kernel,
    gaussian_factors,
    infinitesimal,
    rep_apply,
    times_minus_t,
)
from scipy.interpolate import CubicSpline

from engellab import fourier
from engellab.algebra import GroupElement, exp_basis, inverse, multiply
from engellab.fourier import (
    GaussianKernelSpec,
    GridMarginError,
    QuadratureBoxError,
    _TILE,
    _quadratic_phase,
    _spline_table,
    live_window,
    matrix_coefficient,
    matrix_coefficients,
    plancherel_calibrate,
)
from engellab.spectral import Generic, SpectralGrid

GRID = SpectralGrid(10.0, 2048)
PARAM = Generic(1.0, 0.3)


def _gaussian(center=0.0, width=1.0):
    phi = np.exp(-((GRID.nodes - center) ** 2) / (2 * width**2)).astype(complex)
    return phi / GRID.norm(phi)


def test_identity_leaves_vector():
    phi = _gaussian()
    out = rep_apply(PARAM, GroupElement(0, 0, 0, 0), phi, GRID)
    assert np.allclose(out, phi)


def test_unitarity_after_interpolation():
    rng = np.random.default_rng(7)
    phi = _gaussian(0.3, 0.8)
    for _ in range(5):
        x = GroupElement(*rng.uniform(-1, 1, size=4))
        out = rep_apply(PARAM, x, phi, GRID)
        assert abs(GRID.norm(out) - 1.0) <= 1e-6


def test_x2_action_is_multiplication_by_phase():
    phi = _gaussian()
    x2 = 0.7
    out = rep_apply(PARAM, GroupElement(0, x2, 0, 0), phi, GRID)
    expected = np.exp(1j * (0.3 + 0.5 * GRID.nodes**2) * x2) * phi
    assert np.max(np.abs(out - expected)) < 1e-12


def test_homomorphism_on_random_pairs():
    rng = np.random.default_rng(8)
    phi = _gaussian(0.0, 0.9)
    for _ in range(5):
        x = GroupElement(*rng.uniform(-0.8, 0.8, size=4))
        y = GroupElement(*rng.uniform(-0.8, 0.8, size=4))
        lhs = rep_apply(PARAM, multiply(x, y), phi, GRID)
        rhs = rep_apply(PARAM, x, rep_apply(PARAM, y, phi, GRID), GRID)
        assert GRID.norm(lhs - rhs) <= 1e-5


def test_margin_error_on_large_shift():
    phi = _gaussian(0.0, 1.5)
    with pytest.raises(GridMarginError):
        rep_apply(PARAM, GroupElement(9.0, 0, 0, 0), phi, GRID)


def test_adjoint_matches_pinned_phase_at_exact_shift():
    # validates the kernel reduction phase against the raw representation
    phi = _gaussian(0.2, 0.7)
    m = 41
    x = GroupElement(m * GRID.h, -0.52, 0.31, 0.17)
    lhs = rep_apply(PARAM, inverse(x), phi, GRID)
    xi = GRID.nodes
    shifted = np.zeros_like(phi)
    shifted[m:] = phi[: GRID.N - m]
    theta = (0.3 + 0.5 * xi**2) * (-0.52) + 0.5 * (2 * xi - m * GRID.h) * 0.31 + 0.17
    assert GRID.norm(lhs - np.exp(-1j * theta) * shifted) < 1e-12


# -- the not-a-knot spline -------------------------------------------------------


def _spline_vectors(N):
    """A real and a complex vector on the L = 12 box of N nodes, live over it all."""
    rng = np.random.default_rng(N)
    xi = SpectralGrid(12.0, N).nodes
    real = np.exp(-xi**2 / 3) * np.cos(2 * xi) + 1e-3 * rng.standard_normal(N)
    return real, real * np.exp(0.6j * xi) + 1e-3j * rng.standard_normal(N)


@pytest.mark.parametrize("N", [768, 2048, 3072, 2049])
def test_spline_table_is_scipy_not_a_knot(N):
    # scipy's CubicSpline is the oracle: same equations, same rounding
    nodes = SpectralGrid(12.0, N).nodes
    for y in _spline_vectors(N):
        ref, got = CubicSpline(nodes, y).c, _spline_table(nodes, y)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()  # bitwise, signed zeros included


def _rep_apply_by_scipy(param, x, phi, grid):
    """rep_apply with phi(. + s) from scipy's CubicSpline at the targets."""
    coords = np.array([[float(v) for v in x.coords()]])
    target = grid.nodes + coords[0, 0]
    shifted = CubicSpline(grid.nodes, phi)(target).astype(complex)
    shifted[(target < -grid.L) | (target > grid.L)] = 0.0
    (a,), (b,), (c,) = _quadratic_phase(param, coords)
    return shifted * np.exp(1j * (a + (b + c * target) * target))


@pytest.mark.parametrize("param", [PARAM], ids=repr)
def test_rep_apply_matches_scipy_spline(param):
    # x1 = 0 puts every target on a node, -L and L included; the narrow
    # vector takes off-node shifts and targets past the box
    wide = _spline_vectors(GRID.N)[1]
    narrow = np.exp(-GRID.nodes**2 / 2)
    for phi, x1 in ((wide, 0.0), (narrow, 0.0), (narrow, 7 * GRID.h), (narrow, -0.123),
                    (narrow.astype(complex), 1.5)):
        x = GroupElement(x1, 0.2, -0.3, 0.4)
        assert np.array_equal(rep_apply(param, x, phi, GRID),
                              _rep_apply_by_scipy(param, x, phi, GRID))


def test_spline_refuses_bad_values():
    bad = _gaussian()
    bad[100] = np.nan
    x = GroupElement(0.1, 0.2, 0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        rep_apply(PARAM, x, bad, GRID)
    with pytest.raises(ValueError, match="finite"):
        matrix_coefficient(PARAM, x, _gaussian(), bad, GRID)
    with pytest.raises(ValueError, match="one spline value per node"):
        _spline_table(GRID.nodes, _gaussian()[:-1])


# -- infinitesimal generators ---------------------------------------------------


def test_x4_generator_is_scalar():
    phi = _gaussian()
    out = infinitesimal(PARAM, 4, GRID).apply(phi)
    assert np.max(np.abs(out - 1j * 1.0 * phi)) < 1e-14


def test_generator_limits():
    phi = _gaussian(0.1, 0.8)
    for i in (1, 2, 3, 4):
        gen = infinitesimal(PARAM, i, GRID)
        errs = []
        for t in (1e-2, 1e-3):
            fd = (rep_apply(PARAM, exp_basis(i, t), phi, GRID) - phi) / t
            errs.append(GRID.norm(fd - gen.apply(phi)))
        assert errs[0] <= 0.05
        assert errs[1] <= 0.15 * errs[0]  # O(t) convergence


def test_commutator_x1_x2_equals_x3():
    phi = _gaussian(0.0, 0.9)
    a1 = infinitesimal(PARAM, 1, GRID)
    a2 = infinitesimal(PARAM, 2, GRID)
    a3 = infinitesimal(PARAM, 3, GRID)
    comm = a1.apply(a2.apply(phi)) - a2.apply(a1.apply(phi))
    assert GRID.norm(comm - a3.apply(phi)) <= 5 * GRID.h**2


# -- matrix coefficients ---------------------------------------------------------


def test_matrix_coefficient_at_identity():
    phi = _gaussian(0.1, 0.8)
    psi = _gaussian(-0.2, 1.1)
    c = matrix_coefficient(PARAM, GroupElement(0, 0, 0, 0), phi, psi, GRID)
    assert c == pytest.approx(complex(GRID.inner(phi, psi)), abs=1e-12)


def test_matrix_coefficient_cauchy_schwarz():
    rng = np.random.default_rng(9)
    phi = _gaussian(0.1, 0.8)
    psi = _gaussian(-0.2, 1.1)
    for _ in range(8):
        x = GroupElement(*rng.uniform(-1.2, 1.2, size=4))
        assert abs(matrix_coefficient(PARAM, x, phi, psi, GRID)) <= 1.0 + 1e-9


def test_matrix_coefficient_center_phase():
    phi = _gaussian(0.1, 0.8)
    psi = _gaussian(-0.2, 1.1)
    x4 = 0.83
    c = matrix_coefficient(PARAM, GroupElement(0, 0, 0, x4), phi, psi, GRID)
    assert c == pytest.approx(np.exp(1j * x4) * complex(GRID.inner(phi, psi)), abs=1e-12)


ORACLE_GRID = SpectralGrid(16.0, 1024)


TWO_PI = np.longdouble("6.283185307179586476925286766559005768")


def _reference_phase(param, coords, u):
    """theta(u, x) of pi(x) phi(u) = e^{i theta} phi(u + x1), straight from
    the representation formulas, per element in long double."""
    x1, x2, x3, x4 = (v[:, None] for v in np.asarray(coords, dtype=np.longdouble).T)
    u = np.asarray(u, dtype=np.longdouble)
    d, b = np.longdouble(param.delta), np.longdouble(param.beta)
    return d * (x4 + u * x3 + x1 * x3 / 2) + (b + d * (u + x1) * (u + x1) / 2) * x2


def _direct_coefficients(param, coords, V, phi2, grid):
    """Reference kernel: every node, no window, theta per element in long
    double at u = xi - s and reduced there to [-pi, pi] before exp, phi2's
    spline evaluated at u by scipy, then one product with V."""
    shifts = coords[:, 0]
    xi = grid.nodes.astype(np.longdouble)
    theta = _reference_phase(param, coords, xi[None, :] - shifts[:, None])
    theta = (theta - TWO_PI * np.rint(theta / TWO_PI)).astype(float)  # |theta| <= pi
    u = grid.nodes[None, :] - shifts[:, None]
    G = np.exp(1j * theta) * np.conj(CubicSpline(grid.nodes, phi2)(u))
    return grid.h * (G @ V)


def _oracle_vectors(complex_values):
    """Three columns of V and a phi2, live over |xi| < ~7.3 of the L = 16 box."""
    xi = ORACLE_GRID.nodes
    V = np.column_stack([np.exp(-((xi - c) ** 2) / 1.28) * (xi - c) ** p
                         for c, p in ((0.0, 0), (0.5, 1), (-0.7, 2))])
    phi2 = np.exp(-((xi - 0.3) ** 2) / 1.5)
    if complex_values:
        V = V * np.exp(0.4j * xi)[:, None]
        phi2 = phi2 * np.exp(-0.7j * xi)
    return V, phi2


def _oracle_scale(ref, V, phi2, large):
    """What the 1e-12 bound is relative to: the largest coefficient, or at
    large phases, where the sums cancel down to rounding, each column's
    Cauchy-Schwarz bound ||v_k|| ||phi2|| of |(pi(x) v_k, phi2)|."""
    if not large:
        return np.max(np.abs(ref))
    return ORACLE_GRID.norm(phi2) * np.array([ORACLE_GRID.norm(v) for v in V.T])


def _oracle_points(rng, M, large):
    """M points with shifts in (-8, 8); with `large` the phase over the live
    nodes reaches ~3 000 rad, as in the hbar = 0.0125 residual draws."""
    scale = (12.0, 60.0, 1000.0) if large else (1.0, 1.0, 1.0)
    return np.column_stack([rng.uniform(-8.0, 8.0, M),
                            rng.standard_normal((M, 3)) * scale])


ORACLE_PARAMS = [Generic(1.0, 0.3), Generic(-0.7, 0.2)]


@pytest.mark.parametrize("param", ORACLE_PARAMS, ids=repr)
@pytest.mark.parametrize("M", [1, _TILE - 1, _TILE, _TILE + 1, 1000])
def test_kernel_matches_direct_formula(param, M):
    # the tiles of _TILE points, the overlap windows and the piece-aligned
    # spline reproduce the direct sum, also where the phase reaches ~3 000
    # rad; rows come back in input order
    rng = np.random.default_rng(M)
    perm = rng.permutation(M)
    for large in (False, True):
        coords = _oracle_points(rng, M, large)
        if large and M == 1000:
            xi = ORACLE_GRID.nodes[np.abs(ORACLE_GRID.nodes) < 7.3]
            assert np.max(np.abs(_reference_phase(param, coords, xi))) > 2500
        for complex_values in (False, True):
            V, phi2 = _oracle_vectors(complex_values)
            ref = _direct_coefficients(param, coords, V, phi2, ORACLE_GRID)
            got = matrix_coefficients(param, coords[perm], V, phi2, ORACLE_GRID)
            scale = _oracle_scale(ref, V, phi2, large)
            assert np.all(np.abs(got - ref[perm]) <= 1e-12 * scale)


@pytest.mark.parametrize("param", ORACLE_PARAMS, ids=repr)
@pytest.mark.parametrize("half_width", [0.15, 0.5])
def test_kernel_short_windows(param, half_width):
    # V live over a few nodes only: the tile's node range is that short window
    V, phi2 = _oracle_vectors(True)
    V = V * (np.abs(ORACLE_GRID.nodes) < half_width)[:, None]
    rng = np.random.default_rng(3)
    for M in (1, 129):
        for large in (False, True):
            coords = _oracle_points(rng, M, large)
            coords[:, 0] *= 0.8  # keep phi2's live range over V's window
            ref = _direct_coefficients(param, coords, V, phi2, ORACLE_GRID)
            got = matrix_coefficients(param, coords, V, phi2, ORACLE_GRID)
            assert np.all(np.abs(got - ref) <= 1e-12 * _oracle_scale(ref, V, phi2, large))


def _end_node_case():
    """V live over |xi| <= 5, where it is O(1) at its last live nodes, a phi2
    live up to both box ends, and shifts that put the window's end nodes on
    the box's: s = +-(L - reach), those an ulp outward (still inside the
    margin, but k(s) = floor(-s / h) rounds down a piece), those minus a
    few steps h, and a few integer multiples of h."""
    xi, L, h = ORACLE_GRID.nodes, ORACLE_GRID.L, ORACLE_GRID.h
    V, _ = _oracle_vectors(True)
    V = V * (np.abs(xi) <= 5.0)[:, None]
    phi2 = np.exp(-(xi**2) / 400.0) * (1.0 + 0.3j * np.sin(0.7 * xi))
    reach = live_window(V, ORACLE_GRID)[1]
    edge = L - reach
    shifts = [sign * (edge - n * h) for sign in (1.0, -1.0) for n in range(4)]
    shifts += [sign * np.nextafter(edge, 2 * edge) for sign in (1.0, -1.0)]
    shifts += [n * h for n in (-7, -2, 1, 5)]
    return V, phi2, np.array(shifts)


@pytest.mark.parametrize("param", ORACLE_PARAMS, ids=repr)
def test_kernel_at_box_end_nodes(param):
    # arguments eta - s on the box's end nodes read the constant padded
    # columns of the piece table: column N for a single point at s = -(L -
    # reach), column 0 in a tile where the ulp-outward shift sits below the
    # tile's largest k(s), whose node range then starts at the window's start
    V, phi2, shifts = _end_node_case()
    rng = np.random.default_rng(11)
    for M in (1, _TILE + 1):
        for s in shifts if M == 1 else [shifts]:
            coords = np.column_stack([np.resize(s, M), rng.standard_normal((M, 3))])
            ref = _direct_coefficients(param, coords, V, phi2, ORACLE_GRID)
            got = matrix_coefficients(param, coords, V, phi2, ORACLE_GRID)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref)))


def test_kernel_zero_when_phi2_misses_window():
    # the shifted phi2 (live for -6.4 < u < 7.0) misses V's window entirely, yet
    # the shift keeps every argument inside the box: exact zeros
    V, phi2 = _oracle_vectors(True)
    V = V * (np.abs(ORACLE_GRID.nodes) < 1.0)[:, None]
    coords = np.array([[-8.6, 0.3, -0.2, 0.1]])
    assert not np.any(matrix_coefficients(PARAM, coords, V, phi2, ORACLE_GRID))
    ref = _direct_coefficients(PARAM, coords, V, phi2, ORACLE_GRID)
    assert np.max(np.abs(ref)) <= 1e-12


MEMO_POINTS = np.random.default_rng(5).uniform(-1.5, 1.5, size=(_TILE + 3, 4))


@pytest.mark.parametrize("param", ORACLE_PARAMS, ids=repr)
def test_kernel_batched_and_one_point_calls_agree_to_rounding(param):
    # a tile sums over the nodes live for any of its points, so a point's
    # value is rounded differently with other points beside it, not bitwise
    # the one-point call's: measured up to 1.9e-15 of the largest
    # coefficient over these 131 points (|shift| < 1.5) and 4.8e-15 with
    # shifts in (-8, 8); bound at ~2x the first
    for complex_values in (False, True):
        V, phi2 = _oracle_vectors(complex_values)
        batch = matrix_coefficients(param, MEMO_POINTS, V, phi2, ORACLE_GRID)
        one = np.vstack([matrix_coefficients(param, x[None], V, phi2, ORACLE_GRID)
                         for x in MEMO_POINTS])
        assert np.all(np.abs(batch - one) <= 4e-15 * np.max(np.abs(batch)))


# -- phi2's prepared spline, kept from the last call ------------------------------


def _cold(monkeypatch, param, coords, V, phi2, grid):
    """matrix_coefficients with the memo of phi2's preparation cleared."""
    monkeypatch.setattr(fourier, "_last_prepared", None)
    return matrix_coefficients(param, coords, V, phi2, grid)


@pytest.mark.parametrize("param", ORACLE_PARAMS, ids=repr)
def test_memo_result_is_the_cold_result(param, monkeypatch):
    # a warm call reuses the last preparation and gives the cold call's bits,
    # for a V of several columns and for V = phi2, whose window is reused too
    V, phi2 = _oracle_vectors(True)
    for cols in (V, phi2[:, None]):
        for coords in (MEMO_POINTS, MEMO_POINTS[:1]):
            cold = _cold(monkeypatch, param, coords, cols, phi2, ORACLE_GRID)
            prep = fourier._last_prepared
            warm = matrix_coefficients(param, coords, cols, phi2, ORACLE_GRID)
            assert fourier._last_prepared is prep
            assert warm.tobytes() == cold.tobytes()


def test_memo_sees_phi2_changed_in_place(monkeypatch):
    # phi2 and V = phi2 change in place between calls: the new values count
    V, phi2 = _oracle_vectors(True)
    matrix_coefficients(PARAM, MEMO_POINTS, V, phi2, ORACLE_GRID)
    matrix_coefficient(PARAM, GroupElement(0.2, 0.1, 0, 0), phi2, phi2, ORACLE_GRID)
    phi2 *= np.exp(0.9j * ORACLE_GRID.nodes)
    phi2[400:420] = 0.0
    x = GroupElement(*MEMO_POINTS[0])
    got = matrix_coefficients(PARAM, MEMO_POINTS, V, phi2, ORACLE_GRID)
    one = matrix_coefficient(PARAM, x, phi2, phi2, ORACLE_GRID)
    fresh = phi2.copy()
    assert got.tobytes() == _cold(monkeypatch, PARAM, MEMO_POINTS, V, fresh,
                                  ORACLE_GRID).tobytes()
    ref = _cold(monkeypatch, PARAM, MEMO_POINTS[:1], fresh[:, None], fresh, ORACLE_GRID)
    assert one == complex(ref[0, 0])


def test_memo_never_keeps_refused_phi2():
    # after a good call a NaN phi2 on the same grid still raises, and the
    # memo keeps the good preparation; a shift past the box still raises
    # when V is the prepared vector
    V, phi2 = _oracle_vectors(False)
    good = matrix_coefficients(PARAM, MEMO_POINTS, V, phi2, ORACLE_GRID)
    prep = fourier._last_prepared
    bad = phi2.copy()
    bad[500] = np.nan
    with pytest.raises(ValueError, match="finite"):
        matrix_coefficients(PARAM, MEMO_POINTS, V, bad, ORACLE_GRID)
    with pytest.raises(ValueError, match="finite"):
        matrix_coefficient(PARAM, GroupElement(0.1, 0, 0, 0), bad, bad, ORACLE_GRID)
    assert fourier._last_prepared is prep
    assert matrix_coefficients(PARAM, MEMO_POINTS, V, phi2, ORACLE_GRID).tobytes() \
        == good.tobytes()
    with pytest.raises(GridMarginError):
        matrix_coefficient(PARAM, GroupElement(ORACLE_GRID.L, 0, 0, 0), phi2, phi2,
                           ORACLE_GRID)


class _LiveWindowCalled(Exception):
    pass


@pytest.mark.parametrize("complex_values", [False, True])
def test_v_equal_to_phi2_takes_its_prepared_live_range(monkeypatch, complex_values):
    # with no preparation kept, a one-point call whose V holds phi2's values
    # in a distinct array prepares phi2 and gives V phi2's live range, never
    # calling live_window; a V other than phi2 still calls it
    _, phi2 = _oracle_vectors(complex_values)
    window = live_window(phi2[:, None], ORACLE_GRID)[0]
    ref = matrix_coefficients(PARAM, MEMO_POINTS[:1], np.column_stack([phi2, phi2]), phi2,
                              ORACLE_GRID)[0, 0]
    monkeypatch.setattr(fourier, "_last_prepared", None)

    def refused(*args, **kwargs):
        raise _LiveWindowCalled

    monkeypatch.setattr(fourier, "live_window", refused)
    got = matrix_coefficients(PARAM, MEMO_POINTS[:1], phi2.copy()[:, None], phi2,
                              ORACLE_GRID)[0, 0]
    assert fourier._last_prepared.live == (window.start, window.stop)
    assert abs(got - ref) <= 1e-15 * abs(ref)
    other = phi2.copy()
    other[window.start + 5] *= 1 + 1e-9
    with pytest.raises(_LiveWindowCalled):
        matrix_coefficients(PARAM, MEMO_POINTS[:1], other[:, None], phi2, ORACLE_GRID)


def test_memo_keyed_by_grid_and_dtype(monkeypatch):
    # the same values on another grid of as many nodes, and as float and as
    # complex, are each prepared anew and give their cold results
    V, phi2 = _oracle_vectors(False)
    other = SpectralGrid(15.0, ORACLE_GRID.N)
    cases = [(ORACLE_GRID, phi2), (other, phi2), (ORACLE_GRID, phi2.astype(complex)),
             (ORACLE_GRID, phi2)]
    for single in (False, True):
        cols = (lambda p: p[:, None]) if single else (lambda p: V)
        cold = [_cold(monkeypatch, PARAM, MEMO_POINTS, cols(p), p, g) for g, p in cases]
        for (g, p), ref in zip(cases, cold):
            got = matrix_coefficients(PARAM, MEMO_POINTS, cols(p), p, g)
            assert fourier._last_prepared.grid == g
            assert fourier._last_prepared.phi2.dtype == p.dtype
            assert got.tobytes() == ref.tobytes()


# -- 1-D factor transforms -------------------------------------------------------


def _trapezoid_transform(factor, omegas, npts=20001):
    """Reference f^(w) = int f(t) exp(-i w t) dt by the trapezoid rule on the
    factor's support box."""
    t = np.linspace(factor.lo, factor.hi, npts)
    return np.trapezoid(factor.fn(t)[None, :] * np.exp(-1j * np.outer(omegas, t)), t, axis=1)


@pytest.mark.parametrize("name", ["shifted", "times_minus_t", "times_minus_t twice", "sum"])
def test_factor_transform_matches_trapezoid(name):
    shifted = gaussian_factors(GaussianKernelSpec((0.3, 0, 0, 0), (0.7, 1, 1, 1)))[0]
    other = gaussian_factors(GaussianKernelSpec((-0.4, 0, 0, 0), (1.1, 1, 1, 1)))[0]
    factor = {
        "shifted": shifted,
        "times_minus_t": times_minus_t(shifted),
        "times_minus_t twice": times_minus_t(times_minus_t(shifted)),
        "sum": Factor1D(shifted.terms + other.terms),
    }[name]
    # the widest frequency a Plancherel box reaches, 0.7 * 8/w
    edge = 0.7 * 8.0 / min(w for _, _, w, _ in factor.terms)
    omegas = np.linspace(-edge, edge, 201)
    ref = _trapezoid_transform(factor, omegas)
    assert np.max(np.abs(factor.transform(omegas) - ref)) <= 1e-10 * np.max(np.abs(ref))


# -- Fourier transform of product kernels ----------------------------------------


def test_fourier_kernel_against_4d_quadrature():
    # independent oracle: direct quadrature of kappa(x) pi(x)* phi over the
    # group, the representation applied through rep_apply + group inverse
    p = PARAM
    spec = GaussianKernelSpec((0.1, 0.0, -0.2, 0.3), (0.4, 0.8, 0.7, 0.6))
    g = SpectralGrid(10.0, 512)
    phi = np.exp(-((g.nodes - 0.3) ** 2) / 0.8).astype(complex)
    phi /= g.norm(phi)
    psi = np.exp(-((g.nodes + 0.2) ** 2) / 0.6).astype(complex)
    psi /= g.norm(psi)
    K = fourier_product_kernel(ProductKernel.from_gaussian(spec), p, g)
    kernel_route = complex(g.inner(g.h * K @ phi, psi))

    def gauss(c, w, t):
        return np.exp(-((t - c) ** 2) / (2 * w**2))

    n1d = 25
    x1s = np.linspace(0.1 - 6 * 0.4, 0.1 + 6 * 0.4, n1d)
    x2s = np.linspace(-6 * 0.8, 6 * 0.8, n1d)
    x3s = np.linspace(-0.2 - 6 * 0.7, -0.2 + 6 * 0.7, n1d)
    x4s = np.linspace(0.3 - 6 * 0.6, 0.3 + 6 * 0.6, 301)
    w1, w2, w3, w4 = (np.gradient(v) for v in (x1s, x2s, x3s, x4s))
    # x4 enters pi(x)* only through the scalar phase exp(-i delta x4)
    ph4 = np.sum(gauss(0.3, 0.6, x4s) * np.exp(-1j * x4s) * w4)
    acc = 0.0 + 0.0j
    for i1, x1 in enumerate(x1s):
        for i2, x2 in enumerate(x2s):
            for i3, x3 in enumerate(x3s):
                v = rep_apply(p, inverse(GroupElement(x1, x2, x3, 0.0)), phi, g)
                acc += (
                    complex(g.inner(v, psi))
                    * gauss(0.1, 0.4, x1) * gauss(0.0, 0.8, x2) * gauss(-0.2, 0.7, x3)
                    * ph4 * w1[i1] * w2[i2] * w3[i3]
                )
    assert abs(kernel_route - acc) / abs(kernel_route) <= 1e-4


def test_fourier_sends_convolution_to_reversed_composition():
    # <F(f*g) phi, psi> = int f(y) g(z) <pi((yz)^{-1}) phi, psi> dy dz,
    # estimated by sampling (y, z) exactly from the Gaussian kernels and
    # evaluating the coefficients directly; must match F g o F f through
    # the kernels
    fspec = GaussianKernelSpec((0.1, 0.0, -0.1, 0.2), (0.35, 0.5, 0.4, 0.45))
    gspec = GaussianKernelSpec((-0.2, 0.1, 0.0, 0.0), (0.4, 0.45, 0.5, 0.4))
    g = SpectralGrid(10.0, 512)
    phi = np.exp(-((g.nodes - 0.2) ** 2) / 0.8).astype(complex)
    phi /= g.norm(phi)
    psi = np.exp(-((g.nodes + 0.1) ** 2) / 0.7).astype(complex)
    psi /= g.norm(psi)
    Kf = fourier_product_kernel(ProductKernel.from_gaussian(fspec), PARAM, g)
    Kg = fourier_product_kernel(ProductKernel.from_gaussian(gspec), PARAM, g)
    kernel_route = complex(g.inner(g.h * Kg @ (g.h * Kf @ phi), psi))

    rng = np.random.default_rng(21)
    M = 20000
    ys = rng.standard_normal((M, 4)) * np.array(fspec.widths) + np.array(fspec.centers)
    zs = rng.standard_normal((M, 4)) * np.array(gspec.widths) + np.array(gspec.centers)
    mass_f = np.prod([w * np.sqrt(2 * np.pi) for w in fspec.widths])
    mass_g = np.prod([w * np.sqrt(2 * np.pi) for w in gspec.widths])
    yz_inv = inverse(multiply(GroupElement(*ys.T), GroupElement(*zs.T)))
    coefs = matrix_coefficients(PARAM, np.stack(tuple(yz_inv), axis=-1), phi[:, None], psi, g)
    mc_route = complex(np.mean(coefs)) * mass_f * mass_g
    assert abs(kernel_route - mc_route) <= 0.05 * abs(kernel_route)


def test_operator_norm_below_l1():
    spec = GaussianKernelSpec((0.0, 0.0, 0.0, 0.0), (0.8, 1.0, 0.9, 0.7))
    g = SpectralGrid(8.0, 512)
    kernel = ProductKernel.from_gaussian(spec)
    K = fourier_product_kernel(kernel, PARAM, g)
    assert g.h * np.linalg.norm(K, 2) <= kernel.l1_norm() * (1 + 1e-8)


def test_narrow_width_approximate_identity():
    g = SpectralGrid(8.0, 1024)
    phi = np.exp(-((g.nodes - 0.4) ** 2))
    phi = phi / g.norm(phi)
    psi = np.exp(-((g.nodes + 0.3) ** 2) / 1.5)
    psi = psi / g.norm(psi)
    ip = complex(g.inner(phi, psi))
    errs = []
    for w in (0.2, 0.1, 0.05):
        spec = GaussianKernelSpec((0, 0, 0, 0), (w, w, w, w))
        kernel = ProductKernel.from_gaussian(spec)
        K = fourier_product_kernel(kernel, PARAM, g)
        errs.append(abs(complex(g.inner(g.h * K @ phi.astype(complex), psi)) / kernel.l1_norm()
                        - ip))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 5e-3


def test_fourier_linearity():
    g = SpectralGrid(8.0, 384)
    k1 = GaussianKernelSpec((0, 0, 0, 0), (0.7, 1.0, 0.9, 0.8))
    k2 = GaussianKernelSpec((0.2, 0, -0.1, 0), (0.9, 0.8, 1.1, 0.7))
    K1 = fourier_product_kernel(ProductKernel.from_gaussian(k1), PARAM, g)
    f1 = ProductKernel.from_gaussian(k1).factors
    f2 = ProductKernel.from_gaussian(k2).factors
    # product kernels are not additive coordinate-wise; verify linearity on
    # a genuine sum, the two Gaussian terms, in the first slot only
    mixed = ProductKernel((Factor1D(f1[0].terms + f2[0].terms),) + f1[1:])
    single = ProductKernel((f2[0],) + f1[1:])
    Kmix = fourier_product_kernel(mixed, PARAM, g)
    Ksingle = fourier_product_kernel(single, PARAM, g)
    assert np.max(np.abs(Kmix - (K1 + Ksingle))) <= 1e-10 * np.max(np.abs(K1))


# -- Plancherel calibration -------------------------------------------------------


DEFAULT_KERNELS = [
    GaussianKernelSpec((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
    GaussianKernelSpec((0.3, -0.2, 0.1, 0.0), (0.7, 1.3, 0.8, 0.6)),
    GaussianKernelSpec((0.0, 0.4, -0.3, 0.2), (1.2, 0.9, 1.1, 1.4)),
]

# c estimates of the default kernels with closed-form transforms, beta over
# the whole line and the erfc delta fraction, and the per-kernel boxes 0.7 * 8/w4
PINNED = {
    1.0: dict(c=[0.004031441804149939, 0.004031441804149938, 0.004031441804149939],
              delta_max=[5.6, 9.333333333333334, 4.0]),
    2.0: dict(c=[0.004031441804149939, 0.004031441804149938, 0.004031441804149938],
              delta_max=[11.2, 18.666666666666668, 8.0]),
}


def _assert_pinned(rep, box_scale):
    pinned = PINNED[box_scale]
    assert rep.c_estimates == pytest.approx(pinned["c"], rel=1e-12, abs=0)
    # each kernel reports its own box; kernel 2 (w4 = 0.6) reaches furthest
    assert [k["box"] for k in rep.kernels] == [dict(delta_max=d) for d in pinned["delta_max"]]
    assert rep.tail_estimate == max(k["tail"] for k in rep.kernels)


def test_plancherel_constancy_and_tails():
    rep = plancherel_calibrate(DEFAULT_KERNELS)
    assert rep.relative_spread <= 0.01
    _assert_pinned(rep, 1.0)


def test_plancherel_doubled_box_pinned():
    _assert_pinned(plancherel_calibrate(DEFAULT_KERNELS, box_scale=2.0), 2.0)


@pytest.mark.parametrize("box_scale", [1.0, 2.0])
def test_plancherel_matches_parseval_constant(box_scale):
    # with |d| d(delta) d(beta) on the generic dual, Parseval holds with the
    # exact constant (2 pi)^{-3}; every estimate must sit within 2e-15 of it
    # (worst measured 4.4e-16, at both box scales: a margin of ~4.5x)
    exact = 1.0 / (8.0 * np.pi**3)
    rep = plancherel_calibrate(DEFAULT_KERNELS, box_scale=box_scale)
    assert all(abs(c / exact - 1.0) <= 2e-15 for c in rep.c_estimates)


@pytest.mark.parametrize("delta, L, N, n_beta", [
    (0.5, 12.0, 257, 241), (1.0, 10.0, 257, 281), (2.0, 8.0, 193, 321),
])
def test_hs_mass_matches_beta_quadrature_of_fourier_kernel(delta, L, N, n_beta):
    # oracle for the exact-beta reduction: |delta| int ||F kappa(pi)||_HS^2
    # d beta by the trapezoid rule over HS norms of the operator kernel,
    # against _hs_mass_box's base |f4^(delta)|^2, read off its two-node
    # rule on [0, delta].  The beta range holds every shift delta xi^2 / 2
    # of the grid plus 30 on each side; the box L keeps |f3^| below ~1e-10.
    # Measured 3.0e-11, 4.4e-16 and 2.2e-16 apart; the bound leaves ~10x.
    spec = DEFAULT_KERNELS[1]
    kernel = ProductKernel.from_gaussian(spec)
    grid = SpectralGrid(L, N)
    betas = np.linspace(-0.5 * delta * L**2 - 30.0, 30.0, n_beta)
    hs = [np.sum(np.abs(fourier_product_kernel(kernel, Generic(delta, b), grid)) ** 2)
          for b in betas]
    quadrature = delta * grid.h**2 * np.trapezoid(hs, betas)
    f4sq = np.abs(kernel.factors[3].transform(np.array([0.0, delta]))) ** 2
    reduced = (fourier._hs_mass_box(spec.widths, np.array([0.0, delta]))
               / (delta * f4sq.sum()) * f4sq[1])
    assert abs(quadrature / reduced - 1.0) <= 3e-10


@pytest.mark.parametrize("box_scale, message", [
    (0.4, "uncompensated tail 0.15%"),  # delta_max = 0.4 * 0.7 * 8/w4
    (0.0, "uncompensated tail 100.00%"),  # delta_max = 0, no delta node past 0
])
def test_plancherel_refuses_undersized_box(box_scale, message):
    with pytest.raises(QuadratureBoxError, match=message):
        plancherel_calibrate(DEFAULT_KERNELS, box_scale=box_scale)


def test_plancherel_ignores_kernel_centers():
    # every factor norm is translation invariant, so kernels that differ
    # only in their centers give bitwise the same estimate
    widths = (0.7, 1.3, 0.8, 0.6)
    rep = plancherel_calibrate([GaussianKernelSpec((0, 0, 0, 0), widths),
                                GaussianKernelSpec((0.3, -0.2, 0.1, 0), widths)])
    assert rep.c_estimates[0] == rep.c_estimates[1]
    assert rep.relative_spread == 0.0


def test_plancherel_dilation_invariance():
    k0 = GaussianKernelSpec((0.1, 0.0, -0.1, 0.0), (0.9, 1.1, 1.0, 0.8))
    rep = plancherel_calibrate([k0, dilated(k0, 1.3)])
    assert rep.relative_spread <= 0.01


def test_plancherel_requires_two_kernels():
    with pytest.raises(ValueError):
        plancherel_calibrate([GaussianKernelSpec((0, 0, 0, 0), (1, 1, 1, 1))])


@pytest.mark.parametrize("centers, widths", [
    ((0, 0, 0), (1, 1, 1, 1)),
    ((0, 0, 0, 0), (1, 1, 1, 1, 1)),
    ((0, 0, float("nan"), 0), (1, 1, 1, 1)),
    ((0, 0, 0, 0), (1, 1, float("inf"), 1)),
    ((0, 0, 0, 0), (1, 0, 1, 1)),
])
def test_gaussian_kernel_needs_four_finite_centers_and_widths(centers, widths):
    with pytest.raises(ValueError, match="4 finite centers and 4 finite positive widths"):
        GaussianKernelSpec(centers, widths)


# -- difference operators ----------------------------------------------------------


def test_delta1_identity():
    spec = GaussianKernelSpec((0.0, 0.0, 0.0, 0.0), (0.8, 1.0, 0.9, 0.7))
    _, relative = difference_op_check(spec, 1, 1.0, 0.3)
    assert relative <= 1e-5


def test_delta2_identity():
    spec = GaussianKernelSpec((0.1, -0.2, 0.0, 0.3), (0.9, 1.1, 0.8, 0.6))
    _, relative = difference_op_check(spec, 2, 1.3, -0.4)
    assert relative <= 1e-4


def test_difference_op_index_validation():
    spec = GaussianKernelSpec((0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        difference_op_check(spec, 3, 1.0, 0.0)

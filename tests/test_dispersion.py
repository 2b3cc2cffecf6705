"""Critical points, cones, curvature consistency, Strichartz arithmetic."""

import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from grid_reference import Montgomery, cone_deviations, eigenvalues_extrapolated
from hermite_reference import branch_by_spectral_sum, parity_block
from scipy.linalg import eig_banded
from scipy.linalg.lapack import dsbevx

from engellab import dispersion, spectral
from engellab.dispersion import (
    ALLOWED,
    NOT_ADMISSIBLE,
    OBSTRUCTED,
    critical_points,
    montgomery_branch,
    strichartz_admissible,
)
from engellab.spectral import (
    ConfinementError,
    box_grid,
    real_cbrt,
    spectral_data,
)

# frozen by the dense-scan + Richardson grid-refinement oracle (N = 16384)
NU_CRIT_1 = -0.3467583952
MU_AT_CRIT_1 = 0.5698203191
CURV_CRIT_1 = 1.5761268


def test_unique_minimum_for_ground_branch():
    reports = critical_points(1)
    assert len(reports) == 1
    r = reports[0]
    assert r.certificate == 1
    assert r.curvature > 0
    assert r.kind == "minimum"


def test_frozen_values_regression():
    r = critical_points(1, scan=(-1.0, 0.5))[0]
    assert r.nu_c == pytest.approx(NU_CRIT_1, abs=1e-5)
    assert r.mu_at_c == pytest.approx(MU_AT_CRIT_1, abs=1e-5)
    assert r.curvature == pytest.approx(CURV_CRIT_1, abs=1e-5)


def test_frozen_values_against_the_hermite_oracle():
    # the frozen values come from finite differences; the Hermite basis shares
    # no discretization with them.  Measured gaps: 8.6e-9 in nu_c, 1.7e-9 in
    # mu and 9.3e-8 in the curvature, which is frozen to 8 digits; bound at ~2x
    r = critical_points(1, scan=(-1.0, 0.5))[0]
    assert abs(r.nu_c - NU_CRIT_1) <= 2e-8
    assert abs(r.mu_at_c - MU_AT_CRIT_1) <= 4e-9
    assert abs(r.curvature - CURV_CRIT_1) <= 2e-7


def test_report_root_quality_and_grid_stability():
    # the root does not depend on the scan grid that brackets it, and the
    # finite-difference derivative vanishes there to its O(h^2) bias
    r1 = critical_points(1, scan=(-1.0, 0.5))[0]
    r2 = critical_points(1)[0]
    assert abs(r1.nu_c - r2.nu_c) <= 1e-10
    assert r1.bracket[0] <= r1.nu_c <= r1.bracket[1]
    assert abs(spectral_data(1.0, r1.nu_c, 1, N=4096).mu_d1) <= 1e-6


def test_scan_without_critical_point_is_empty():
    with pytest.warns(UserWarning, match="widen the scan"):
        assert critical_points(1, scan=(1.0, 3.0)) == []


def _solved_samples(monkeypatch, *args, **kwargs):
    """critical_points(*args, **kwargs) and the nus of its batched scan call."""
    calls: list[list[float]] = []
    real = dispersion._branch_rows

    def recording(n, nus):
        calls.append(list(nus))
        return real(n, nus)

    monkeypatch.setattr(dispersion, "_branch_rows", recording)
    reports = critical_points(*args, **kwargs)
    monkeypatch.undo()
    return reports, calls[0]


def test_branch_derivative_is_positive_at_nonnegative_nu():
    # mu' = 2 nu + s^2 <phi, xi^2 phi> with xi^2 positive definite: the
    # identity that lets the scan stop at its first sample with nu >= 0.
    # Measured 0.575 at worst (n = 1, nu = 0)
    for n in range(1, 13):
        for nu in (0.0, 0.05, 1.0, 4.0, 40.0, 100.0):
            assert montgomery_branch(n, nu)[1] > 0.0, (n, nu)


def test_scan_keeps_its_first_nonnegative_sample(monkeypatch):
    # the window's 161 samples are -0.4, 0.1, 0.6, ..., 79.6: the root
    # -0.3468 lies between the last negative sample and the kept 0.1, which
    # the scan still solves; it is the default scan's root, measured
    # 1.1e-16 apart
    reports, solved = _solved_samples(monkeypatch, 1, scan=(-0.4, 79.6))
    assert solved == pytest.approx([-0.4, 0.1], abs=1e-15)
    [r] = reports
    assert r.bracket == (-0.4, solved[1]) and r.certificate == 1
    assert abs(r.nu_c - (-0.34675840375)) <= 1e-12


def test_scan_at_nonnegative_nu_solves_one_sample(monkeypatch):
    # mu' > 0 on the whole window, so only its first sample is solved
    with pytest.warns(UserWarning, match="widen the scan"):
        reports, solved = _solved_samples(monkeypatch, 2, scan=(0.0, 3.0))
    assert reports == [] and solved == [0.0]


def test_report_json_round_trip():
    r = critical_points(1, scan=(-1.0, 0.5))[0]
    text = json.dumps(asdict(r), sort_keys=True)
    payload = json.loads(text)
    assert payload["n"] == 1 and payload["certificate"] == 1
    # every field survives; the bracket tuple comes back as a list
    assert payload == {**asdict(r), "bracket": list(r.bracket)}
    assert 0.0 < payload["scan_margin"] < 0.1
    # diagnostics are deterministic
    again = critical_points(1, scan=(-1.0, 0.5))[0]
    assert json.dumps(asdict(again), sort_keys=True) == text


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificate_and_root_match_full_grid_oracle(n, monkeypatch):
    # the oracle counts the sign changes of mu' over the same samples and
    # bisects each bracket to 1e-12
    samples, (lo, hi) = 161, dispersion.SCAN_WINDOW
    nus = np.linspace(lo, hi, samples)
    d1 = [montgomery_branch(n, v)[1] for v in nus]
    changes = [k for k in range(samples - 1) if d1[k] == 0.0 or d1[k] * d1[k + 1] < 0.0]

    calls: list[float] = []
    real = dispersion._branch_rows

    def counting(n, nus):
        calls.extend(nus)
        return real(n, nus)

    monkeypatch.setattr(dispersion, "_branch_rows", counting)
    reports = critical_points(n)
    monkeypatch.undo()

    assert len(reports) == len(changes) >= 1
    # the scan samples through the first nu >= 0 (mu' > 0 beyond it), then
    # the Newton points, none at a bracket end again
    solved = int(np.searchsorted(nus, 0.0)) + 1
    assert calls[:solved] == list(nus[:solved])
    newton = len(calls) - solved
    assert len(reports) <= newton <= 6 * len(reports)
    assert not set(calls[solved:]) & set(nus)
    for r, k in zip(reports, changes):
        assert r.certificate == len(changes)
        assert r.bracket == (nus[k], nus[k + 1])
        a, b = r.bracket
        assert a <= r.nu_c <= b
        fa = d1[k]
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            fm = montgomery_branch(n, m)[1]
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        assert abs(r.nu_c - 0.5 * (a + b)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_curvature_is_the_last_newton_solve_fh_second_derivative(n):
    # the report's mu and curvature are those of the branch solved at the
    # reported nu_c, so montgomery_branch reproduces them exactly; the
    # derivative of a degree-10 Chebyshev fit of mu' at 41 Chebyshev nodes
    # on nu_c +- 0.1 is an independent route to the curvature.  The fit
    # averages out the rounding of mu', which makes a Richardson difference
    # at step 1e-3 scatter by up to 4.6e-12 as the basis size changes.
    # Measured 6.7e-16 to 3.5e-13 over n = 1..4 (at most 3.5e-13 with 23 to
    # 60 in place of _BASIS_MIN over n = 1..3); bound at ~3x
    reports = critical_points(n)
    assert reports
    for r in reports:
        mu, _, curvature = montgomery_branch(n, r.nu_c)
        assert (r.mu_at_c, r.curvature) == (mu, curvature)
        nus = r.nu_c + 0.1 * np.cos(np.pi * (np.arange(41) + 0.5) / 41)
        fit = np.polynomial.Chebyshev.fit(nus, [montgomery_branch(n, v)[1] for v in nus], 10)
        assert abs(r.curvature - fit.deriv()(r.nu_c)) <= 1e-12
        assert r.kind == ("minimum" if r.curvature > 0 else "maximum")


def test_tolerance_below_rounding_stops_at_the_root(monkeypatch):
    # Newton steps fall below the ulp of nu_c long before 1e-300: the
    # refinement stops once a step no longer moves the point
    default = critical_points(1, scan=(-1.0, 0.5))[0]
    monkeypatch.setattr(dispersion, "_ROOT_TOL", 1e-300)
    tiny = critical_points(1, scan=(-1.0, 0.5))[0]
    assert abs(tiny.nu_c - default.nu_c) <= 1e-10


# -- montgomery_branch ----------------------------------------------------------


def test_montgomery_branch_matches_fd_richardson():
    # finite differences at N = 8192 and 16383 nodes, Richardson-combined:
    # mu from eigenvalues_extrapolated, mu' and mu'' from the FH derivatives
    # of spectral_data.  Measured worst gaps over these 16 points: 6.8e-12
    # in mu, 9.3e-12 in mu' and 1.8e-10 in mu'', the O(h^4) remainder of the
    # finite differences; bound at ~3x
    worst = np.zeros(3)
    for nu in (-4.0, -1.0, 2.0, 4.0):
        mus = eigenvalues_extrapolated(Montgomery(nu), 4, N=8192)
        for n in (1, 2, 3, 4):
            grid = box_grid(Montgomery(nu), n + 1, 8192)
            coarse = spectral_data(1.0, nu, n, grid=grid)
            fine = spectral_data(1.0, nu, n, grid=grid.refined())
            fd = (mus[n - 1], (4.0 * fine.mu_d1 - coarse.mu_d1) / 3.0,
                  (4.0 * fine.mu_d2 - coarse.mu_d2) / 3.0)
            worst = np.maximum(worst, np.abs(np.subtract(montgomery_branch(n, nu), fd)))
    assert worst[0] <= 2e-11
    assert worst[1] <= 3e-11
    assert worst[2] <= 6e-10


def test_montgomery_branch_converges_in_basis_size(monkeypatch):
    # 200 + 2n + 2 max(0, -nu) functions instead of 24 + 2n + ...: measured
    # 1.0e-12 of max(1, |value|) at worst over these points; bound at ~10x
    points = [(n, nu) for n in (1, 2, 3, 4, 8, 12)
              for nu in (-40.0, -12.0, -1.0, 0.0, 4.0, 40.0, 100.0)]
    rule = [montgomery_branch(n, nu) for n, nu in points]
    monkeypatch.setattr(dispersion, "_BASIS_MIN", 200)
    for (n, nu), small in zip(points, rule):
        big = montgomery_branch(n, nu)
        for a, b in zip(small, big):
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b)), (n, nu)
    # a basis too small for the level fails its own certificate
    monkeypatch.setattr(dispersion, "_BASIS_MIN", 2)
    with pytest.raises(ConfinementError, match="Hermite functions give"):
        montgomery_branch(1, 0.0)


def test_branch_matches_the_complete_feynman_hellmann_sum():
    # one eigenpair and one reduced-resolvent solve against every eigenpair
    # of the block and mu'' as the sum over the other modes, at the samples
    # of the default scan: measured 1.8e-14 of max(1, |value|) at worst
    for n in (1, 2, 3, 4):
        for nu in np.linspace(-4.0, 4.0, 161):
            got, ref = np.array(montgomery_branch(n, nu)), np.array(branch_by_spectral_sum(n, nu))
            assert np.all(np.abs(got - ref) <= 3e-14 * np.maximum(1.0, np.abs(ref))), (n, nu)


def _branch_or_none(branch, n, nu):
    try:
        return np.array(branch(n, nu))
    except ConfinementError:
        return None


@pytest.mark.parametrize("basis_min", [dispersion._BASIS_MIN, 4])
def test_branch_refuses_where_the_spectral_sum_does(basis_min, monkeypatch):
    # every third n of 1..30 and every fifth nu of [-40, 100]: at the rule's
    # size neither route refuses a point and they agree to 4.0e-12 of
    # max(1, |value|) (7.0e-12 over all 4 230 points at unit steps), bound at
    # ~3x; with 4 in place of _BASIS_MIN the certificate refuses 31 of these
    # points, the same ones for both routes
    monkeypatch.setattr(dispersion, "_BASIS_MIN", basis_min)
    refused = []
    for n in range(1, 31, 3):
        for nu in range(-40, 101, 5):
            got = _branch_or_none(montgomery_branch, n, float(nu))
            ref = _branch_or_none(branch_by_spectral_sum, n, float(nu))
            assert (got is None) == (ref is None), (n, nu)
            if got is None:
                refused.append((n, nu))
            else:
                assert np.all(np.abs(got - ref) <= 1.2e-11 * np.maximum(1.0, np.abs(ref)))
    assert (len(refused) > 0) == (basis_min == 4)


def test_branch_solves_the_eigenvalue_of_its_index():
    # mu - nu^2 is eigenvalue (n - 1) // 2 of the dense parity block at the
    # certificate's size, where the tunnelling pairs at nu = -40 sit in the
    # two blocks: measured 9.0e-15 relative at worst
    for n in range(1, 9):
        for nu in (-40.0, -20.0, 0.0, 50.0):
            m = dispersion._basis_size(n, nu) + dispersion._BASIS_STEP
            ev = np.linalg.eigvalsh(parity_block(n, nu, m))[(n - 1) // 2]
            assert abs(montgomery_branch(n, nu)[0] - nu * nu - ev) <= 1e-13 * abs(ev), (n, nu)


def test_branch_eigenpair_is_eig_bandeds_to_the_bit(monkeypatch):
    # montgomery_branch calls LAPACK dsbevx with eig_banded's own arguments,
    # so each certificate solve returns eig_banded(select="i")'s eigenpair
    calls = []

    def checked(ab, vl, vu, il, iu, **kwargs):
        out = dsbevx(ab, vl, vu, il, iu, **kwargs)
        w, v = eig_banded(ab, lower=True, select="i", select_range=(il - 1, iu - 1))
        assert np.array_equal(out[0][:1], w) and np.array_equal(out[1], v)
        calls.append(il)
        return out

    monkeypatch.setattr(dispersion, "dsbevx", checked)
    for n, nu in ((1, -3.5), (1, 0.3), (2, -40.0), (3, -2.0), (4, 3.0), (7, 50.0)):
        montgomery_branch(n, nu)
    assert calls == [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4]


def test_singular_reduced_resolvent_is_refused(monkeypatch):
    # a singular LU would pass NaN through the certificate; it raises instead
    monkeypatch.setattr(spectral, "dgbsv", lambda *a, **k: (None, None, a[3], 1))
    with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
        montgomery_branch(1, 0.0)


@pytest.mark.parametrize("n", [19, 21, 22])
def test_high_modes_certified_in_the_double_well(n):
    # a size rule growing by n alone refused these modes on parts of
    # [-40, -22]: each well holds about n/2 nodes of mode n
    for nu in range(-40, -21):
        mu, d1, d2 = montgomery_branch(n, float(nu))
        assert 0.0 < mu and d1 < 0.0


@pytest.mark.parametrize("n, scan", [(8, (-4.0, 4.0)), (12, (-4.0, 4.0)),
                                     (1, (-12.0, 12.0)), (4, (-12.0, 12.0)),
                                     (1, (-40.0, 4.0)), (1, (-4.0, 40.0))])
def test_critical_points_certified_over_wide_scans(n, scan):
    # each of these branches has one critical point, a minimum, and the
    # wide scans find the root of the default scan again
    reports = critical_points(n, scan=scan)
    assert [r.kind for r in reports] == ["minimum"]
    assert abs(reports[0].nu_c - critical_points(n)[0].nu_c) <= 1e-10


def test_montgomery_branch_far_from_the_critical_points():
    # the tunnelling double well at nu = -40 and the harmonic regime at
    # nu = 100, where mu ~ nu^2 + sqrt(nu) (2 n - 1) and mu'' -> 2
    for n in (1, 2, 3, 4):
        mu, d1, d2 = montgomery_branch(n, -40.0)
        assert 0.0 < mu < 40.0 and d1 < 0.0
        mu, d1, d2 = montgomery_branch(n, 100.0)
        assert abs(mu - (1e4 + 10.0 * (2 * n - 1))) <= 1.0
        assert abs(d1 - 200.0) <= 1.0 and abs(d2 - 2.0) <= 0.01
    # the tunnelling splitting of the n = 1, 2 pair is exponentially small:
    # measured 1.1e-12, at rounding level
    assert abs(montgomery_branch(2, -40.0)[0] - montgomery_branch(1, -40.0)[0]) <= 1e-9


def test_a_non_integral_mode_index_is_refused_by_name():
    # a float n was a TypeError from a slice deep in the branch solve
    for call in (lambda n: montgomery_branch(n, 0.0), critical_points):
        for n in (2.0, 1.5):
            with pytest.raises(ValueError, match=f"mode index n must be an integer, got n = {n}"):
                call(n)
    # a NumPy integer is an integer
    assert montgomery_branch(np.int64(2), 0.0) == montgomery_branch(2, 0.0)
    assert critical_points(np.int64(2))[0].nu_c == critical_points(2)[0].nu_c


def test_montgomery_branch_refusals():
    with pytest.raises(ValueError, match="need n >= 1 and a finite nu, got n = 0"):
        montgomery_branch(0, 0.0)
    for nu in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="need n >= 1 and a finite nu"):
            montgomery_branch(1, nu)
    # the rule would need more than 1024 functions
    with pytest.raises(ConfinementError, match="more than 1024"):
        montgomery_branch(1, -500.0)


# -- one Hermite call over a nu grid ---------------------------------------------

# -6.3 .. 1.2 at step 0.05: ceil(max(-nu, 0)) takes 8 values, so one call
# solves 8 groups of nus that share a basis size
BATCH_GRID = np.arange(-6.3, 1.2 + 0.025, 0.05)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_branch_is_the_one_nu_branch_bit_for_bit(n):
    sizes = [dispersion._basis_size(n, nu) for nu in BATCH_GRID]
    assert len(set(sizes)) == 8
    rows = dispersion._branch_rows(n, BATCH_GRID)
    assert _bits(rows) == _bits([montgomery_branch(n, nu) for nu in BATCH_GRID])
    for nu, size, (values, (w, phi, band)) in zip(BATCH_GRID, sizes,
                                                   dispersion._hermite_branch(n, BATCH_GRID)):
        [(v1, (w1, phi1, band1))] = dispersion._hermite_branch(n, [nu])
        assert _bits(values) == _bits(v1) and _bits(w) == _bits(w1)
        assert _bits(phi) == _bits(phi1) and _bits(band) == _bits(band1)
        assert len(phi) == size + dispersion._BASIS_STEP


def test_branch_returns_phis_block_at_phis_size():
    # band is the block's lower band, entry (r, c) in row r - c, at phi's
    # size, and phi is its eigenvector of eigenvalue w: against the dense
    # block, measured 2.3e-16 of its largest entry and a residual of
    # 3.7e-16 max(1, |w|) at worst; bounds at ~30x
    for n, nu in ((1, -3.5), (2, 0.3), (3, -40.0), (4, 7.0)):
        [(_, (w, phi, band))] = dispersion._hermite_branch(n, [nu])
        m = len(phi)
        dense = parity_block(n, nu, m)
        got = np.zeros((m, m))
        for r in range(m):
            for c in range(max(0, r - 2), r + 1):
                got[r, c] = got[c, r] = band[r - c, c]
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense)), (n, nu)
        assert np.max(np.abs(dense @ phi - w * phi)) <= 1e-14 * max(1.0, abs(w)), (n, nu)


@pytest.mark.parametrize("n, refused, error, basis_min", [
    (1, math.nan, ValueError, None),
    (0, -1.0, ValueError, None),
    (1, -500.0, ConfinementError, None),
    # the certificate at 4 functions in place of _BASIS_MIN refuses
    # nu <= 4 for n = 1 and passes 4.5 and above
    (1, 4.0, ConfinementError, 4),
])
def test_batched_branch_refuses_as_the_one_nu_call(n, refused, error, basis_min, monkeypatch):
    # a grid holding one refused nu raises the one-nu call's error on it
    # (n < 1 refuses every nu, so the first)
    if basis_min is not None:
        monkeypatch.setattr(dispersion, "_BASIS_MIN", basis_min)
    grid = [5.0, 6.0, refused, 4.5] if basis_min else [-1.0, 0.5, refused, 1.0]
    with pytest.raises(error) as one:
        montgomery_branch(n, refused)
    with pytest.raises(error) as batch:
        dispersion._branch_rows(n, grid)
    assert str(batch.value) == str(one.value)


def test_curvature_consistency_across_cone():
    deviations, d1 = cone_deviations(1, NU_CRIT_1, [0.5, 1.0, 2.0, 8.0], N=4096)
    assert max(deviations.values()) <= 1e-3
    assert max(abs(v) for v in d1.values()) <= 1e-5
    # delta = 1 is the identity rescaling: the deviation is the O(h^2) bias
    # of the N = 4096 grid against the Hermite reference, 6.7e-7
    assert deviations[1.0] <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_critical_point_curvature_is_the_branch_at_nu_c(n):
    # smicro-profile checks the on-cone curvature against the certified
    # critical point's, with no solve of its own: that curvature is
    # montgomery_branch's at nu_c to the bit
    r = critical_points(n)[0]
    assert r.curvature == montgomery_branch(n, r.nu_c)[2]


def test_cone_dilation_invariance():
    # the dilation (delta, beta) -> (r^3 delta, r beta) keeps each cone
    # beta = nu0 delta^{1/3}: the real cube root is homogeneous
    for delta in (0.3, 1.0, 5.0):
        for r in (0.5, 2.0, 3.7):
            beta = r * real_cbrt(delta)
            assert abs(real_cbrt(r**3 * delta) - beta) <= 1e-12 * max(1.0, abs(beta))


# -- Strichartz arithmetic -----------------------------------------------------


def test_allowed_pairs():
    assert strichartz_admissible(math.inf, 2) == ALLOWED
    assert strichartz_admissible("inf", 2) == ALLOWED
    assert strichartz_admissible(2, Fraction(14, 5)) == ALLOWED
    assert strichartz_admissible(2, 2.8) == ALLOWED


def test_obstructed_on_line():
    # 2/4 + 7/(7/3) = 1/2 + 3 = 7/2 holds, but the pair is excluded
    assert strichartz_admissible(4, Fraction(7, 3)) == OBSTRUCTED
    assert strichartz_admissible(Fraction(8), Fraction(28, 13)) == OBSTRUCTED


def test_off_line_not_admissible():
    assert strichartz_admissible(3, 3) == NOT_ADMISSIBLE
    assert strichartz_admissible(math.inf, 4) == NOT_ADMISSIBLE


def test_exponent_range_enforced():
    with pytest.raises(ValueError):
        strichartz_admissible(1.5, 2)
    with pytest.raises(ValueError):
        strichartz_admissible(2, 1)

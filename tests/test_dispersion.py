"""Critical points, cones, curvature consistency, Strichartz arithmetic."""

import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from engellab import dispersion, spectral
from engellab.dispersion import (
    ALLOWED,
    NOT_ADMISSIBLE,
    OBSTRUCTED,
    ConeSection,
    critical_points,
    curvature_consistency,
    montgomery_branch,
    strichartz_admissible,
)
from engellab.spectral import (
    ConfinementError,
    Montgomery,
    box_grid,
    eigenvalues_extrapolated,
    spectral_data,
)

# frozen by the dense-scan + Richardson grid-refinement oracle (N = 16384)
NU_CRIT_1 = -0.3467583952
MU_AT_CRIT_1 = 0.5698203191
CURV_CRIT_1 = 1.5761268


def test_unique_minimum_for_ground_branch():
    reports = critical_points(1, scan=(-4.0, 4.0), samples=81)
    assert len(reports) == 1
    r = reports[0]
    assert r.certificate == 1
    assert r.curvature > 0
    assert r.kind == "minimum"


def test_frozen_values_regression():
    r = critical_points(1, scan=(-1.0, 0.5), samples=41)[0]
    assert r.nu_c == pytest.approx(NU_CRIT_1, abs=1e-5)
    assert r.mu_at_c == pytest.approx(MU_AT_CRIT_1, abs=1e-5)
    assert r.curvature == pytest.approx(CURV_CRIT_1, abs=1e-5)


def test_frozen_values_against_the_hermite_oracle():
    # the frozen values come from finite differences; the Hermite basis shares
    # no discretization with them.  Measured gaps: 8.6e-9 in nu_c, 1.7e-9 in
    # mu and 9.3e-8 in the curvature, which is frozen to 8 digits; bound at ~2x
    r = critical_points(1, scan=(-1.0, 0.5), samples=41)[0]
    assert abs(r.nu_c - NU_CRIT_1) <= 2e-8
    assert abs(r.mu_at_c - MU_AT_CRIT_1) <= 4e-9
    assert abs(r.curvature - CURV_CRIT_1) <= 2e-7


def test_report_root_quality_and_grid_stability():
    # the root does not depend on the scan grid that brackets it, and the
    # finite-difference derivative vanishes there to its O(h^2) bias
    r1 = critical_points(1, scan=(-1.0, 0.5), samples=41)[0]
    r2 = critical_points(1, scan=(-4.0, 4.0), samples=81)[0]
    assert abs(r1.nu_c - r2.nu_c) <= 1e-10
    assert r1.bracket[0] <= r1.nu_c <= r1.bracket[1]
    assert abs(spectral_data(1.0, r1.nu_c, 1, N=4096).mu_d1) <= 1e-6


def test_scan_without_critical_point_is_empty():
    with pytest.warns(UserWarning, match="widen the scan"):
        assert critical_points(1, scan=(1.0, 3.0), samples=21) == []


def test_report_json_round_trip():
    r = critical_points(1, scan=(-1.0, 0.5), samples=21)[0]
    text = json.dumps(asdict(r), sort_keys=True)
    payload = json.loads(text)
    assert payload["n"] == 1 and payload["certificate"] == 1
    # every field survives; the bracket tuple comes back as a list
    assert payload == {**asdict(r), "bracket": list(r.bracket)}
    assert 0.0 < payload["scan_margin"] < 0.1
    # diagnostics are deterministic
    again = critical_points(1, scan=(-1.0, 0.5), samples=21)[0]
    assert json.dumps(asdict(again), sort_keys=True) == text


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificate_and_root_match_full_grid_oracle(n, monkeypatch):
    # the oracle counts the sign changes of mu' over the same samples and
    # bisects each bracket to 1e-12
    samples, lo, hi = 81, -4.0, 4.0
    nus = np.linspace(lo, hi, samples)
    d1 = [montgomery_branch(n, v)[1] for v in nus]
    changes = [k for k in range(samples - 1) if d1[k] == 0.0 or d1[k] * d1[k + 1] < 0.0]

    calls: list[float] = []

    def counting(n, nu):
        calls.append(nu)
        return montgomery_branch(n, nu)

    monkeypatch.setattr(dispersion, "montgomery_branch", counting)
    reports = critical_points(n, scan=(lo, hi), samples=samples)
    monkeypatch.undo()

    assert len(reports) == len(changes) >= 1
    # the scan samples, then the Newton points, none at a bracket end again
    newton = len(calls) - samples
    assert len(reports) <= newton <= 6 * len(reports)
    assert not set(calls[samples:]) & set(nus)
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_is_the_last_newton_solve_fh_second_derivative(n):
    # the report's curvature is the complete Feynman-Hellmann sum at the last
    # Newton point; a Richardson central difference of mu' is an independent
    # route to it.  Measured 5.5e-14 to 2.6e-13 over n = 1..3; bound at ~4x
    s = 1e-3

    def diff(nu, step):
        return (montgomery_branch(n, nu + step)[1]
                - montgomery_branch(n, nu - step)[1]) / (2 * step)

    reports = critical_points(n)
    assert reports
    for r in reports:
        richardson = (4.0 * diff(r.nu_c, 0.5 * s) - diff(r.nu_c, s)) / 3.0
        assert abs(r.curvature - richardson) <= 1e-12
        assert r.kind == ("minimum" if r.curvature > 0 else "maximum")


def test_tolerance_below_rounding_stops_at_the_root():
    # Newton steps fall below the ulp of nu_c long before 1e-300: the
    # refinement stops once a step no longer moves the point
    default = critical_points(1, scan=(-1.0, 0.5), samples=21)[0]
    tiny = critical_points(1, scan=(-1.0, 0.5), samples=21, tol=1e-300)[0]
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
    # 200 + n + 2 max(0, -nu) functions instead of 24 + n + ...: measured
    # 2.4e-12 of max(1, |value|) at worst over these points; bound at ~4x
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


@pytest.mark.parametrize("n, scan", [(8, (-4.0, 4.0)), (12, (-4.0, 4.0)),
                                     (1, (-12.0, 12.0)), (4, (-12.0, 12.0)),
                                     (1, (-40.0, 4.0)), (1, (-4.0, 40.0))])
def test_critical_points_certified_over_wide_scans(n, scan):
    # each of these branches has one critical point, a minimum, and the
    # wide scans find the root of the default scan again
    reports = critical_points(n, scan=scan)
    assert [r.kind for r in reports] == ["minimum"]
    assert abs(reports[0].nu_c - critical_points(n, samples=81)[0].nu_c) <= 1e-10


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


def test_montgomery_branch_refusals():
    with pytest.raises(ValueError, match="need n >= 1 and a finite nu, got n = 0"):
        montgomery_branch(0, 0.0)
    for nu in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="need n >= 1 and a finite nu"):
            montgomery_branch(1, nu)
    # the rule would need more than 1024 functions
    with pytest.raises(ConfinementError, match="more than 1024"):
        montgomery_branch(1, -500.0)


def test_curvature_consistency_across_cone():
    cc = curvature_consistency(1, NU_CRIT_1, [0.5, 1.0, 2.0, 8.0], N=4096)
    assert cc.max_deviation <= 1e-3
    assert cc.max_on_cone_d1 <= 1e-5
    # delta = 1 is the identity rescaling: the deviation is the O(h^2) bias
    # of the N = 4096 grid against the Hermite reference, 6.7e-7
    assert cc.deviations[1.0] <= 1e-6


def test_cone_dilation_invariance():
    cone = ConeSection(nu0=NU_CRIT_1)
    for delta in (0.3, 1.0, 5.0):
        beta = cone.beta(delta)
        for r in (0.5, 2.0, 3.7):
            assert cone.contains(r**3 * delta, r * beta, tol=1e-12)


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

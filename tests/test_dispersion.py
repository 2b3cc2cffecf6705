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
    ScanBracketError,
    branch_curvature,
    critical_points,
    curvature_consistency,
    strichartz_admissible,
)
from engellab.spectral import Montgomery, box_grid, mu_beta_derivative

# frozen by the dense-scan + Richardson grid-refinement oracle (N = 16384)
NU_CRIT_1 = -0.3467583952
MU_AT_CRIT_1 = 0.5698203191
CURV_CRIT_1 = 1.5761268


def test_unique_minimum_for_ground_branch():
    reports = critical_points(1, scan=(-4.0, 4.0), N=4096, samples=81)
    assert len(reports) == 1
    r = reports[0]
    assert r.certificate == 1
    assert r.curvature > 0
    assert r.kind == "minimum"


def test_frozen_values_regression():
    r = critical_points(1, scan=(-1.0, 0.5), N=8192, samples=41)[0]
    assert r.nu_c == pytest.approx(NU_CRIT_1, abs=1e-5)
    assert r.mu_at_c == pytest.approx(MU_AT_CRIT_1, abs=1e-5)
    assert r.curvature == pytest.approx(CURV_CRIT_1, abs=1e-5)


def test_report_root_quality_and_grid_stability():
    r1 = critical_points(1, scan=(-1.0, 0.5), N=4096, samples=41)[0]
    r2 = critical_points(1, scan=(-1.0, 0.5), N=8192, samples=41)[0]
    assert abs(r1.nu_c - r2.nu_c) <= 1e-4
    assert r1.bracket[0] <= r1.nu_c <= r1.bracket[1]
    assert abs(mu_beta_derivative(1.0, r1.nu_c, 1, N=4096)) <= 1e-6


def test_scan_without_critical_point_is_empty():
    with pytest.warns(UserWarning, match="widen the scan"):
        assert critical_points(1, scan=(1.0, 3.0), N=2048, samples=21) == []


def test_report_json_round_trip():
    r = critical_points(1, scan=(-1.0, 0.5), N=2048, samples=21)[0]
    text = json.dumps(asdict(r), sort_keys=True)
    payload = json.loads(text)
    assert payload["n"] == 1 and payload["certificate"] == 1
    # every field survives; the bracket tuple comes back as a list
    assert payload == {**asdict(r), "bracket": list(r.bracket)}
    assert payload["scan_grid_n"] == 2047 // 8 + 1
    assert 0.0 < payload["scan_margin"] < 0.1
    # diagnostics are deterministic
    again = critical_points(1, scan=(-1.0, 0.5), N=2048, samples=21)[0]
    assert json.dumps(asdict(again), sort_keys=True) == text


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificate_and_root_match_full_grid_oracle(n, monkeypatch):
    N, samples, lo, hi = 4096, 81, -4.0, 4.0
    grid = box_grid([Montgomery(lo), Montgomery(hi)], n, N)
    nus = np.linspace(lo, hi, samples)
    d1 = [mu_beta_derivative(1.0, v, n, grid=grid) for v in nus]
    changes = [k for k in range(samples - 1) if d1[k] == 0.0 or d1[k] * d1[k + 1] < 0.0]

    solves: list[int] = []

    def counting(solve):
        def wrapped(op, k, *args, **kwargs):
            solves.append(op.grid.N)
            return solve(op, k, *args, **kwargs)
        return wrapped

    for name in ("eigen_lowest", "eigen_mode"):
        monkeypatch.setattr(spectral, name, counting(getattr(spectral, name)))
    reports = critical_points(n, scan=(lo, hi), N=N, samples=samples)
    monkeypatch.undo()

    assert len(reports) == len(changes) >= 1
    # two bracket ends and the Newton points, nothing after the last one
    assert len(reports) <= solves.count(N) <= 6 * len(reports)
    for r, k in zip(reports, changes):
        assert r.certificate == len(changes)
        assert r.bracket == (nus[k], nus[k + 1])
        a, b = r.bracket
        assert a <= r.nu_c <= b
        # plain bisection on the full grid
        fa = d1[k]
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            fm = mu_beta_derivative(1.0, m, n, grid=grid)
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        assert abs(r.nu_c - 0.5 * (a + b)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_is_the_last_newton_solve_fh_second_derivative(n):
    # the report's curvature is mu'' by Feynman-Hellmann at the last Newton
    # point; a Richardson central difference of the FH derivative on the same
    # scan box is an independent route to it.  Measured 1.5e-10 to 1.35e-9
    # over n = 1..3, mostly the difference's rounding error; bound at ~4x
    N, lo, hi, s = 8192, -4.0, 4.0, 1e-3
    grid = box_grid([Montgomery(lo), Montgomery(hi)], n, N)

    def diff(nu, step):
        return (mu_beta_derivative(1.0, nu + step, n, grid=grid)
                - mu_beta_derivative(1.0, nu - step, n, grid=grid)) / (2 * step)

    reports = critical_points(n, scan=(lo, hi), N=N)
    assert reports
    for r in reports:
        richardson = (4.0 * diff(r.nu_c, 0.5 * s) - diff(r.nu_c, s)) / 3.0
        assert abs(r.curvature - richardson) <= 5e-9
        assert r.kind == ("minimum" if r.curvature > 0 else "maximum")


def test_tolerance_below_rounding_stops_at_the_root():
    # Newton steps fall below the ulp of nu_c long before 1e-300: the
    # refinement stops once a step no longer moves the point
    default = critical_points(1, scan=(-1.0, 0.5), N=2048, samples=21)[0]
    tiny = critical_points(1, scan=(-1.0, 0.5), N=2048, samples=21, tol=1e-300)[0]
    assert abs(tiny.nu_c - default.nu_c) <= 1e-10


def test_unconfirmed_scan_bracket_raises(monkeypatch):
    N = 2048
    real = dispersion.mu_beta_derivative

    def sign_change_on_coarse_grid_only(delta, beta, n, grid):
        value = real(delta, beta, n, grid=grid)
        return value if grid.N < N else abs(value) + 1.0

    monkeypatch.setattr(dispersion, "mu_beta_derivative", sign_change_on_coarse_grid_only)
    with pytest.raises(ScanBracketError, match="not confirmed"):
        critical_points(1, scan=(-1.0, 0.5), N=N, samples=21)


def test_curvature_consistency_across_cone():
    cc = curvature_consistency(1, NU_CRIT_1, [0.5, 1.0, 2.0, 8.0], N=4096)
    assert cc.max_deviation <= 1e-3
    assert cc.max_on_cone_d1 <= 1e-5
    # delta = 1 is the identity rescaling: deviation at solver tolerance
    assert cc.deviations[1.0] <= 1e-6


def test_cone_dilation_invariance():
    cone = ConeSection(nu0=NU_CRIT_1)
    for delta in (0.3, 1.0, 5.0):
        beta = cone.beta(delta)
        for r in (0.5, 2.0, 3.7):
            assert cone.contains(r**3 * delta, r * beta, tol=1e-12)


def test_branch_curvature_positive_at_minimum():
    assert branch_curvature(1, NU_CRIT_1, N=2048) > 1.0


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

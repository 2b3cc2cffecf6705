"""Critical points, cones, curvature consistency, Strichartz arithmetic."""

import json
import math
from fractions import Fraction

import pytest

from engellab.dispersion import (
    ALLOWED,
    NOT_ADMISSIBLE,
    OBSTRUCTED,
    ConeSection,
    branch_curvature,
    critical_points,
    curvature_consistency,
    strichartz_admissible,
)

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
    from engellab.spectral import mu_beta_derivative

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
    payload = json.loads(r.to_json())
    assert payload["n"] == 1 and payload["certificate"] == 1


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

"""Critical points of the Montgomery dispersion curves, their cones,
and the Strichartz admissibility arithmetic.

The n-th Montgomery branch nu -> mutilde_n(nu) diverges at +-infinity, so
it has critical points; for n = 1 there is exactly one, a non-degenerate
minimum.  Each critical point nu0 generates the dilation-invariant cone
beta = nu0 * delta^{1/3} in the generic dual, on which the transport speed
d_beta mu_n vanishes and the effective second-microlocal dispersion
coefficient is mutilde_n''(nu0)/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .spectral import (
    Montgomery,
    SpectralData,
    SpectralGrid,
    box_grid,
    mu_beta_derivative,
    real_cbrt,
    spectral_data,
)


# ---------------------------------------------------------------------------
# dispersion reports
# ---------------------------------------------------------------------------


class ScanBracketError(RuntimeError):
    """A sign change of the coarse scan that the full grid does not confirm."""


# the sign-change scan runs on (N - 1) // _SCAN_COARSEN + 1 nodes of the box
_SCAN_COARSEN = 8
# central-difference step of `branch_curvature`; Richardson also uses half of it
_CURVATURE_STEP = 1e-3


@dataclass
class DispersionReport:
    """One certified critical point of a Montgomery branch."""

    n: int
    nu_c: float
    mu_at_c: float
    curvature: float
    bracket: tuple[float, float]
    certificate: int  # sign changes of mu' counted over the whole scan
    kind: str  # "minimum" | "maximum"
    scan_grid_n: int  # nodes of the grid the certificate was counted on
    scan_margin: float  # smallest |mu'| over the scan samples


def critical_points(
    n: int,
    scan: tuple[float, float] = (-4.0, 4.0),
    tol: float = 1e-10,
    samples: int = 161,
    N: int = 8192,
) -> list[DispersionReport]:
    """Locate and certify all roots of mutilde_n' inside the scan window.

    One box covers both ends of the scan.  The certificate is the number of
    sign changes of the FH derivative over `samples` points, counted on
    that box with (N - 1) // 8 + 1 nodes; a sample where it is exactly 0
    opens a bracket of its own.  Each bracket is confirmed on the N-node
    grid (`ScanBracketError` if the end values there do not bracket a
    root) and refined on it by Newton steps on the FH derivative with the
    FH second derivative, starting from the secant point: a step that
    leaves the bracket is replaced by its midpoint, and the iteration stops
    once a step is below `tol` (finite and positive, else ValueError) or no
    longer moves the point.  Brackets are disjoint, so each holds one
    reported root.  mu and the curvature are the eigenvalue and FH second
    derivative of the last Newton solve, within `tol` of the root.  Every
    eigensolve here solves mode n alone (`eigen_mode`).
    """
    lo, hi = float(scan[0]), float(scan[1])
    if not hi > lo:
        raise ValueError("empty scan window")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"root tolerance must be finite and positive, got {tol!r}")
    nus = np.linspace(lo, hi, samples)
    # one shared box for the whole scan, covering both of its ends
    grid = box_grid([Montgomery(lo), Montgomery(hi)], n, N)
    coarse = SpectralGrid(grid.L, (N - 1) // _SCAN_COARSEN + 1)
    d1 = np.array([mu_beta_derivative(1.0, v, n, grid=coarse) for v in nus])

    sign_changes = [
        k for k in range(samples - 1) if d1[k] == 0.0 or d1[k] * d1[k + 1] < 0.0
    ]
    certificate = len(sign_changes)
    margin = float(np.min(np.abs(d1)))
    if not sign_changes:
        warnings.warn(
            f"no sign change of the branch derivative on [{lo}, {hi}]; "
            "widen the scan (the branch diverges at +-infinity)",
            stacklevel=2,
        )

    reports = []
    for k in sign_changes:
        bracket = (float(nus[k]), float(nus[k + 1]))
        root, data = _refine_root(*bracket, n, grid, tol)
        reports.append(
            DispersionReport(
                n=n,
                nu_c=root,
                mu_at_c=data.mu,
                curvature=data.mu_d2,
                bracket=bracket,
                certificate=certificate,
                kind="minimum" if data.mu_d2 > 0 else "maximum",
                scan_grid_n=coarse.N,
                scan_margin=margin,
            )
        )
    return reports


def _refine_root(a: float, b: float, n: int, grid: SpectralGrid,
                 tol: float) -> tuple[float, SpectralData]:
    """Root of mutilde_n' in [a, b] on `grid` by safeguarded Newton steps,
    with the spectral data of the last Newton point."""
    fa = mu_beta_derivative(1.0, a, n, grid=grid)
    fb = mu_beta_derivative(1.0, b, n, grid=grid)
    if fa * fb > 0.0:
        raise ScanBracketError(
            f"mu_{n}' = {fa:.3g}, {fb:.3g} at the ends of [{a}, {b}] on the "
            f"{grid.N}-node grid: the scan's sign change is not confirmed; "
            "raise N"
        )
    # the secant point is a where fa = 0 and b where fb = 0
    x = a - fa * (b - a) / (fb - fa) if fa != fb else a
    while True:
        data = spectral_data(1.0, x, n, grid=grid)
        f = data.mu_d1
        if f == 0.0:
            return x, data
        if (f < 0.0) == (fa < 0.0):
            a, fa = x, f
        else:
            b = x
        step = -f / data.mu_d2 if data.mu_d2 else math.inf
        if not a <= x + step <= b:
            step = 0.5 * (a + b) - x
        if abs(step) < tol or x + step == x:
            return x + step, data
        x += step


def branch_curvature(n: int, nu: float, N: int = 8192) -> float:
    """mutilde_n''(nu) by central differences of the FH derivative on one box
    confining level n over nu -+ `_CURVATURE_STEP`, Richardson-extrapolated
    from that step and half of it: the finite-difference reference that
    `curvature_consistency` compares the FH second derivative with."""
    nu = float(nu)
    grid = box_grid([Montgomery(nu - _CURVATURE_STEP), Montgomery(nu + _CURVATURE_STEP)], n, N)

    def diff(s: float) -> float:
        return (mu_beta_derivative(1.0, nu + s, n, grid=grid)
                - mu_beta_derivative(1.0, nu - s, n, grid=grid)) / (2 * s)

    return (4.0 * diff(0.5 * _CURVATURE_STEP) - diff(_CURVATURE_STEP)) / 3.0


# ---------------------------------------------------------------------------
# cones and curvature consistency across the rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeSection:
    """The dilation-invariant set beta = nu0 * delta^{1/3}."""

    nu0: float

    def beta(self, delta: float) -> float:
        return self.nu0 * real_cbrt(delta)

    def contains(self, delta: float, beta: float, tol: float = 1e-12) -> bool:
        return abs(beta - self.beta(delta)) <= tol * max(1.0, abs(beta))


@dataclass
class CurvatureConsistency:
    nu0: float
    n: int
    curvature_ref: float
    deviations: dict[float, float]
    on_cone_d1: dict[float, float]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values())

    @property
    def max_on_cone_d1(self) -> float:
        return max(abs(v) for v in self.on_cone_d1.values())


def curvature_consistency(
    n: int,
    nu0: float,
    delta_list: Sequence[float],
    N: int = 8192,
) -> CurvatureConsistency:
    """Check d_beta^2 mu_n(delta, nu0 delta^{1/3}) = mutilde_n''(nu0).

    The left side is the second FH derivative at each delta on the cone;
    the reference curvature comes from finite differences of the rescaled
    branch, so the two routes share no grid.
    """
    ref = branch_curvature(n, nu0, N=N)
    devs: dict[float, float] = {}
    d1s: dict[float, float] = {}
    for delta in delta_list:
        beta = ConeSection(nu0).beta(delta)
        data = spectral_data(float(delta), float(beta), n, N=N)
        devs[float(delta)] = abs(data.mu_d2 - ref)
        d1s[float(delta)] = data.mu_d1
    return CurvatureConsistency(nu0, n, ref, devs, d1s)


# ---------------------------------------------------------------------------
# Strichartz admissibility arithmetic
# ---------------------------------------------------------------------------

NOT_ADMISSIBLE = "not-admissible"
OBSTRUCTED = "admissible-but-obstructed"
ALLOWED = "allowed"

_ALLOWED_PAIRS = {(None, Fraction(2)), (Fraction(2), Fraction(14, 5))}


def _as_exponent(x) -> Fraction | None:
    """Exact exponent value; None encodes infinity.

    Floats are read at decimal face value (repr) so that 2.8 means 14/5.
    """
    if x is None:
        return None
    if isinstance(x, str):
        if x.strip().lower() in ("inf", "infinity", "oo"):
            return None
        return Fraction(x)
    if isinstance(x, float):
        if math.isinf(x):
            return None
        if math.isnan(x):
            raise ValueError("exponent is NaN")
        return Fraction(repr(x))
    return Fraction(x)


def strichartz_admissible(q, p) -> str:
    """Classify a Strichartz exponent pair on the Engel group.

    The scaling line is 2/q + 7/p = 7/2 with q, p in [2, inf]; off the line
    the pair is not admissible, on it only (inf, 2) and (2, 14/5) escape the
    cone-concentration obstruction.
    """
    qv = _as_exponent(q)
    pv = _as_exponent(p)
    for name, v in (("q", qv), ("p", pv)):
        if v is not None and v < 2:
            raise ValueError(f"exponent {name} = {v} below 2")
    line = (0 if qv is None else Fraction(2) / qv) + (
        0 if pv is None else Fraction(7) / pv
    )
    if line != Fraction(7, 2):
        return NOT_ADMISSIBLE
    if (qv, pv) in _ALLOWED_PAIRS:
        return ALLOWED
    return OBSTRUCTED

"""Critical points of the Montgomery dispersion curves, their cones,
and the Strichartz admissibility arithmetic.

The n-th Montgomery branch nu -> mutilde_n(nu) diverges at +-infinity, so
it has critical points; for n = 1 there is exactly one, a non-degenerate
minimum.  Each critical point nu0 generates the dilation-invariant cone
beta = nu0 * delta^{1/3} in the generic dual, on which the transport speed
d_beta mu_n vanishes and the effective second-microlocal dispersion
coefficient is mutilde_n''(nu0)/2.

`montgomery_branch` gives the branch and its first two nu-derivatives by
Galerkin on Hermite functions, where Htilde(nu) = p^2 + nu^2 + nu xi^2 +
xi^4/4 is an exact pentadiagonal matrix on each parity block: no box, grid
or Richardson step.  `critical_points` runs on it alone, and it is the
curvature reference of `curvature_consistency`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg import eig_banded

from .spectral import ConfinementError, real_cbrt, spectral_data


# ---------------------------------------------------------------------------
# Montgomery branches on Hermite functions
# ---------------------------------------------------------------------------

# over n = 1..12 and nu in [-40, 100] the two sizes agree to 3.3e-12; the
# eigenvectors of _BASIS_MAX functions take 8 MiB
_BASIS_MIN, _BASIS_STEP, _BASIS_RTOL, _BASIS_MAX = 24, 8, 1e-10, 1024


def montgomery_branch(n: int, nu: float) -> tuple[float, float, float]:
    """mutilde_n(nu) and its first two nu-derivatives.

    Galerkin on the Hermite functions k = p, p + 2, ... of the parity p of
    mode n, where it is eigenvalue (n - 1) // 2.  On unit-length functions
    xi^2 has diagonal k + 1/2 and (k, k + 2) entry sqrt((k + 1)(k + 2))/2,
    p^2 the same diagonal and the negated off-diagonal, and xi^4 is the
    square of xi^2 over all k; at length s they scale by s^2, 1/s^2 and
    s^4, so the block is exact.  mu' = 2 nu + <phi, xi^2 phi> and mu'' is
    the complete Feynman-Hellmann sum over the block.  The rule: length
    s = (2 + max(nu, 0))^{-1/4} (harmonic for large nu) and _BASIS_MIN + n
    + 2 max(0, -nu) functions (they reach the wells at xi^2 = -2 nu).  The
    values on _BASIS_STEP more functions are returned; ConfinementError if
    one differs from the rule's by over _BASIS_RTOL max(1, |value|) or the
    rule needs over _BASIS_MAX functions (nu below about (n - 992)/2).
    """
    nu = float(nu)
    if n < 1 or not math.isfinite(nu):
        raise ValueError(f"need n >= 1 and a finite nu, got n = {n}, nu = {nu}")
    size = _BASIS_MIN + n + 2 * math.ceil(max(-nu, 0.0))
    if size + _BASIS_STEP > _BASIS_MAX:
        raise ConfinementError(f"mutilde_{n}({nu}) needs {size + _BASIS_STEP} "
                               f"Hermite functions, more than {_BASIS_MAX}")
    k = 2.0 * np.arange(size + _BASIS_STEP) + (n - 1) % 2
    s2, j = (2.0 + max(nu, 0.0)) ** -0.5, (n - 1) // 2
    d, e = k + 0.5, 0.5 * np.sqrt((k + 1) * (k + 2))
    band = np.zeros((3, k.size))
    band[0] = d * d + e * e + np.r_[0.0, e[:-1]] ** 2
    band[1, :-1], band[2, :-2] = e[:-1] * (d[:-1] + d[1:]), e[:-2] * e[1:-1]
    band *= 0.25 * s2 * s2
    band[0] += (1.0 / s2 + nu * s2) * d
    band[1, :-1] += (nu * s2 - 1.0 / s2) * e[:-1]
    rule, more = np.empty(3), np.empty(3)
    for m, values in ((size, rule), (size + _BASIS_STEP, more)):
        w, v = eig_banded(band[:, :m], lower=True)
        phi = v[:, j]
        x2_phi = d[:m] * phi
        x2_phi[:-1] += e[:m - 1] * phi[1:]
        x2_phi[1:] += e[:m - 1] * phi[:-1]
        c = s2 * (v.T @ x2_phi)
        gaps = w[j] - w
        gaps[j] = math.inf
        values[:] = nu * nu + w[j], 2.0 * nu + c[j], 2.0 + 2.0 * np.sum(c * c / gaps)
    if np.any(np.abs(rule - more) > _BASIS_RTOL * np.maximum(1.0, np.abs(more))):
        raise ConfinementError(f"mutilde_{n}({nu}): {size} and {size + _BASIS_STEP} Hermite "
                               f"functions give (mu, mu', mu'') = {rule} and {more}")
    return tuple(map(float, more))


# ---------------------------------------------------------------------------
# dispersion reports
# ---------------------------------------------------------------------------


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
    scan_margin: float  # smallest |mu'| over the scan samples


def critical_points(
    n: int,
    scan: tuple[float, float] = (-4.0, 4.0),
    tol: float = 1e-10,
    samples: int = 161,
) -> list[DispersionReport]:
    """Locate and certify all roots of mutilde_n' inside the scan window.

    Every value comes from `montgomery_branch`.  The certificate is the
    number of sign changes of mu' over `samples` points; a sample where it
    is exactly 0 opens a bracket of its own.  Each bracket is refined by
    Newton steps on mu' with mu'', starting from the secant point of the
    scan values: a step that does not land strictly inside the bracket is
    replaced by its midpoint, and the iteration stops once a step is below
    `tol` (finite and positive, else ValueError) or no point is left
    strictly inside the bracket.  Brackets are disjoint, so each holds one
    root.  mu and the curvature are those of the last Newton point.
    """
    lo, hi = float(scan[0]), float(scan[1])
    if not hi > lo:
        raise ValueError("empty scan window")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"root tolerance must be finite and positive, got {tol!r}")
    nus = np.linspace(lo, hi, samples)
    d1 = np.array([montgomery_branch(n, v)[1] for v in nus])

    sign_changes = [k for k in range(samples - 1)
                    if d1[k] == 0.0 or d1[k] * d1[k + 1] < 0.0]
    margin = float(np.min(np.abs(d1)))
    if not sign_changes:
        warnings.warn(f"no sign change of the branch derivative on [{lo}, {hi}]; "
                      "widen the scan (the branch diverges at +-infinity)", stacklevel=2)
    reports = []
    for k in sign_changes:
        bracket = (float(nus[k]), float(nus[k + 1]))
        root, (mu, _, mu_d2) = _refine_root(*bracket, float(d1[k]), float(d1[k + 1]),
                                            n, tol)
        reports.append(DispersionReport(
            n=n, nu_c=root, mu_at_c=mu, curvature=mu_d2, bracket=bracket,
            certificate=len(sign_changes), kind="minimum" if mu_d2 > 0 else "maximum",
            scan_margin=margin))
    return reports


def _refine_root(a: float, b: float, fa: float, fb: float, n: int,
                 tol: float) -> tuple[float, tuple[float, float, float]]:
    """Root of mutilde_n' in [a, b], where it takes the scan values fa and
    fb, by safeguarded Newton steps, with the branch at the last Newton
    point."""
    # the secant point is a where fa = 0 and b where fb = 0
    x = a - fa * (b - a) / (fb - fa) if fa != fb else a
    while True:
        branch = montgomery_branch(n, x)
        _, f, df = branch
        if f == 0.0:
            return x, branch
        if (f < 0.0) == (fa < 0.0):
            a, fa = x, f
        else:
            b = x
        # x is now an end of the bracket, so a step strictly inside it moves
        # the point and shrinks the bracket
        step = -f / df if df else math.inf
        if not a < x + step < b:
            step = 0.5 * (a + b) - x
        if abs(step) < tol or not a < x + step < b:
            return x + step, branch
        x += step


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

    The left side is the second FH derivative at each delta on the cone,
    on the N-node finite-difference grid; the reference curvature is that
    of `montgomery_branch`, so the two routes share no discretization.
    """
    ref = montgomery_branch(n, nu0)[2]
    devs, d1s = {}, {}
    for delta in delta_list:
        data = spectral_data(float(delta), float(ConeSection(nu0).beta(delta)), n, N=N)
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

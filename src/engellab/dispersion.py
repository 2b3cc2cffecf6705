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
xi^4/4 is an exact pentadiagonal matrix on each parity block: per basis
size one eigenpair of that block and one banded reduced-resolvent solve
for the second derivative, with no box, grid or Richardson step.
`critical_points`, the `dispersion` sweep of `cli` and the packet
machinery of `wavepacket` run on these blocks alone; this module solves no
finite-difference grid.  The branch is the reference that `cli` checks
finite differences against: the certified critical point's curvature in
`smicro-profile` and (mu, mu', mu'') at each swept branch's ends in
`dispersion`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dsbevx

from .spectral import ConfinementError, _integral_mode, _resolve


# ---------------------------------------------------------------------------
# Montgomery branches on Hermite functions
# ---------------------------------------------------------------------------

# over n = 1..30 and nu in [-40, 100] at unit steps the two sizes agree to
# 5.5e-12 (1.4e-12 over n <= 12); at _BASIS_MAX functions a branch solve
# allocates 8 MiB, the reduction matrix of dsbevx, and keeps O(m) arrays
_BASIS_MIN, _BASIS_STEP, _BASIS_RTOL, _BASIS_MAX = 24, 8, 1e-10, 1024
_ABSTOL = 2.0 * np.finfo(float).tiny  # eig_banded's dsbevx tolerance, 2 dlamch("s")


def _basis_size(n: int, nu: float) -> int:
    """The rule's number of Hermite functions per parity block for mode n of
    Htilde(nu): _BASIS_MIN + 2n + 2 ceil(max(-nu, 0)) (mode n has about n/2
    nodes in each of the wells at xi^2 = -2 nu); ConfinementError if it
    and the certificate's _BASIS_STEP more exceed _BASIS_MAX (nu below
    about n - 496)."""
    size = _BASIS_MIN + 2 * n + 2 * math.ceil(max(-nu, 0.0))
    if size + _BASIS_STEP > _BASIS_MAX:
        raise ConfinementError(f"mutilde_{n}({nu}) needs {size + _BASIS_STEP} "
                               f"Hermite functions, more than {_BASIS_MAX}")
    return size


def _certify(n: int, nus: Sequence[float], size: int, rule: np.ndarray, more: np.ndarray) -> None:
    """The basis certificate of mode n of Htilde(nu) at each of `nus`, whose
    (mu, mu', mu'') are the rows of `rule` on `size` Hermite functions per
    parity block and of `more` on _BASIS_STEP more: ConfinementError for
    the first nu where a value differs from the larger solve's by over
    _BASIS_RTOL max(1, |value|)."""
    bad = np.abs(rule - more) > _BASIS_RTOL * np.maximum(1.0, np.abs(more))
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        raise ConfinementError(f"mutilde_{n}({nus[k]}): {size} and {size + _BASIS_STEP} Hermite "
                               f"functions give (mu, mu', mu'') = {rule[k]} and {more[k]}")


def _parity_blocks(p: int, nus: Sequence[float], m: int):
    """Htilde(nu) - nu^2 on `montgomery_branch`'s m functions k = p, p + 2,
    ..., one block per nu of `nus`: the squared lengths s^2 = (2 + max(nu,
    0))^{-1/2}, the lower bands, shape (len(nus), 3, m), that `dsbevx` and
    `spectral._resolve` take, and xi^2's unit-length diagonal d and (k, k + 2)
    entry e."""
    k = np.arange(p, 2 * m, 2.0)
    d, e = k + 0.5, 0.5 * np.sqrt((k + 1) * (k + 2))
    # the lower band of xi^4 = (xi^2)^2 on the block
    quartic = np.zeros((3, m))
    quartic[0] = d * d + e * e
    quartic[0, 1:] += e[:-1] * e[:-1]
    quartic[1], quartic[2, :-1] = 2.0 * e * (d + 1.0), e[:-1] * e[1:]
    s2 = [(2.0 + max(nu, 0.0)) ** -0.5 for nu in nus]
    # per nu: the factors of xi^4, of the diagonal d and of the entry e
    f = np.array([(0.25 * s * s, 1.0 / s + nu * s, nu * s - 1.0 / s) for s, nu in zip(s2, nus)])
    bands = quartic * f[:, 0, None, None]
    bands[:, 0] += f[:, 1, None] * d
    bands[:, 1] += f[:, 2, None] * e
    return s2, bands, (d, e)


def _hermite_branch(n: int, nus: Sequence[float]) -> list[tuple[np.ndarray, tuple]]:
    """`montgomery_branch`'s (mu, mu', mu'') at each of `nus`, with (w, phi,
    band): w = mu - nu^2, phi mode n on its parity block at the
    certificate's size, and band that block's lower band.

    The nus that share a basis size are solved together: one band build,
    then per nu one `dsbevx`, one `_resolve` and the dot products at each of
    the certificate's two sizes, with the rest array operations over the
    group; every value is the one-nu call's to the bit.  A nu refused
    before any solve (n < 1, nu not finite, a basis over _BASIS_MAX)
    raises as its one-nu call does, the first such nu in `nus` order.
    """
    _integral_mode(n)
    nus, sizes = [float(nu) for nu in nus], []
    for nu in nus:
        if n < 1 or not math.isfinite(nu):
            raise ValueError(f"need n >= 1 and a finite nu, got n = {n}, nu = {nu}")
        sizes.append(_basis_size(n, nu))
    if not nus:
        return []
    p, j = (n - 1) % 2, (n - 1) // 2
    out = [None] * len(nus)
    for size in dict.fromkeys(sizes):
        at = [k for k, s in enumerate(sizes) if s == size]
        group = [nus[k] for k in at]
        s2, bands, (d, e) = _parity_blocks(p, group, size + _BASIS_STEP)

        def solve(m: int):
            w, phi = np.empty(len(group)), np.empty((len(group), m))
            for k, band in enumerate(bands):
                ev, v, _, _, info = dsbevx(band[:, :m], 0.0, 1.0, j + 1, j + 1, range=2,
                                           lower=1, abstol=_ABSTOL, overwrite_ab=0)
                if info:
                    raise np.linalg.LinAlgError(
                        f"mode {j} of mutilde_{n}({group[k]})'s block is degenerate")
                w[k], phi[k] = ev[0], v[:, 0]
            x2_phi = d[:m] * phi
            x2_phi[:, :-1] += e[:m - 1] * phi[:, 1:]
            x2_phi[:, 1:] += e[:m - 1] * phi[:, :-1]
            c = np.array([a @ b for a, b in zip(phi, x2_phi)])
            r = x2_phi - c[:, None] * phi
            i = np.abs(phi).argmax(axis=1)
            ru = [rk @ _resolve(band, wk, rk, ik) for rk, band, wk, ik in zip(r, bands, w, i)]
            return np.array([(nu * nu + wk, 2.0 * nu + s * ck, 2.0 + 2.0 * s * s * ruk)
                             for nu, s, wk, ck, ruk in zip(group, s2, w, c, ru)]), (w, phi)

        rule, (more, (w, phi)) = solve(size)[0], solve(size + _BASIS_STEP)
        _certify(n, group, size, rule, more)
        for k, values, wk, ph, band in zip(at, more, w, phi, bands):
            out[k] = values, (wk, ph, band)
    return out


def _branch_rows(n: int, nus: Sequence[float]) -> list[tuple[float, float, float]]:
    """`montgomery_branch` at each of `nus`, by one `_hermite_branch` call."""
    return [tuple(map(float, values)) for values, _ in _hermite_branch(n, nus)]


def montgomery_branch(n: int, nu: float) -> tuple[float, float, float]:
    """mutilde_n(nu) and its first two nu-derivatives.

    Galerkin on the Hermite functions k = p, p + 2, ... of the parity p of
    mode n, where it is eigenvalue j = (n - 1) // 2.  On unit-length
    functions xi^2 has diagonal k + 1/2 and (k, k + 2) entry
    sqrt((k + 1)(k + 2))/2, p^2 the same diagonal and the negated
    off-diagonal, and xi^4 is the square of xi^2 over all k; at length s
    they scale by s^2, 1/s^2 and s^4, so the block is exact.  Only
    eigenpair j is solved, by LAPACK dsbevx called as `eig_banded` calls
    it, whose Sturm-count bisection certifies the index.  mu' = 2 nu +
    <phi, xi^2 phi> and mu'' = 2 + 2 <r, u> with r = Pi_perp xi^2 phi and
    (mu - H) u = r: one banded LU with Nelson's normalization
    (`spectral._resolve`), whose u differs from the reduced resolvent's by
    a multiple of phi, to which r is orthogonal.  The length is s = (2 +
    max(nu, 0))^{-1/4} (harmonic for large nu) and the basis size is
    certified by `_certify`: the values on `_basis_size`'s m functions must
    agree with those on _BASIS_STEP more, which are returned; the band is
    built once at the larger size, and the rule's size solves its leading
    block.
    """
    return _branch_rows(n, [nu])[0]


# ---------------------------------------------------------------------------
# dispersion reports
# ---------------------------------------------------------------------------


# Newton stops once a step is below this; the root is then at rounding: a
# tolerance of 1e-300 moves no nu_c of n <= 12 by more than 6.2e-15
_ROOT_TOL = 1e-10

# every scan samples its window at this many evenly spaced points
_SCAN_SAMPLES = 161

# the window `critical_points` scans unless given another: each of the
# branches n = 1..12 has exactly one critical point, a minimum, in it
SCAN_WINDOW = (-4.0, 4.0)


@dataclass
class DispersionReport:
    """One certified critical point of a Montgomery branch."""

    n: int
    nu_c: float
    mu_at_c: float
    curvature: float
    bracket: tuple[float, float]
    certificate: int  # sign changes of mu' counted over the solved scan samples
    kind: str  # "minimum" | "maximum"
    scan_margin: float  # smallest |mu'| over the solved scan samples


def critical_points(n: int, scan: tuple[float, float] = SCAN_WINDOW) -> list[DispersionReport]:
    """Locate and certify all roots of mutilde_n' inside the scan window.

    Every value is `montgomery_branch`'s, the scan samples' from one
    batched call.  mu' = 2 nu + s^2 <phi, xi^2 phi> with xi^2 positive
    definite, so mu' > 0 at every nu >= 0: of the _SCAN_SAMPLES evenly
    spaced points of the window only those up to and including the first
    with nu >= 0 are solved, which keeps the bracket of a root between the
    last negative sample and 0.  The certificate is the number of sign
    changes of mu' over the solved samples; a sample where it is exactly 0
    opens a bracket of its own.  Each bracket is refined by
    Newton steps on mu' with mu'', starting from the secant point of the
    scan values: a step that does not land strictly inside the bracket is
    replaced by its midpoint, and the iteration stops once a step is below
    _ROOT_TOL or no point is left strictly inside the bracket.  Brackets
    are disjoint, so each holds one root.  mu and the curvature are those
    of the last Newton point.
    """
    lo, hi = float(scan[0]), float(scan[1])
    if not hi > lo:
        raise ValueError("empty scan window")
    nus = np.linspace(lo, hi, _SCAN_SAMPLES)
    nus = nus[: np.searchsorted(nus, 0.0) + 1]
    d1 = np.array([row[1] for row in _branch_rows(n, nus)])

    sign_changes = [k for k in range(len(nus) - 1)
                    if d1[k] == 0.0 or d1[k] * d1[k + 1] < 0.0]
    margin = float(np.min(np.abs(d1)))
    if not sign_changes:
        warnings.warn(f"no sign change of the branch derivative on [{lo}, {hi}]; "
                      "widen the scan (the branch diverges at +-infinity)", stacklevel=2)
    reports = []
    for k in sign_changes:
        bracket = (float(nus[k]), float(nus[k + 1]))
        root, (mu, _, mu_d2) = _refine_root(*bracket, float(d1[k]), float(d1[k + 1]), n)
        reports.append(DispersionReport(
            n=n, nu_c=root, mu_at_c=mu, curvature=mu_d2, bracket=bracket,
            certificate=len(sign_changes), kind="minimum" if mu_d2 > 0 else "maximum",
            scan_margin=margin))
    return reports


def _refine_root(a: float, b: float, fa: float, fb: float,
                 n: int) -> tuple[float, tuple[float, float, float]]:
    """Root of mutilde_n' in [a, b], where it takes the scan values fa and
    fb, by safeguarded Newton steps, with the branch solved at the last
    Newton point."""
    # the secant point is a where fa = 0 and b where fb = 0
    x = a - fa * (b - a) / (fb - fa) if fa != fb else a
    last = False
    while True:
        branch = montgomery_branch(n, x)
        _, f, df = branch
        if f == 0.0 or last:
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
        last = abs(step) < _ROOT_TOL or not a < x + step < b
        x += step


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
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"exponent {x!r} has a zero denominator") from None
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

"""The Montgomery branch by the complete Feynman-Hellmann sum: every
eigenpair of the Hermite parity block, then mu'' as the sum over the other
modes.  A test reference for `dispersion.montgomery_branch`, which solves
one eigenpair and one reduced-resolvent system; both share its basis rule
and certificate (`dispersion.certify_basis`)."""

import math

import numpy as np
from scipy.linalg import eig_banded

from engellab.dispersion import certify_basis


def parity_block(n: int, nu: float, m: int) -> np.ndarray:
    """Htilde(nu) - nu^2 on the m Hermite functions k = p, p + 2, ... of the
    parity p of mode n, at the length (2 + max(nu, 0))^{-1/4} of
    `montgomery_branch`, as a dense matrix: xi^2 and p^2 from their
    three-term entries, xi^4 as the square of xi^2 taken one function past
    the block."""
    s2 = (2.0 + max(nu, 0.0)) ** -0.5
    k = 2.0 * np.arange(m + 1) + (n - 1) % 2
    e = 0.5 * np.sqrt((k[:-1] + 1) * (k[:-1] + 2))
    x2 = np.diag(k + 0.5) + np.diag(e, 1) + np.diag(e, -1)
    p2 = np.diag(k + 0.5) - np.diag(e, 1) - np.diag(e, -1)
    return (p2 / s2 + nu * s2 * x2 + 0.25 * s2 * s2 * (x2 @ x2))[:m, :m]


def branch_by_spectral_sum(n: int, nu: float) -> tuple[float, float, float]:
    """mutilde_n(nu), mu' and mu'' with every eigenpair of the parity block
    solved (`eig_banded`) and mu'' the complete Feynman-Hellmann sum."""
    nu = float(nu)
    s2, j = (2.0 + max(nu, 0.0)) ** -0.5, (n - 1) // 2

    def solve(m: int):
        k = 2.0 * np.arange(m) + (n - 1) % 2
        d, e = k + 0.5, 0.5 * np.sqrt((k + 1) * (k + 2))
        band = np.zeros((3, m))
        band[0] = d * d + e * e + np.r_[0.0, e[:-1]] ** 2
        band[1, :-1], band[2, :-2] = e[:-1] * (d[:-1] + d[1:]), e[:-2] * e[1:-1]
        band *= 0.25 * s2 * s2
        band[0] += (1.0 / s2 + nu * s2) * d
        band[1, :-1] += (nu * s2 - 1.0 / s2) * e[:-1]
        w, v = eig_banded(band, lower=True)
        phi = v[:, j]
        x2_phi = d * phi
        x2_phi[:-1] += e[:-1] * phi[1:]
        x2_phi[1:] += e[:-1] * phi[:-1]
        c = s2 * (v.T @ x2_phi)
        gaps = w[j] - w
        gaps[j] = math.inf
        return np.array([nu * nu + w[j], 2.0 * nu + c[j], 2.0 + 2.0 * np.sum(c * c / gaps)]), None

    return tuple(map(float, certify_basis(n, nu, solve)[0]))

"""Dense routes to the Hermite parity blocks, test references for the
banded ones of `dispersion`.

The Montgomery branch by the complete Feynman-Hellmann sum: every
eigenpair of the Hermite parity block, then mu'' as the sum over the other
modes.  A test reference for `dispersion.montgomery_branch`, which solves
one eigenpair and one reduced-resolvent system; both share its basis rule
(`dispersion._basis_size`) and certificate (`dispersion._certify`).

The packet machinery by dense linear algebra on both parities at once:
H from the generators' images of the unit vectors, every eigenpair of
phi's block, and each resolvent vector one bordered solve.  A test
reference for `wavepacket._PacketMachinery`, which solves each parity
block by one banded LU.
"""

import math

import numpy as np
from scipy.linalg import eig_banded

from engellab.dispersion import _BASIS_STEP, _basis_size, _certify
from engellab.wavepacket import _PAD, _PacketMachinery, _sigma2_sources


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
        return np.array([nu * nu + w[j], 2.0 * nu + c[j], 2.0 + 2.0 * np.sum(c * c / gaps)])

    size = _basis_size(n, nu)
    rule, more = solve(size), solve(size + _BASIS_STEP)
    _certify(n, [nu], size, rule[None], more[None])
    return tuple(map(float, more))


def dense_machinery(m: _PacketMachinery) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """m's basis vectors and (mu, mu', mu''), solved densely on m's M
    functions: H = W^2 - D^2 from m's generators, phi mode n of H's parity
    block by `eigh` (largest entry positive), mu' = <dH phi, phi> with
    dH = 2W, mu'' = 2 + 2 <dH phi, dphi>, and dphi and the sigma_2
    correctors of `_sigma2_sources` (whose c2 is m's mu') with
    (mu - H) u = Pi_perp r and <u, phi> = 0 from the bordered system
    [[mu - H, phi], [phi^T, 0]] of size M + 1, whose multiplier takes r's
    component along phi; every vector is zero past the M functions."""
    n = m.spec.n
    M, p, j = len(m.basis["phi"]) - _PAD, (n - 1) % 2, (n - 1) // 2
    H = m.h(np.eye(M + _PAD, M))[:M]
    w, v = np.linalg.eigh(H[p::2, p::2])
    phi = np.zeros(M + _PAD)
    phi[p:M:2] = v[:, j] * np.sign(v[np.argmax(np.abs(v[:, j])), j])
    border = np.block([[w[j] * np.eye(M) - H, phi[:M, None]], [phi[None, :M], 0.0]])

    def bordered_solve(r: np.ndarray) -> np.ndarray:
        u = np.zeros_like(r)
        u[:M] = np.linalg.solve(border, np.concatenate([r[:M], np.zeros((1, *r.shape[1:]))]))[:M]
        return u

    dH_phi = 2.0 * m.w(phi)
    dphi = bordered_solve(dH_phi)
    basis = {"phi": phi, "xi_phi": m.xi(phi), "dphi": dphi}
    sources = _sigma2_sources(m, basis["xi_phi"], dphi)
    basis.update(zip(sources, bordered_solve(np.column_stack(list(sources.values()))).T))
    return basis, np.array([w[j], dH_phi @ phi, 2.0 + 2.0 * (dH_phi @ dphi)])

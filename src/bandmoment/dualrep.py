"""The dual Hermitian-field representation of the second mixed moment, evaluated exactly.

The paper rewrites F2(l1, l2) = E[det(l1 - H) det(l2 - H)] over N sites as an
integral over one 2x2 Hermitian field X_j per site:

    F2 = (-1)^N (2 pi^2)^-N det(J)^-2
         * Int exp{ -(W^2/2) sum_j Tr (X_j - X_{j-1})^2 - (1/2) sum_j Tr (X_j + i M)^2 }
         * prod_j det(X_j - i A) dX_j,

with diag(l1, l2) = M + A split into a phase part M and a determinant part A
(the paper takes A = lambda0/2), and dX = dX11 dX22 dReX12 dImX12.  The
integrand is entire with Gaussian decay, so shifting each diagonal entry
(X_j)_kk by -i m_k moves the contour without changing the value: the phase
cancels and both parts recombine into l1 and l2.  The remaining Gaussian is
normalized by the prefactor, with covariance J = (W^2 K + 1)^-1 in each
diagonal channel and J/2 in Re and Im of the off-diagonal one, so

    F2 = (-1)^N E[ prod_j ((g_j - i l1)(h_j - i l2) - |c_j|^2) ]

for independent real fields g, h ~ N(0, J) and complex c with Re c, Im c ~
N(0, J/2).  In whitened variables (g = L z with L L^T = J) the integrand is a
polynomial of degree at most 2N in each of the 4N standard normals, so the
tensor Gauss-Hermite rule with N + 1 nodes per variable is exact.
"""

from __future__ import annotations

import numpy as np

from .lattice import CovarianceProfile

MAX_SITES = 2  # the rule has (N+1)^(4N) nodes: 6561 at N = 2, 4^12 at N = 3


def dual_f2(lambda1: float, lambda2: float, profile: CovarianceProfile) -> complex:
    """F2(lambda1, lambda2) from the shifted dual field integral, exact to rounding.

    The imaginary part is zero up to rounding; it is returned as a check.
    """
    n = profile.size
    if n > MAX_SITES:
        raise ValueError(f"the exact dual rule supports at most {MAX_SITES} sites, got {n}")
    x, w = np.polynomial.hermite_e.hermegauss(n + 1)
    idx = np.indices((n + 1,) * (4 * n)).reshape(4 * n, -1).T   # one row per tensor node
    g, h, u, v = np.moveaxis(x[idx].reshape(-1, 4, n) @ np.linalg.cholesky(profile.J).T, 1, 0)
    site = (g - 1j * lambda1) * (h - 1j * lambda2) - (u * u + v * v) / 2.0
    weight = np.prod(w[idx] / w.sum(), axis=1)
    return (-1) ** n * complex(weight @ np.prod(site, axis=1))

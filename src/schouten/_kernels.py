"""Hot numeric kernels of the cone layer, vectorised over rows with numpy.

Each kernel has exactly one implementation, defined under its private
``_*_np`` name; the public names are plain aliases of those definitions.
``BACKEND`` names the implementation and is recorded in run summaries.
Per-call timings at the shapes the cone layer and the solver really use
(64-512 rows of length n) are the ``micro.*`` metrics of a traced
``perfbench/run.py`` run.

Kernels:
  elementary_symmetric  -- all e_0..e_kmax of each row, Newton/Horner recurrence
  gamma_member          -- sigma_j > 0 for j = 1..k, batched
  gamma_margin          -- diagonal-ray distance to the cone boundary, batched bisection
  radial_sphere_eigs    -- Schouten eigenvalues of a radial conformal factor on the round sphere
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "elementary_symmetric",
    "gamma_member",
    "gamma_margin",
    "radial_sphere_eigs",
]

BACKEND = "numpy"


def _elementary_symmetric_np(lam, kmax):
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    nrow, n = lam.shape
    e = np.zeros((nrow, kmax + 1))
    e[:, 0] = 1.0
    for i in range(n):
        x = lam[:, i]
        for j in range(min(i + 1, kmax), 0, -1):
            e[:, j] += x * e[:, j - 1]
    return e


def _gamma_member_np(lam, k):
    e = _elementary_symmetric_np(lam, k)
    return np.all(e[:, 1:] > 0.0, axis=1)


def _gamma_margin_np(lam, k, rtol=1e-12):
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    nrow, n = lam.shape
    # tolerance is relative to the row scale so the margin sign stays
    # resolvable for arbitrarily small eigenvalue vectors (homogeneity)
    scale = np.abs(lam).max(axis=1)
    zero_rows = scale == 0.0
    scale = np.where(zero_rows, 1.0, scale)
    inside = _gamma_member_np(lam, k)

    # Inside rows: 0 is admissible, sigma_1/n is not (sigma_1 vanishes there).
    # Outside rows: 0 is inadmissible; -2*scale shifts into the positive orthant.
    lo = np.where(inside, 0.0, -2.0 * scale)
    hi = np.where(inside, lam.sum(axis=1) / n, 0.0)

    bad = ~_gamma_member_np(lam - lo[:, None], k)
    guard = 0
    while bad.any():
        lo[bad] *= 2.0
        guard += 1
        if guard > 60:
            break
        bad = ~_gamma_member_np(lam - lo[:, None], k)
    dead = bad if guard > 60 else np.zeros(nrow, dtype=bool)

    tol = rtol * scale
    active = (hi - lo) > tol
    guard = 0
    while active.any() and guard < 200:
        mid = 0.5 * (lo + hi)
        mem = _gamma_member_np(lam - mid[:, None], k)
        lo = np.where(active & mem, mid, lo)
        hi = np.where(active & ~mem, mid, hi)
        active = (hi - lo) > tol
        guard += 1
    out = 0.5 * (lo + hi)
    out[dead] = -np.inf
    out[zero_rows] = 0.0
    return out


def _radial_sphere_eigs_np(u, up, upp, cot_theta, pole, n):
    u = np.asarray(u, dtype=np.float64)
    q = 2.0 / (n - 2.0)
    logd = up / u
    tan_hess = np.where(pole, upp, cot_theta * up)
    lam_rad = -q * upp / u + (n - 1.0) * 0.5 * q * q * logd ** 2 + 0.5
    lam_tan = -q * tan_hess / u - 0.5 * q * q * logd ** 2 + 0.5
    s = u ** (-2.0 * q)
    return lam_rad * s, lam_tan * s


# The membership and margin kernels call ``_elementary_symmetric_np`` by its
# private name; keep the public names aliases, not wrappers, so each e_k pass
# is one call of one function.
elementary_symmetric = _elementary_symmetric_np
gamma_member = _gamma_member_np
gamma_margin = _gamma_margin_np
radial_sphere_eigs = _radial_sphere_eigs_np

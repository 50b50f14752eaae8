"""Hot numeric kernels of the cone layer, vectorised over rows with numpy.

Each kernel has exactly one implementation, defined under its private
``_*_np`` name; the public names are plain aliases of those definitions.
``BACKEND`` names the implementation and is recorded in run summaries.
Per-call timings at the shapes the cone layer and the solver really use
(64-512 rows of length n) are the ``micro.*`` metrics of a traced
``perfbench/run.py`` run.

Kernels:
  elementary_symmetric  -- all e_0..e_kmax of each row, Newton/Horner recurrence,
                           run rows-last: e is (kmax+1, rows) and entry i of
                           every row updates all prefixes in one vector step
  gamma_member          -- sigma_j > 0 for j = 1..k, batched
  gamma_margin          -- diagonal-ray distance to the cone boundary: Laguerre's
                           iteration for the smallest root of sigma_k(lam - t*e),
                           certified by two membership passes, bisection fallback
  radial_sphere_eigs    -- Schouten eigenvalues of a radial conformal factor on the round sphere
  radial_sphere_eig_partials -- the partials of those eigenvalues in (u, u', u'')

The margin sup{t : lam - t*e in Gamma_k}, e = (1, ..., 1), is the smallest
root of p(t) = sigma_k(lam - t*e): sigma_k is hyperbolic in the direction e
(Garding 1959), so p has k real roots, and the smallest lies in
[min lam, sigma_1(lam)/n].  Laguerre's iteration started at min lam climbs
monotonically to it (Parlett 1964) and is exact in one step when all k roots
coincide (lam proportional to e).  p, p' and p'' are read off one e_k pass on
the shifted vector lam - t*e, never from expanded coefficients.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "elementary_symmetric",
    "gamma_member",
    "gamma_margin",
    "radial_sphere_eigs",
    "radial_sphere_eig_partials",
]

BACKEND = "numpy"

# Laguerre iterations per margin call; rows still moving after this many go
# to the certificate (and, failing it, to bisection) like every other row.
_LAGUERRE_MAXITER = 50


def _elementary_symmetric_np(lam, kmax):
    # rows last: one contiguous (rows,) column per entry and e as (kmax+1, rows),
    # so entry i updates every prefix in one vector operation.  The product is
    # formed from the old e_{j-1} before the in-place add, so each e_j gets the
    # same operations in the same order as updating the prefixes one at a
    # time, highest first: the bits are the same.  Returns the (rows, kmax+1)
    # view of that array.
    cols = np.ascontiguousarray(np.asarray(lam, dtype=np.float64).T)
    n, nrow = cols.shape
    e = np.zeros((kmax + 1, nrow))
    e[0] = 1.0
    for i in range(n):
        m = min(i + 1, kmax)
        e[1:m + 1] += cols[i] * e[:m]
    return e.T


def _gamma_member_np(lam, k):
    e = _elementary_symmetric_np(lam, k)
    return np.all(e[:, 1:] > 0.0, axis=1)


def _laguerre_root(lam, k, tol):
    """Smallest root of t -> sigma_k(lam - t*e) per row, by Laguerre's iteration from min lam.

    With a = e_k, b = (n-k+1) e_{k-1} and c = (n-k+1)(n-k+2) e_{k-2} of
    lam - t*e we have p = a, p' = -b and p'' = c, and left of every root
    a, b > 0, so the step k*p / (-p' + sqrt((k-1)((k-1)p'^2 - k*p*p''))) is
    positive.  The iterate is capped at sigma_1/n; a row stops once its step
    is at most tol/4.
    """
    nrow, n = lam.shape
    m = n - k + 1.0
    t = lam.min(axis=1)
    cap = np.maximum(lam.sum(axis=1) / n, t)  # sigma_1/n, less its rounding below min lam
    rows = np.arange(nrow)
    for _ in range(_LAGUERRE_MAXITER):
        if rows.size == 0:
            break
        e = _elementary_symmetric_np(lam[rows] - t[rows, None], k)
        a = e[:, k]
        b = m * e[:, k - 1]
        c = m * (m + 1.0) * e[:, k - 2] if k >= 2 else 0.0
        den = b + np.sqrt(np.maximum((k - 1.0) * ((k - 1.0) * b * b - k * a * c), 0.0))
        go = (a > 0.0) & (den > 0.0)
        step = np.zeros(rows.size)
        step[go] = k * a[go] / den[go]
        t[rows] = np.minimum(t[rows] + step, cap[rows])
        rows = rows[step > 0.25 * tol[rows]]
    return t


def _bisect_margin(lam, k, lo, hi, tol):
    """Bisect each row's [lo, hi] (lo inside, hi outside) to width tol; returns the midpoints.

    The fallback of ``gamma_margin`` for rows its certificate rejects, and the
    test oracle for the Laguerre root.
    """
    active = (hi - lo) > tol
    guard = 0
    while active.any() and guard < 200:
        mid = 0.5 * (lo + hi)
        mem = _gamma_member_np(lam - mid[:, None], k)
        lo = np.where(active & mem, mid, lo)
        hi = np.where(active & ~mem, mid, hi)
        active = (hi - lo) > tol
        guard += 1
    return 0.5 * (lo + hi)


def _gamma_margin_np(lam, k, rtol=1e-12):
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    out = np.zeros(lam.shape[0])
    finite = np.isfinite(lam).all(axis=1)
    out[~finite] = -np.inf
    scale = np.abs(lam).max(axis=1)
    live = finite & (scale > 0.0)
    if not live.any():
        return out
    # Rescale each row by a power of two (exact, so membership of the scaled
    # row is membership of the row) to keep e_k in range at any magnitude; the
    # tolerance is relative to the row scale, so margin signs stay resolvable
    # for arbitrarily small eigenvalue vectors (homogeneity).
    ex = np.frexp(scale[live])[1]
    x = np.ldexp(lam[live], -ex[:, None])
    xscale = np.abs(x).max(axis=1)
    tol = rtol * xscale

    r = _laguerre_root(x, k, tol)
    # Certificate: r - tol/2 inside and r + tol/2 outside, in one stacked pass.
    h = 0.5 * tol
    mem = _gamma_member_np(np.concatenate([x - (r - h)[:, None], x - (r + h)[:, None]]), k)
    below_in, above_in = mem[: r.size], mem[r.size:]
    bad = ~(below_in & ~above_in)
    if bad.any():
        # x - (min x - max|x|) e lies in the open positive orthant and
        # x - (max x) e has sigma_1 <= 0: inside and outside for every row.
        lo = np.where(above_in, r + h, x.min(axis=1) - xscale)
        hi = np.where(above_in, x.max(axis=1), r - h)
        r[bad] = _bisect_margin(x[bad], k, lo[bad], hi[bad], tol[bad])
    out[live] = np.ldexp(r, ex)
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


def _radial_sphere_eig_partials_np(u, up, upp, cot_theta, pole, n, rad, tan):
    """Nodewise partials in (u, u', u'') of the eigenvalue pair (rad, tan).

    ``rad, tan`` are ``radial_sphere_eigs`` at the same arguments, which this
    kernel does not recompute, and ``cot_theta`` must be 0 where ``pole`` is
    True (as the solver's grids store it): d lam_tan/du' reads it unmasked.  Returns drad, dtan, each (3, m): the partials
    in u, u' and u''.  With q = 2/(n-2), w = u'/u and lam = bracket * u^(-2q),
    d lam/du = (d bracket/du) u^(-2q) - 2q lam/u.  At a pole the tangential
    branch reads u'' in place of cot(theta) u'.
    """
    u = np.asarray(u, dtype=np.float64)
    q = 2.0 / (n - 2.0)
    inv_u = 1.0 / u
    w = up * inv_u
    qqw = q * q * w
    tan_hess = np.where(pole, upp, cot_theta * up)
    su = u ** (-2.0 * q) * inv_u
    drad, dtan = np.empty((2, 3, u.size))
    drad[0] = (q * upp * inv_u - (n - 1.0) * qqw * w) * su - 2.0 * q * rad * inv_u
    drad[1] = (n - 1.0) * qqw * su
    drad[2] = -q * su
    dtan[0] = (q * tan_hess * inv_u + qqw * w) * su - 2.0 * q * tan * inv_u
    # cot(theta) is 0 at the poles, so d/du' of cot(theta) u' needs no mask
    dtan[1] = -(q * cot_theta + qqw) * su
    dtan[2] = np.where(pole, drad[2], 0.0)
    return drad, dtan


# The membership and margin kernels call ``_elementary_symmetric_np`` by its
# private name; keep the public names aliases, not wrappers, so each e_k pass
# is one call of one function.
elementary_symmetric = _elementary_symmetric_np
gamma_member = _gamma_member_np
gamma_margin = _gamma_margin_np
radial_sphere_eigs = _radial_sphere_eigs_np
radial_sphere_eig_partials = _radial_sphere_eig_partials_np

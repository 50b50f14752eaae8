"""Chart-local metric fields and conformal curvature.

Everything here is pointwise on a coordinate chart: a ``MetricField`` supplies
metric components with first and second derivatives (closed-form or central
finite differences), a ``ConformalFactor`` supplies a positive scalar field
with gradient and Hessian, and the operations assemble Christoffel symbols,
Ricci, scalar curvature and the Schouten tensor

    A_g = (Ric_g - R_g g / (2(n-1))) / (n-2),

together with its transformation under g -> u^(4/(n-2)) g:

    A_{g_u} = -2/(n-2) u^-1 Hess_g u + 2n/(n-2)^2 u^-2 du x du
              - 2/(n-2)^2 u^-2 |du|_g^2 g + A_g.

Ricci of the conformal metric is reconstructed from the Schouten tensor via
Ric = (n-2) A + tr_g(A) g, so the two transformations cannot drift apart; the
reconstruction is validated against a finite-difference curvature oracle in
the tests.

All operations accept a single point ``(n,)`` or a batch ``(B, n)`` and are
vectorised over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "MetricField",
    "ConformalFactor",
    "christoffel",
    "ricci_background",
    "scalar_curvature",
    "schouten_background",
    "covariant_hessian",
    "laplace_beltrami",
    "schouten_conformal",
    "ricci_conformal",
    "conformal_metric",
    "eigen_rel",
    "ricci_lower_margin",
]

_DEFAULT_H = 1e-4


def _batchify(x, n):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != n:
            raise ValueError(f"point has length {x.shape[0]}, chart dimension is {n}")
        return x[None, :], True
    if x.shape[1] != n:
        raise ValueError(f"points have length {x.shape[1]}, chart dimension is {n}")
    return x, False


def _unbatch(arr, single):
    return arr[0] if single else arr


# ---------------------------------------------------------------------------
# finite differences on batched callables
# ---------------------------------------------------------------------------

def _fd_d1(fn, x, h):
    # fn: (B,n) -> (B, ...); returns (B, n, ...)
    B, n = x.shape
    shifts = np.zeros((2 * n, B, n))
    for k in range(n):
        shifts[2 * k] = x
        shifts[2 * k][:, k] += h
        shifts[2 * k + 1] = x
        shifts[2 * k + 1][:, k] -= h
    vals = fn(shifts.reshape(2 * n * B, n))
    vals = vals.reshape((2 * n, B) + vals.shape[1:])
    return np.stack([(vals[2 * k] - vals[2 * k + 1]) / (2 * h) for k in range(n)], axis=1)


def _fd_d2(fn, x, h):
    # returns (B, n, n, ...), symmetric second derivatives
    B, n = x.shape
    f0 = fn(x)
    out = np.zeros((B, n, n) + f0.shape[1:])
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[:, k] += h
        xm[:, k] -= h
        out[:, k, k] = (fn(xp) - 2.0 * f0 + fn(xm)) / h ** 2
    for k in range(n):
        for l in range(k + 1, n):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[:, k] += h
            xpp[:, l] += h
            xpm[:, k] += h
            xpm[:, l] -= h
            xmp[:, k] -= h
            xmp[:, l] += h
            xmm[:, k] -= h
            xmm[:, l] -= h
            mixed = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * h ** 2)
            out[:, k, l] = mixed
            out[:, l, k] = mixed
    return out


def _derivative(field, exact_fn, fd_op, xb):
    """``exact_fn(xb)`` when given, else ``fd_op`` central differences of
    ``field.value_fn`` with step ``field.h`` (Richardson-refined when
    ``field.richardson``)."""
    if exact_fn is not None:
        return exact_fn(xb)
    fn, h = field.value_fn, field.h
    if field.richardson:
        return (4.0 * fd_op(fn, xb, h / 2.0) - fd_op(fn, xb, h)) / 3.0
    return fd_op(fn, xb, h)


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricField:
    """Pointwise metric g_ij(x) on a box chart with derivative access.

    ``value_fn`` maps (B, n) -> (B, n, n).  When ``d1_fn``/``d2_fn`` are given
    the mode is analytic; otherwise derivatives fall back to central finite
    differences with step ``h`` (Richardson-refined when ``richardson``).
    Index conventions: d1[b, k, i, j] = d_k g_ij, d2[b, k, l, i, j] = d_k d_l g_ij.
    """

    n: int
    value_fn: Callable
    d1_fn: Optional[Callable] = None
    d2_fn: Optional[Callable] = None
    h: float = _DEFAULT_H
    richardson: bool = False
    domain_lo: Optional[np.ndarray] = None
    domain_hi: Optional[np.ndarray] = None
    name: str = "custom"

    @property
    def mode(self):
        return "analytic" if (self.d1_fn is not None and self.d2_fn is not None) else "fd"

    def _check_domain(self, x):
        if self.domain_lo is not None:
            if np.any(x < self.domain_lo) or np.any(x > self.domain_hi):
                raise DomainError(f"point outside chart domain of metric '{self.name}'")

    def components(self, x):
        xb, single = _batchify(x, self.n)
        self._check_domain(xb)
        return _unbatch(self.value_fn(xb), single)

    def d1(self, x):
        xb, single = _batchify(x, self.n)
        self._check_domain(xb)
        return _unbatch(_derivative(self, self.d1_fn, _fd_d1, xb), single)

    def d2(self, x):
        xb, single = _batchify(x, self.n)
        self._check_domain(xb)
        return _unbatch(_derivative(self, self.d2_fn, _fd_d2, xb), single)

    def with_fd(self, h=_DEFAULT_H, richardson=False):
        """Same components, derivatives forced to finite differences."""
        return replace(self, d1_fn=None, d2_fn=None, h=h, richardson=richardson)

    # -- builtin charts -------------------------------------------------------

    @classmethod
    def flat(cls, n):
        eye = np.eye(n)

        def value(x):
            return np.broadcast_to(eye, (x.shape[0], n, n)).copy()

        def d1(x):
            return np.zeros((x.shape[0], n, n, n))

        def d2(x):
            return np.zeros((x.shape[0], n, n, n, n))

        return cls(n=n, value_fn=value, d1_fn=d1, d2_fn=d2, name="flat")

    @classmethod
    def sphere_normal(cls, n, chart_radius=3.0):
        """Unit round sphere in geodesic normal coordinates at a pole.

        g_ij = delta_ij + q(s) (s delta_ij - x_i x_j) with s = |x|^2 and
        q(s) = (sin^2 sqrt(s) - s) / s^2; valid for |x| < pi.
        """
        if not 0 < chart_radius < math.pi:
            raise ValueError("chart radius must lie in (0, pi)")
        eye = np.eye(n)

        def value(x):
            s = (x ** 2).sum(axis=1)
            q, _, _ = _sphere_q(s)
            core = s[:, None, None] * eye - x[:, :, None] * x[:, None, :]
            return eye + q[:, None, None] * core

        def d1(x):
            s = (x ** 2).sum(axis=1)
            q, q1, _ = _sphere_q(s)
            core = s[:, None, None] * eye - x[:, :, None] * x[:, None, :]
            # d_k core_ij = 2 x_k delta_ij - delta_ik x_j - x_i delta_jk
            dcore = (2.0 * x[:, :, None, None] * eye[None, None, :, :]
                     - eye[None, :, :, None] * x[:, None, None, :]
                     - x[:, None, :, None] * eye[None, :, None, :])
            return (2.0 * q1[:, None, None, None] * x[:, :, None, None] * core[:, None]
                    + q[:, None, None, None] * dcore)

        def d2(x):
            B = x.shape[0]
            s = (x ** 2).sum(axis=1)
            q, q1, q2 = _sphere_q(s)
            core = s[:, None, None] * eye - x[:, :, None] * x[:, None, :]
            dcore = (2.0 * x[:, :, None, None] * eye[None, None, :, :]
                     - eye[None, :, :, None] * x[:, None, None, :]
                     - x[:, None, :, None] * eye[None, :, None, :])
            out = np.zeros((B, n, n, n, n))
            xx = x[:, :, None, None, None] * x[:, None, :, None, None]
            out += 4.0 * q2[:, None, None, None, None] * xx * core[:, None, None]
            out += 2.0 * q1[:, None, None, None, None] * eye[None, :, :, None, None] \
                * core[:, None, None]
            out += 2.0 * q1[:, None, None, None, None] * x[:, :, None, None, None] \
                * dcore[:, None, :, :, :]
            out += 2.0 * q1[:, None, None, None, None] * x[:, None, :, None, None] \
                * dcore[:, :, None, :, :]
            # d_l d_k core_ij = 2 d_kl d_ij - d_ik d_jl - d_il d_jk
            ddcore = (2.0 * eye[:, :, None, None] * eye[None, None, :, :]
                      - eye[:, None, :, None] * eye[None, :, None, :]
                      - np.einsum("il,kj->klij", eye, eye))
            out += q[:, None, None, None, None] * ddcore[None]
            return out

        lo = -chart_radius * np.ones(n)
        return cls(n=n, value_fn=value, d1_fn=d1, d2_fn=d2,
                   domain_lo=lo, domain_hi=-lo, name="sphere-normal")

    @classmethod
    def sphere_polar(cls, n, pad=0.25):
        """Unit round sphere in nested polar angles (theta_1, ..., theta_n).

        Diagonal warped-product metric: g_11 = 1 and
        g_ii = prod_{j<i} sin^2(theta_j) for i >= 2.
        The chart box keeps every angle in [pad, pi - pad].
        """

        def _diag(x):
            B = x.shape[0]
            d = np.ones((B, n))
            s2 = np.sin(x) ** 2
            for i in range(1, n):
                d[:, i] = d[:, i - 1] * s2[:, i - 1]
            return d

        def value(x):
            d = _diag(x)
            out = np.zeros((x.shape[0], n, n))
            idx = np.arange(n)
            out[:, idx, idx] = d
            return out

        def d1(x):
            d = _diag(x)
            cot = 1.0 / np.tan(x)
            out = np.zeros((x.shape[0], n, n, n))
            for i in range(1, n):
                for k in range(i):
                    out[:, k, i, i] = 2.0 * cot[:, k] * d[:, i]
            return out

        def d2(x):
            d = _diag(x)
            cot = 1.0 / np.tan(x)
            out = np.zeros((x.shape[0], n, n, n, n))
            for i in range(1, n):
                for k in range(i):
                    out[:, k, k, i, i] = (2.0 * cot[:, k] ** 2 - 2.0) * d[:, i]
                    for l in range(i):
                        if l != k:
                            out[:, k, l, i, i] = 4.0 * cot[:, k] * cot[:, l] * d[:, i]
            return out

        lo = pad * np.ones(n)
        hi = (math.pi - pad) * np.ones(n)
        return cls(n=n, value_fn=value, d1_fn=d1, d2_fn=d2,
                   domain_lo=lo, domain_hi=hi, name="sphere-polar")


# coefficients of q(s) = sum_j t_{j+2} s^j with t_m = (-1)^(m+1) 2^(2m-1) / (2m)!
_Q_COEF = np.array([(-1.0) ** (m + 1) * 2.0 ** (2 * m - 1) / math.factorial(2 * m)
                    for m in range(2, 13)])
_Q1_COEF = _Q_COEF[1:] * np.arange(1, len(_Q_COEF))
_Q2_COEF = _Q1_COEF[1:] * np.arange(1, len(_Q1_COEF))


def _sphere_q(s):
    """q(s) = (sin^2 sqrt(s) - s)/s^2 and its first two s-derivatives."""
    s = np.asarray(s, dtype=np.float64)
    q = np.empty_like(s)
    q1 = np.empty_like(s)
    q2 = np.empty_like(s)
    small = s < 0.25
    if small.any():
        ss = s[small]
        q[small] = np.polyval(_Q_COEF[::-1], ss)
        q1[small] = np.polyval(_Q1_COEF[::-1], ss)
        q2[small] = np.polyval(_Q2_COEF[::-1], ss)
    big = ~small
    if big.any():
        sb = s[big]
        r = np.sqrt(sb)
        N = np.sin(r) ** 2 - sb
        N1 = np.sin(2.0 * r) / (2.0 * r) - 1.0
        N2 = (2.0 * r * np.cos(2.0 * r) - np.sin(2.0 * r)) / (4.0 * r ** 3)
        q[big] = N / sb ** 2
        q1[big] = N1 / sb ** 2 - 2.0 * N / sb ** 3
        q2[big] = N2 / sb ** 2 - 4.0 * N1 / sb ** 3 + 6.0 * N / sb ** 4
    return q, q1, q2


# ---------------------------------------------------------------------------
# conformal factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformalFactor:
    """Positive scalar field u(x) with gradient/Hessian access."""

    n: int
    value_fn: Callable
    grad_fn: Optional[Callable] = None
    hess_fn: Optional[Callable] = None
    h: float = _DEFAULT_H
    richardson: bool = False

    @property
    def mode(self):
        return "analytic" if (self.grad_fn is not None and self.hess_fn is not None) else "fd"

    def value(self, x):
        xb, single = _batchify(x, self.n)
        return _unbatch(self.value_fn(xb), single)

    def grad(self, x):
        xb, single = _batchify(x, self.n)
        return _unbatch(_derivative(self, self.grad_fn, _fd_d1, xb), single)

    def hess(self, x):
        xb, single = _batchify(x, self.n)
        return _unbatch(_derivative(self, self.hess_fn, _fd_d2, xb), single)

    def with_fd(self, h=_DEFAULT_H, richardson=False):
        return replace(self, grad_fn=None, hess_fn=None, h=h, richardson=richardson)

    @classmethod
    def constant(cls, n, c):
        if c <= 0:
            raise DomainError("conformal factor must be positive")
        return cls(
            n=n,
            value_fn=lambda x: np.full(x.shape[0], float(c)),
            grad_fn=lambda x: np.zeros((x.shape[0], n)),
            hess_fn=lambda x: np.zeros((x.shape[0], n, n)),
        )

    @classmethod
    def from_callable(cls, n, fn, grad=None, hess=None, h=_DEFAULT_H, richardson=False):
        return cls(n=n, value_fn=fn, grad_fn=grad, hess_fn=hess, h=h,
                   richardson=richardson)

    @classmethod
    def radial(cls, n, v, v1, v2, center=None):
        """Factor v(|x - c|) from radial profile callables v, v', v''.

        Euclidean-chart derivative formulas; not evaluable at the center.
        """
        c = np.zeros(n) if center is None else np.asarray(center, dtype=np.float64)

        def value(x):
            r = np.linalg.norm(x - c, axis=1)
            return v(r)

        def grad(x):
            d = x - c
            r = np.linalg.norm(d, axis=1)
            return v1(r)[:, None] * d / r[:, None]

        def hess(x):
            d = x - c
            r = np.linalg.norm(d, axis=1)
            xhat = d / r[:, None]
            proj = xhat[:, :, None] * xhat[:, None, :]
            eye = np.eye(n)
            return (v2(r)[:, None, None] * proj
                    + (v1(r) / r)[:, None, None] * (eye - proj))

        return cls(n=n, value_fn=value, grad_fn=grad, hess_fn=hess)


# ---------------------------------------------------------------------------
# curvature assembly (batched core)
# ---------------------------------------------------------------------------

def _geometry(g, x):
    """First-order chart geometry at ``x``:
    (xb, single, g_ij, g^ij, d_k g_ij, Gamma^m_ij, sym_ijl)."""
    xb, single = _batchify(x, g.n)
    gmat = g.components(xb)
    d1 = g.d1(xb)
    try:
        ginv = np.linalg.inv(gmat)
    except np.linalg.LinAlgError as exc:
        raise DomainError("metric is singular at a queried point") from exc
    # sym[b, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    sym = d1 + d1.transpose(0, 2, 1, 3) - d1.transpose(0, 2, 3, 1)
    # Gamma^m_ij = 1/2 g^{ml} sym_ijl
    gamma = 0.5 * np.einsum("bml,bijl->bmij", ginv, sym)
    return xb, single, gmat, ginv, d1, gamma, sym


def christoffel(g, x):
    """Christoffel symbols; index order [m, i, j] for Gamma^m_ij."""
    _, single, _, _, _, gamma, _ = _geometry(g, x)
    return _unbatch(gamma, single)


def _ricci_batch(g, x):
    xb, single, gmat, ginv, d1, gamma, sym = _geometry(g, x)
    d2 = g.d2(xb)
    # d_a Gamma^m_ij needs d_a g^{ml} = -g^{mp} (d_a g_pq) g^{ql}
    dginv = -np.einsum("bmp,bapq,bql->baml", ginv, d1, ginv)
    # d_a sym[i, j, l] = d_a d_i g_jl + d_a d_j g_il - d_a d_l g_ij
    dsym = d2 + d2.transpose(0, 1, 3, 2, 4) - d2.transpose(0, 1, 3, 4, 2)
    dgamma = 0.5 * (np.einsum("baml,bijl->bamij", dginv, sym)
                    + np.einsum("bml,baijl->bamij", ginv, dsym))
    # Ric_jk = d_m Gamma^m_jk - d_j Gamma^m_mk + Gamma^m_mp Gamma^p_jk
    #          - Gamma^m_jp Gamma^p_mk
    term1 = np.einsum("bmmjk->bjk", dgamma)
    term2 = np.einsum("bjmmk->bjk", dgamma)
    trace_gamma = np.einsum("bmmp->bp", gamma)
    term3 = np.einsum("bp,bpjk->bjk", trace_gamma, gamma)
    term4 = np.einsum("bmjp,bpmk->bjk", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return single, gmat, ginv, ric


def ricci_background(g, x):
    single, _, _, ric = _ricci_batch(g, x)
    return _unbatch(ric, single)


def scalar_curvature(g, x):
    single, _, ginv, ric = _ricci_batch(g, x)
    return _unbatch(np.einsum("bjk,bjk->b", ginv, ric), single)


def schouten_background(g, x):
    """Schouten tensor A_g = (Ric - R g / (2(n-1))) / (n-2)."""
    single, gmat, ginv, ric = _ricci_batch(g, x)
    n = g.n
    scal = np.einsum("bjk,bjk->b", ginv, ric)
    a = (ric - scal[:, None, None] * gmat / (2.0 * (n - 1.0))) / (n - 2.0)
    return _unbatch(a, single)


def covariant_hessian(g, u, x):
    """Hess_g u = d^2 u - Gamma^m d_m u."""
    xb, single, _, _, _, gamma, _ = _geometry(g, x)
    du = u.grad(xb)
    d2u = u.hess(xb)
    return _unbatch(d2u - np.einsum("bmij,bm->bij", gamma, du), single)


def laplace_beltrami(g, u, x):
    """Delta_g u = tr_g Hess_g u."""
    xb, single = _batchify(x, g.n)
    gmat = g.components(xb)
    hess = covariant_hessian(g, u, xb)
    ginv = np.linalg.inv(gmat)
    return _unbatch(np.einsum("bij,bij->b", ginv, hess), single)


def _schouten_conformal_batch(g, u, xb):
    """A_{g_u} and the conformal metric g_u = u^(4/(n-2)) g on a point batch."""
    n = g.n
    uval = np.atleast_1d(u.value(xb))
    if np.any(uval <= 0.0):
        raise DomainError("conformal factor is nonpositive at a queried point")
    gmat = g.components(xb)
    ginv = np.linalg.inv(gmat)
    du = u.grad(xb)
    hess = covariant_hessian(g, u, xb)
    a_bg = schouten_background(g, xb)
    grad_sq = np.einsum("bij,bi,bj->b", ginv, du, du)
    c1 = 2.0 / (n - 2.0)
    c2 = 2.0 * n / (n - 2.0) ** 2
    c3 = 2.0 / (n - 2.0) ** 2
    a_u = (-c1 * hess / uval[:, None, None]
           + c2 * du[:, :, None] * du[:, None, :] / uval[:, None, None] ** 2
           - c3 * grad_sq[:, None, None] * gmat / uval[:, None, None] ** 2
           + a_bg)
    gu = uval[:, None, None] ** (4.0 / (n - 2.0)) * gmat
    return a_u, gu


def schouten_conformal(g, u, x):
    """Schouten tensor of g_u = u^(4/(n-2)) g, as a bilinear form in the chart."""
    xb, single = _batchify(x, g.n)
    a_u, _ = _schouten_conformal_batch(g, u, xb)
    return _unbatch(a_u, single)


def conformal_metric_components(g, u, x):
    xb, single = _batchify(x, g.n)
    uval = np.atleast_1d(u.value(xb))
    gmat = g.components(xb)
    phi = uval ** (4.0 / (g.n - 2.0))
    return _unbatch(phi[:, None, None] * gmat, single)


def conformal_metric(g, u):
    """The metric u^(4/(n-2)) g as a new MetricField.

    Analytic derivatives when both inputs are analytic, otherwise finite
    differences on the product components.
    """
    n = g.n
    p = 4.0 / (n - 2.0)

    def value(x):
        uval = np.atleast_1d(u.value(x))
        if np.any(uval <= 0):
            raise DomainError("conformal factor is nonpositive at a queried point")
        return uval[:, None, None] ** p * g.components(x)

    if g.mode == "analytic" and u.mode == "analytic":

        def d1(x):
            uval = np.atleast_1d(u.value(x))
            du = np.atleast_2d(u.grad(x))
            gmat = g.components(x)
            gd1 = g.d1(x)
            phi = uval ** p
            dphi = p * uval ** (p - 1.0)
            return (dphi[:, None, None, None] * du[:, :, None, None] * gmat[:, None]
                    + phi[:, None, None, None] * gd1)

        def d2(x):
            uval = np.atleast_1d(u.value(x))
            du = np.atleast_2d(u.grad(x))
            d2u = u.hess(x)
            if d2u.ndim == 2:
                d2u = d2u[None]
            gmat = g.components(x)
            gd1 = g.d1(x)
            gd2 = g.d2(x)
            phi = uval ** p
            dphi = p * uval ** (p - 1.0)
            ddphi_part = p * (p - 1.0) * uval ** (p - 2.0)
            dphi_vec = dphi[:, None] * du
            ddphi = (ddphi_part[:, None, None] * du[:, :, None] * du[:, None, :]
                     + dphi[:, None, None] * d2u)
            out = ddphi[:, :, :, None, None] * gmat[:, None, None]
            out = out + dphi_vec[:, :, None, None, None] * gd1[:, None, :, :, :]
            out = out + dphi_vec[:, None, :, None, None] * gd1[:, :, None, :, :]
            out = out + phi[:, None, None, None, None] * gd2
            return out

        return MetricField(n=n, value_fn=value, d1_fn=d1, d2_fn=d2,
                           domain_lo=g.domain_lo, domain_hi=g.domain_hi,
                           name=f"conformal({g.name})")
    return MetricField(n=n, value_fn=value, h=min(g.h, u.h),
                       domain_lo=g.domain_lo, domain_hi=g.domain_hi,
                       name=f"conformal({g.name})")


def eigen_rel(a, gmat):
    """Eigenvalues of the form ``a`` relative to the metric ``gmat``, ascending.

    Cholesky reduction g = L L^T, then the symmetric spectrum of L^-1 a L^-T.
    Accepts stacked inputs (..., n, n).
    """
    a = np.asarray(a, dtype=np.float64)
    gmat = np.asarray(gmat, dtype=np.float64)
    try:
        chol = np.linalg.cholesky(gmat)
    except np.linalg.LinAlgError as exc:
        raise DomainError("metric not positive-definite in eigen_rel") from exc
    linv = np.linalg.inv(chol)
    reduced = linv @ a @ np.swapaxes(linv, -1, -2)
    return np.linalg.eigvalsh(reduced)


def conformal_schouten_eigs(g, u, x):
    """lambda(A_{g_u}) relative to g_u, ascending."""
    xb, single = _batchify(x, g.n)
    a_u, gu = _schouten_conformal_batch(g, u, xb)
    return _unbatch(eigen_rel(a_u, gu), single)


def _ricci_conformal_batch(g, u, xb):
    """Ric_{g_u} = (n-2) A + tr_{g_u}(A) g_u, and g_u, on a point batch."""
    a_u, gu = _schouten_conformal_batch(g, u, xb)
    tr = np.einsum("bij,bij->b", np.linalg.inv(gu), a_u)
    return (g.n - 2.0) * a_u + tr[:, None, None] * gu, gu


def ricci_conformal(g, u, x):
    """Ric_{g_u} reconstructed from the Schouten tensor: (n-2) A + tr(A) g_u."""
    xb, single = _batchify(x, g.n)
    ric, _ = _ricci_conformal_batch(g, u, xb)
    return _unbatch(ric, single)


def ricci_lower_margin(g, u, alpha, points):
    """min over points of the smallest eigenvalue of Ric_{g_u} + (n-1) alpha^2 g_u
    relative to g_u; nonnegative return certifies the Ricci lower bound there."""
    xb, _ = _batchify(points, g.n)
    ric, gu = _ricci_conformal_batch(g, u, xb)
    shifted = ric + (g.n - 1.0) * alpha ** 2 * gu
    eigs = eigen_rel(shifted, gu)
    return float(eigs[:, 0].min())

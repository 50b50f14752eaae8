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

Ricci is assembled from the two traces of the Christoffel derivatives it
needs, sum_m d_m Gamma^m_jk and sum_m d_j Gamma^m_mk, contracted directly
from the metric's second derivatives and from d_a g^-1 = -g^-1 (d_a g) g^-1:
O(B n^4) work per batch, never the full d Gamma tensor.  On a space form of
sectional curvature K, Ric = (n-1) K g exactly; a metric that declares its
``sectional_curvature`` (the builtin ``flat``, K = 0, and ``sphere_normal`` and
``sphere_polar``, K = 1) reads Ricci in that closed form and evaluates no
second derivatives, so ``ricci_background``, ``scalar_curvature`` and
``schouten_background`` (A_g = K g / 2) read it too.  The trace assembly
stays for every other metric and as the oracle.  A finite-difference
Hessian evaluates its 1 + 2n^2 stencil point sets in one call of the field,
as a finite-difference gradient does with its 2n.  That stencil holds the
centre and every +-h e_k set, so it is the whole jet: the conformal
operations read a factor as one jet (u, du, d^2 u) per point batch, and a
finite-difference factor evaluates ``value_fn`` once per batch (twice with
Richardson), where reading value, gradient and Hessian apart would take
three calls.

All operations accept a single point ``(n,)`` or a batch ``(B, n)`` and are
vectorised over the batch.

Background geometry depends only on the metric and the points, not on the
factor u.  ``chart_geometry`` evaluates it once per point batch into a
``ChartGeometry`` value: metric and first derivatives once, one Cholesky
factorisation g = L L^T giving L^-1 and g^-1 = L^-T L^-1, Christoffel
symbols and A_g from that one pass.  A metric that declares a ``euclidean``
chart (the builtin ``flat``: g_ij = delta_ij in its coordinates) reads that
pass in closed form, L^-1 = g^-1 = I and d g = Gamma = 0, with no first
derivatives, factorisation or inverse evaluated; its components are still
evaluated, so every domain check holds.  Its ``ChartGeometry`` says so
(``euclidean``), and the conformal operations skip the identity arithmetic
downstream too: Hess_g u = d^2 u with no Gamma product, |du|_g^2 = du . du,
g-traces are plain traces and relative eigenvalues are eigvalsh(A) / phi,
with no L^-1 products; every result is bit-identical to the generic path,
which stays for every other metric and as the oracle.  The conformal
operations assemble from the geometry, and
``conformal_schouten_eigs(..., geometry=...)`` lets a caller that owns its
point grid (the barrier sweeps) build it once and reuse it for every factor.
There is no cache: the geometry is passed explicitly.  As
g_u = phi g with phi = u^(4/(n-2)), eigenvalues relative to g_u are
eigvalsh(L^-1 A L^-T) / phi (Cholesky reduction of the symmetric-definite
eigenproblem), so a factor needs no factorisation of its own.

Every tensor contraction is a reshape and a stacked ``matmul`` (traces by
``np.trace``); the per-element ``einsum`` forms are kept in the tests as the
oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "MetricField",
    "ConformalFactor",
    "ChartGeometry",
    "chart_geometry",
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
    if x.ndim not in (1, 2):
        raise ValueError(f"points must have shape (n,) or (B, n), got shape {x.shape}")
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

@functools.lru_cache(maxsize=None)
def _d1_offsets(n):
    """Unit stencil of the central first difference: +e_k, -e_k for each k."""
    eye = np.eye(n)
    return np.stack([eye, -eye], axis=1).reshape(2 * n, n)


@functools.lru_cache(maxsize=None)
def _d2_offsets(n):
    """Unit stencil of the second difference: the centre, +-e_k for each k,
    then e_k, e_l with signs ++, +-, -+, -- for each pair k < l."""
    eye = np.eye(n)
    ku, lu = np.triu_indices(n, 1)
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    mixed = (signs[None, :, 0, None] * eye[ku][:, None]
             + signs[None, :, 1, None] * eye[lu][:, None])
    return np.concatenate([np.zeros((1, n)), _d1_offsets(n), mixed.reshape(-1, n)])


def _central_d1(vals, h):
    # vals: fn on the 2n point sets x + h e_k, x - h e_k in ``_d1_offsets``
    # order, stacked (2n, B, ...); returns the central differences (B, n, ...).
    vals = vals.reshape((-1, 2) + vals.shape[1:])
    return np.moveaxis((vals[:, 0] - vals[:, 1]) / (2 * h), 0, 1)


def _fd_d1(fn, x, h):
    # fn: (B,n) -> (B, ...); returns (B, n, ...).  One call of fn on the 2n
    # stencil point sets x + h e_k, x - h e_k.
    B, n = x.shape
    pts = x + h * _d1_offsets(n)[:, None, :]
    vals = fn(pts.reshape(2 * n * B, n))
    return _central_d1(vals.reshape((2 * n, B) + vals.shape[1:]), h)


def _fd_jet(fn, x, h):
    """f, d f (B, n, ...) and the symmetric d^2 f (B, n, n, ...) from one call
    of fn on the stacked 1 + 2n^2 point sets of ``_d2_offsets``.  The centre
    row, exactly x, is f; the +-h e_k rows give d f by ``_central_d1``."""
    B, n = x.shape
    idx = np.arange(n)
    ku, lu = np.triu_indices(n, 1)
    diag = 1 + 2 * idx
    mixed = 1 + 2 * n + 4 * np.arange(len(ku))
    pts = x + h * _d2_offsets(n)[:, None, :]
    pts[0] = x  # x + 0.0 would turn a -0.0 coordinate into +0.0
    vals = fn(pts.reshape(-1, n))
    vals = vals.reshape(pts.shape[:2] + vals.shape[1:])
    f0 = vals[0]
    out = np.zeros((B, n, n) + f0.shape[1:])
    out[:, idx, idx] = np.swapaxes((vals[diag] - 2.0 * f0 + vals[diag + 1]) / h ** 2, 0, 1)
    cross = np.swapaxes((vals[mixed] - vals[mixed + 1] - vals[mixed + 2] + vals[mixed + 3])
                        / (4.0 * h ** 2), 0, 1)
    out[:, ku, lu] = cross
    out[:, lu, ku] = cross
    return f0, _central_d1(vals[1:1 + 2 * n], h), out


def _fd_d2(fn, x, h):
    # returns (B, n, n, ...): the second-derivative part of ``_fd_jet``.
    return _fd_jet(fn, x, h)[2]


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
    ``sectional_curvature``: the constant K of a space form, or None.  When
    set, Ricci is read as (n-1) K g and the curvature assembly never calls
    ``d2_fn``; the builtin charts set it, custom metrics and
    ``conformal_metric`` results do not.
    ``euclidean``: the components are delta_ij at every point of the chart.
    When set, the chart geometry reads g^-1 = I and d g = Gamma = 0 and never
    calls ``d1_fn`` or factorises g; ``flat`` sets it, custom metrics and
    ``conformal_metric`` results do not.
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
    sectional_curvature: Optional[float] = None
    euclidean: bool = False

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
        """Same components, derivatives forced to finite differences, and no
        ``sectional_curvature`` or ``euclidean``: the geometry comes from the
        finite-difference derivatives, not from the closed forms."""
        return replace(self, d1_fn=None, d2_fn=None, h=h, richardson=richardson,
                       sectional_curvature=None, euclidean=False)

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

        return cls(n=n, value_fn=value, d1_fn=d1, d2_fn=d2, name="flat",
                   sectional_curvature=0.0, euclidean=True)

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
                      - eye[:, None, None, :] * eye[None, :, :, None])
            out += q[:, None, None, None, None] * ddcore[None]
            return out

        lo = -chart_radius * np.ones(n)
        return cls(n=n, value_fn=value, d1_fn=d1, d2_fn=d2,
                   domain_lo=lo, domain_hi=-lo, name="sphere-normal",
                   sectional_curvature=1.0)

    @classmethod
    def sphere_polar(cls, n):
        """Unit round sphere in nested polar angles (theta_1, ..., theta_n).

        Diagonal warped-product metric: g_11 = 1 and
        g_ii = prod_{j<i} sin^2(theta_j) for i >= 2.
        The chart box keeps every angle in [0.25, pi - 0.25].
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

        lo = 0.25 * np.ones(n)
        hi = (math.pi - 0.25) * np.ones(n)
        return cls(n=n, value_fn=value, d1_fn=d1, d2_fn=d2,
                   domain_lo=lo, domain_hi=hi, name="sphere-polar",
                   sectional_curvature=1.0)


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
    """Positive scalar field u(x) with gradient/Hessian access.

    ``value_fn`` maps (B, n) -> (B,).  When ``grad_fn``/``hess_fn`` are given
    they are used; otherwise derivatives fall back to central finite
    differences with step ``h`` (Richardson-refined when ``richardson``).  The
    conformal operations read the factor as one jet (u, du, d^2 u) per point
    batch, bit-identical to ``value``, ``grad`` and ``hess``: without
    ``hess_fn`` that is one call of ``value_fn`` on the second-difference
    stencil (two with Richardson), whose centre row is the value.
    """

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
    def radial(cls, n, v, v1, v2):
        """Factor v(|x|) from radial profile callables v, v', v''.

        Euclidean-chart derivative formulas; not evaluable at the origin.
        """

        def value(x):
            return v(np.linalg.norm(x, axis=1))

        def grad(x):
            r = np.linalg.norm(x, axis=1)
            return v1(r)[:, None] * x / r[:, None]

        def hess(x):
            r = np.linalg.norm(x, axis=1)
            xhat = x / r[:, None]
            proj = xhat[:, :, None] * xhat[:, None, :]
            eye = np.eye(n)
            return (v2(r)[:, None, None] * proj
                    + (v1(r) / r)[:, None, None] * (eye - proj))

        return cls(n=n, value_fn=value, grad_fn=grad, hess_fn=hess)


def _factor_jet(u, xb):
    """``(u.value, u.grad, u.hess)`` on the batch ``xb``, bit for bit: the
    factor's callables where it has them, the rest from one call of
    ``value_fn`` on the ``_fd_jet`` stencil (two with Richardson), whose
    centre row is the value."""
    if u.hess_fn is not None:
        return u.value_fn(xb), _derivative(u, u.grad_fn, _fd_d1, xb), u.hess_fn(xb)
    val, du, d2u = _fd_jet(u.value_fn, xb, u.h / 2.0 if u.richardson else u.h)
    if u.richardson:
        _, du_h, d2u_h = _fd_jet(u.value_fn, xb, u.h)
        du, d2u = (4.0 * du - du_h) / 3.0, (4.0 * d2u - d2u_h) / 3.0
    if u.grad_fn is not None:
        du = u.grad_fn(xb)
    return val, du, d2u


# ---------------------------------------------------------------------------
# curvature assembly (batched core)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartGeometry:
    """Background geometry of one point batch, evaluated once.

    ``points`` (B, n); ``gmat`` g_ij, ``linv`` the inverse L^-1 of its
    Cholesky factor g = L L^T and ``ginv`` g^ij = L^-T L^-1 (B, n, n); ``d1``
    d_k g_ij, ``sym`` d_i g_jl + d_j g_il - d_l g_ij and ``gamma`` Gamma^m_ij
    (B, n, n, n); ``a_bg`` the Schouten tensor A_g (B, n, n), or None on a
    first-order pass.  Built by ``chart_geometry``; on a ``euclidean`` metric
    ``linv``, ``ginv``, ``d1``, ``sym`` and ``gamma`` are read-only, and
    ``euclidean`` is set: the conformal operations then read Hess_g u as
    d^2 u, |du|_g^2 as du . du, g-traces as plain traces and relative
    eigenvalues as eigvalsh(A) / phi, and never touch those fields.
    """

    points: np.ndarray
    gmat: np.ndarray
    linv: np.ndarray
    ginv: np.ndarray
    d1: np.ndarray
    sym: np.ndarray
    gamma: np.ndarray
    a_bg: Optional[np.ndarray] = None
    euclidean: bool = False


def _geometry(g, xb):
    """First-order chart geometry on the point batch ``xb``: one evaluation of
    the metric and its first derivatives, and one Cholesky factorisation
    g = L L^T, from which L^-1 and g^-1 = L^-T L^-1.  On a ``euclidean``
    metric L^-1 = g^-1 = I and d g = Gamma = 0, read-only and unevaluated."""
    gmat = g.components(xb)
    B, n = xb.shape
    if g.euclidean:
        eye = np.broadcast_to(np.eye(n), (B, n, n))
        zeros = np.zeros((B, n, n, n))
        zeros.flags.writeable = False
        return ChartGeometry(xb, gmat, eye, eye, zeros, zeros, zeros, euclidean=True)
    d1 = g.d1(xb)
    try:
        linv = np.linalg.inv(np.linalg.cholesky(gmat))
    except np.linalg.LinAlgError as exc:
        raise DomainError("metric is singular or not positive definite at a queried point") \
            from exc
    ginv = np.swapaxes(linv, 1, 2) @ linv
    # sym[b, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    sym = d1 + d1.transpose(0, 2, 1, 3) - d1.transpose(0, 2, 3, 1)
    # Gamma^m_ij = 1/2 g^{ml} sym_ijl, one (n, n) @ (n, n^2) product per point
    gamma = 0.5 * (ginv @ sym.reshape(B, n * n, n).transpose(0, 2, 1)).reshape(B, n, n, n)
    return ChartGeometry(xb, gmat, linv, ginv, d1, sym, gamma)


def chart_geometry(g, x):
    """``ChartGeometry`` of the points ``x`` ((B, n) or (n,)): one first-order
    pass, with A_g from ``schouten_background`` on that pass."""
    xb, _ = _batchify(x, g.n)
    geom = _geometry(g, xb)
    return ChartGeometry(**{**vars(geom), "a_bg": schouten_background(g, xb, geometry=geom)})


def _checked(geometry, xb):
    if geometry.points is not xb and not np.array_equal(geometry.points, xb):
        raise ValueError("geometry was built for a different point batch")
    return geometry


def _g_trace(geom, a):
    """tr_g a = g^ij a_ji at each point of the batch of ``geom``; the plain
    trace on a ``euclidean`` chart."""
    if not geom.euclidean:
        a = geom.ginv @ a
    return np.trace(a, axis1=1, axis2=2)


def christoffel(g, x):
    """Christoffel symbols; index order [m, i, j] for Gamma^m_ij (read-only
    zeros on a ``euclidean`` metric)."""
    xb, single = _batchify(x, g.n)
    return _unbatch(_geometry(g, xb).gamma, single)


def _ricci_batch(g, geom):
    if g.sectional_curvature is not None:
        # a space form: Ric = (n-1) K g
        return (g.n - 1.0) * g.sectional_curvature * geom.gmat
    # Ric_jk = d_m Gamma^m_jk - d_j Gamma^m_mk + Gamma^m_mp Gamma^p_jk
    #          - Gamma^m_jp Gamma^p_mk
    # needs only two traces of d_a Gamma^m_ij = 1/2 d_a g^{ml} sym_ijl
    # + 1/2 g^{ml} d_a sym_ijl.  Their second-derivative parts combine to
    # 1/2 g^{ml} (d_m d_k g_jl + d_j d_l g_mk - d_m d_l g_jk - d_j d_k g_ml),
    # whose first two terms are transposes of each other; their first-derivative
    # parts to 1/2 v_l sym_jkl - 1/2 d_j g^{ml} sym_mkl with v_l = d_m g^{ml}
    # and d_a g^{-1} = -g^{-1} (d_a g) g^{-1}.  Every contraction is a stacked
    # product over reshaped views; d2 is never copied.
    ginv, gamma, sym = geom.ginv, geom.gamma, geom.sym
    B, n = ginv.shape[:2]
    d2 = g.d2(geom.points)
    d2_sq = d2.reshape(B, n * n, n * n)
    gvec = ginv.reshape(B, n * n, 1)
    # cross[b, k, j] = sum_{m,l} g^{ml} d_m d_k g_jl, one (n^2, n) block per m;
    # then g^{ml} d_m d_l g_jk and g^{ml} d_j d_k g_ml over the flat (m, l) pair
    cross = (d2.reshape(B, n, n * n, n) @ ginv[:, :, :, None]).sum(axis=1).reshape(B, n, n)
    second = (cross + cross.transpose(0, 2, 1)
              - (gvec.transpose(0, 2, 1) @ d2_sq).reshape(B, n, n)
              - (d2_sq @ gvec).reshape(B, n, n))
    dginv = -(ginv[:, None] @ geom.d1 @ ginv[:, None])
    v = np.trace(dginv, axis1=1, axis2=2)
    # sum_{m,l} d_j g^{ml} sym_mkl as one (n, n^2) @ (n^2, n) product per point
    first = ((sym.reshape(B, n * n, n) @ v[:, :, None]).reshape(B, n, n)
             - dginv.reshape(B, n, n * n) @ sym.transpose(0, 1, 3, 2).reshape(B, n * n, n))
    trace_gamma = np.trace(gamma, axis1=1, axis2=2)
    term3 = (trace_gamma[:, None, :] @ gamma.reshape(B, n, n * n)).reshape(B, n, n)
    # gt[b, j, (m, p)] = Gamma^m_jp; read as [b, (m, p), k] it is Gamma^p_mk
    gt = gamma.transpose(0, 2, 1, 3).reshape(B, n, n * n)
    term4 = gt @ gt.reshape(B, n * n, n)
    return 0.5 * (second + first) + term3 - term4


def ricci_background(g, x):
    """Ric_g; (n-1) K g when ``g`` declares its sectional curvature K."""
    xb, single = _batchify(x, g.n)
    return _unbatch(_ricci_batch(g, _geometry(g, xb)), single)


def scalar_curvature(g, x):
    """R_g = tr_g Ric_g; n (n-1) K up to rounding on a declared space form."""
    xb, single = _batchify(x, g.n)
    geom = _geometry(g, xb)
    return _unbatch(_g_trace(geom, _ricci_batch(g, geom)), single)


def schouten_background(g, x, *, geometry=None):
    """Schouten tensor A_g = (Ric - R g / (2(n-1))) / (n-2).

    From the closed-form Ricci (n-1) K g, so K g / 2, when ``g`` declares its
    sectional curvature K; from the trace assembly otherwise.

    ``geometry``: a first-order ``ChartGeometry`` of the points ``x`` to
    assemble from; evaluated here when omitted.  Raises ``DomainError`` for
    n < 3, where the factor 1/(n-2) is undefined.
    """
    if g.n < 3:
        raise DomainError("the Schouten tensor needs n >= 3")
    xb, single = _batchify(x, g.n)
    geom = _geometry(g, xb) if geometry is None else _checked(geometry, xb)
    ric = _ricci_batch(g, geom)
    n = g.n
    scal = _g_trace(geom, ric)
    a = (ric - scal[:, None, None] * geom.gmat / (2.0 * (n - 1.0))) / (n - 2.0)
    return _unbatch(a, single)


def _covariant_hessian(geom, du, d2u):
    """Hess_g u = d^2 u - Gamma^m d_m u from the chart derivatives of u; d^2 u
    itself on a ``euclidean`` chart, where Gamma = 0."""
    if geom.euclidean:
        return d2u
    B, n = du.shape
    return d2u - (du[:, None, :] @ geom.gamma.reshape(B, n, n * n)).reshape(B, n, n)


def covariant_hessian(g, u, x):
    """Hess_g u = d^2 u - Gamma^m d_m u."""
    xb, single = _batchify(x, g.n)
    _, du, d2u = _factor_jet(u, xb)
    return _unbatch(_covariant_hessian(_geometry(g, xb), du, d2u), single)


def laplace_beltrami(g, u, x):
    """Delta_g u = tr_g Hess_g u."""
    xb, single = _batchify(x, g.n)
    geom = _geometry(g, xb)
    _, du, d2u = _factor_jet(u, xb)
    return _unbatch(_g_trace(geom, _covariant_hessian(geom, du, d2u)), single)


def _schouten_conformal_batch(geom, u):
    """A_{g_u} and the scale phi = u^(4/(n-2)) of g_u = phi g on the batch of
    ``geom``, from one jet (u, du, d^2 u) of the factor (``_factor_jet``).

    On a ``euclidean`` chart Hess_g u = d^2 u and |du|_g^2 = du . du.  Raises
    ``DomainError`` where u <= 0 and where A_{g_u} is not finite (a factor,
    derivative or metric component that is NaN or infinite there)."""
    xb = geom.points
    n = xb.shape[1]
    uval, du, d2u = _factor_jet(u, xb)
    uval = np.atleast_1d(uval)
    if np.any(uval <= 0.0):
        raise DomainError("conformal factor is nonpositive at a queried point")
    hess = _covariant_hessian(geom, du, d2u)
    row = du[:, None, :] if geom.euclidean else du[:, None, :] @ geom.ginv
    grad_sq = (row @ du[:, :, None])[:, 0, 0]
    c1 = 2.0 / (n - 2.0)
    c2 = 2.0 * n / (n - 2.0) ** 2
    c3 = 2.0 / (n - 2.0) ** 2
    a_u = (-c1 * hess / uval[:, None, None]
           + c2 * du[:, :, None] * du[:, None, :] / uval[:, None, None] ** 2
           - c3 * grad_sq[:, None, None] * geom.gmat / uval[:, None, None] ** 2
           + geom.a_bg)
    finite = np.isfinite(a_u).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"A_{{g_u}} is not finite at the queried point "
                          f"{xb[~finite][0].tolist()}: the conformal factor, its first two "
                          "derivatives or the metric is not finite there")
    return a_u, uval ** (4.0 / (n - 2.0))


def schouten_conformal(g, u, x):
    """Schouten tensor of g_u = u^(4/(n-2)) g, as a bilinear form in the chart."""
    xb, single = _batchify(x, g.n)
    a_u, _ = _schouten_conformal_batch(chart_geometry(g, xb), u)
    return _unbatch(a_u, single)


def _conformal_power(n):
    """The exponent 4/(n-2) of g_u = u^(4/(n-2)) g, undefined for n < 3."""
    if n < 3:
        raise DomainError("the conformal metric u^(4/(n-2)) g needs n >= 3")
    return 4.0 / (n - 2.0)


def conformal_metric_components(g, u, x):
    p = _conformal_power(g.n)
    xb, single = _batchify(x, g.n)
    uval = np.atleast_1d(u.value(xb))
    gmat = g.components(xb)
    phi = uval ** p
    return _unbatch(phi[:, None, None] * gmat, single)


def conformal_metric(g, u):
    """The metric u^(4/(n-2)) g as a new MetricField.

    Analytic derivatives when both inputs are analytic, otherwise finite
    differences on the product components.
    """
    n = g.n
    p = _conformal_power(n)

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


def _eigs_rel_scaled(geom, a, phi):
    """Eigenvalues of the forms ``a`` relative to phi g on the batch of
    ``geom``, ascending: eigvalsh(L^-1 a L^-T) / phi with the geometry's factor
    g = L L^T, since phi g = (sqrt(phi) L) (sqrt(phi) L)^T; eigvalsh(a) / phi
    on a ``euclidean`` chart, where L = I."""
    if geom.euclidean:
        # the products with I turn a -0.0 into +0.0, and eigvalsh reads the
        # sign of a zero
        return np.linalg.eigvalsh(a + 0.0) / phi[:, None]
    linv = geom.linv
    return np.linalg.eigvalsh(linv @ a @ np.swapaxes(linv, 1, 2)) / phi[:, None]


def conformal_schouten_eigs(g, u, x, *, geometry=None):
    """lambda(A_{g_u}) relative to g_u, ascending.

    ``geometry``: ``chart_geometry(g, x)`` to reuse, e.g. across the factors
    of a barrier sweep on one point grid; built here when omitted.
    """
    xb, single = _batchify(x, g.n)
    geom = chart_geometry(g, xb) if geometry is None else _checked(geometry, xb)
    a_u, phi = _schouten_conformal_batch(geom, u)
    return _unbatch(_eigs_rel_scaled(geom, a_u, phi), single)


def _ricci_conformal_batch(geom, u):
    """Ric_{g_u} = (n-2) A + tr_{g_u}(A) g_u, and phi, on the batch of ``geom``.

    With g_u = phi g, tr_{g_u}(A) = tr_g(A) / phi."""
    a_u, phi = _schouten_conformal_batch(geom, u)
    tr = _g_trace(geom, a_u) / phi
    gu = phi[:, None, None] * geom.gmat
    return (geom.points.shape[1] - 2.0) * a_u + tr[:, None, None] * gu, phi


def ricci_conformal(g, u, x):
    """Ric_{g_u} reconstructed from the Schouten tensor: (n-2) A + tr(A) g_u."""
    xb, single = _batchify(x, g.n)
    ric, _ = _ricci_conformal_batch(chart_geometry(g, xb), u)
    return _unbatch(ric, single)


def ricci_lower_margin(g, u, alpha, points):
    """min over points of the smallest eigenvalue of Ric_{g_u} + (n-1) alpha^2 g_u
    relative to g_u; nonnegative return certifies the Ricci lower bound there."""
    xb, _ = _batchify(points, g.n)
    geom = chart_geometry(g, xb)
    ric, phi = _ricci_conformal_batch(geom, u)
    shifted = ric + (g.n - 1.0) * alpha ** 2 * (phi[:, None, None] * geom.gmat)
    eigs = _eigs_rel_scaled(geom, shifted, phi)
    return float(eigs[:, 0].min())

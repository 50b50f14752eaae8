"""Radial Newton continuation on the round sphere.

Rotationally symmetric conformal factors u(theta) on the unit sphere reduce
the fully nonlinear curvature operator to two eigenvalue branches per node:
with the warped-product Hessian (radial part u'', tangential part
cot(theta) u') and background Schouten eigenvalues 1/2,

    lam_rad = [-2/(n-2) u''/u + 2(n-1)/(n-2)^2 (u'/u)^2 + 1/2] * u^(-4/(n-2)),
    lam_tan = [-2/(n-2) cot(theta) u'/u - 2/(n-2)^2 (u'/u)^2 + 1/2] * u^(-4/(n-2)),

the tangential branch carrying multiplicity n-1.  At the poles cot(theta) u'
is replaced by u'' (the removable-singularity limit for even profiles).

The solver walks the two-parameter residual family

    residual(u; s, t) = f_t(lambda(A_{g_u})) - psi * u^(-s)

with damped Newton steps and exact Jacobians.  A solve is one Newton run;
the (s, t) continuation is the one homotopy, a bisecting walk in which a
failed leg is halved toward its target.  The module also hosts the
semilinear family H_t used by the degree checkpoints.

The residual at node i is a function F(u_i, u'_i, u''_i), so its Jacobian
is J = diag(F_u) + diag(F_u') D1 + diag(F_u'') D2, tridiagonal on the
uniform grid.  The partials chain the closed-form partials of the two
eigenvalue branches (``_kernels.radial_sphere_eig_partials``) through the
gradient of f_t on two-valued rows (``CurvatureFunction.pair_gradient``).
H_t has its own exact Jacobian, -L + diag(...) plus the rank-one term of
mean(u^2).  No Newton run differences the residual; the dense
one-column difference is the tests' oracle.

A Newton run sees its problem as one callable, ``evaluate(u) ->
(residual, jacobian)``: the residual costs u', u'', the eigenvalue pair and
one ``value_batch`` pass, and the thunk ``jacobian()`` reuses them, so the
Jacobian is built only at accepted iterates and never recomputes the
eigenvalues.  An accepted state's cone margin is read in closed form from
its two-valued rows (``ConeSpec.pair_margin``).

Every Newton run stops at the resolution of its residual, rho =
eps * || |J| |u| ||_inf (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 7): the first-order change of the residual when u moves by
one rounding unit relative.  A run stops once its residual falls to
max(tol, rho); if rho > tol its residual cannot be told from rounding at
tol, and it raises ``ContinuationError`` naming rho and the tolerance.  The
spectral second-derivative matrix grows like the fourth power of the node
count, and on the Lobatto grid with 40 nodes or more rho exceeds the
default tolerance 1e-10: those solves raise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import linalg as sla

from . import _kernels
from .comparison import unit_sphere_area
from .errors import ContinuationError, DomainError

__all__ = [
    "RadialProfile",
    "ContinuationState",
    "radial_schouten_eigs",
    "schouten_eig_matrix",
    "residual_Fs",
    "newton_solve",
    "newton_continuation",
    "linearized_H0_spectrum",
    "ht_residual",
    "g0_residual",
    "g0_constant_solution",
    "ht_continuation",
    "HtState",
    "apriori_margins",
    "MarginReport",
]


# ---------------------------------------------------------------------------
# discretisation
# ---------------------------------------------------------------------------

def _cheb_matrix(m):
    # Chebyshev-Lobatto differentiation matrix on x_j = cos(j pi / m)
    if m == 0:
        return np.zeros((1, 1)), np.ones(1)
    x = np.cos(np.pi * np.arange(m + 1) / m)
    c = np.hstack([2.0, np.ones(m - 1), 2.0]) * (-1.0) ** np.arange(m + 1)
    xm = np.tile(x, (m + 1, 1)).T
    dx = xm - xm.T + np.eye(m + 1)
    d = np.outer(c, 1.0 / c) / dx
    d -= np.diag(d.sum(axis=1))
    return d, x


@functools.lru_cache(maxsize=None)
def _lobatto_matrices(num_nodes):
    """Read-only first and second derivative matrices in theta on the Lobatto
    grid: d2 squares the full first-derivative matrix, then the pole rows of
    d1 are zeroed (Neumann compatibility)."""
    dc, _ = _cheb_matrix(num_nodes - 1)
    d1 = -(2.0 / math.pi) * dc
    d2 = d1 @ d1
    d1[0, :] = 0.0
    d1[-1, :] = 0.0
    d1.flags.writeable = d2.flags.writeable = False
    return d1, d2


def _stencil_d1(v, h):
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _stencil_d2(v, h):
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    out[0] = 2.0 * (v[1] - v[0]) / h ** 2
    out[-1] = 2.0 * (v[-2] - v[-1]) / h ** 2
    return out


@functools.lru_cache(maxsize=None)
def _uniform_matrices(num_nodes, h):
    """Read-only three-point-stencil matrices of the uniform grid with spacing h:
    the first and second difference of the identity (even reflection at the
    poles)."""
    eye = np.eye(num_nodes)
    d1, d2 = _stencil_d1(eye, h), _stencil_d2(eye, h)
    d1.flags.writeable = d2.flags.writeable = False
    return d1, d2


@dataclass(frozen=True)
class RadialProfile:
    """Positive radial profile u(theta_j) on [0, pi] with pole-aware calculus.

    Both endpoints are grid nodes; the discretisation enforces the Neumann
    compatibility u'(0) = u'(pi) = 0 (even reflection on the uniform grid,
    zeroed pole rows of the spectral derivative on the Lobatto grid).
    """

    n: int
    theta: np.ndarray
    values: np.ndarray
    grid: str = "uniform"

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", values)
        if self.n < 3:
            raise DomainError(f"radial profile needs dimension n >= 3, got {self.n}")
        if len(theta) < 3:
            raise ValueError(f"radial profile needs at least 3 nodes, got {len(theta)}")
        if len(values) != len(theta):
            raise ValueError(f"theta has {len(theta)} nodes but values has {len(values)}")
        if np.any(values <= 0):
            raise DomainError("radial profile must be strictly positive")
        if self.grid not in ("uniform", "lobatto"):
            raise ValueError("grid must be 'uniform' or 'lobatto'")

    @classmethod
    def make(cls, n, num_nodes, values=None, grid="uniform"):
        m = num_nodes - 1
        if grid == "uniform":
            theta = np.linspace(0.0, math.pi, num_nodes)
        else:
            _, x = _cheb_matrix(m)
            theta = (math.pi / 2.0) * (1.0 - x)
        if values is None:
            values = np.ones(num_nodes)
        elif callable(values):
            values = values(theta)
        return cls(n=n, theta=theta, values=np.asarray(values, dtype=np.float64),
                   grid=grid)

    @property
    def num_nodes(self):
        return len(self.theta)

    def with_values(self, values):
        return replace(self, values=np.asarray(values, dtype=np.float64))

    # -- derivative operators -------------------------------------------------

    def _matrices(self):
        if self.grid == "uniform":
            return _uniform_matrices(self.num_nodes, float(self.theta[1] - self.theta[0]))
        return _lobatto_matrices(self.num_nodes)

    def d1_matrix(self):
        """(m, m) first-derivative matrix, built once per grid and shared read-only."""
        return self._matrices()[0]

    def d2_matrix(self):
        """(m, m) second-derivative matrix, built once per grid and shared read-only."""
        return self._matrices()[1]

    def d1(self, values=None):
        v = self.values if values is None else values
        if self.grid == "uniform":
            return _stencil_d1(v, self.theta[1] - self.theta[0])
        return self.d1_matrix() @ v

    def d2(self, values=None):
        v = self.values if values is None else values
        if self.grid == "uniform":
            return _stencil_d2(v, self.theta[1] - self.theta[0])
        return self.d2_matrix() @ v

    def pole_mask(self):
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[0] = mask[-1] = True
        return mask

    def cot_theta(self):
        out = np.zeros(self.num_nodes)
        out[1:-1] = 1.0 / np.tan(self.theta[1:-1])
        return out

    # -- quadrature over the sphere -------------------------------------------

    def quad_weights(self):
        """Weights for integration over S^n against the round measure."""
        th = self.theta
        w = np.empty_like(th)
        w[0] = 0.5 * (th[1] - th[0])
        w[-1] = 0.5 * (th[-1] - th[-2])
        w[1:-1] = 0.5 * (th[2:] - th[:-2])
        return unit_sphere_area(self.n) * np.sin(th) ** (self.n - 1.0) * w

    def integrate(self, values):
        return float(self.quad_weights() @ np.asarray(values))

    def volume(self):
        return self.integrate(np.ones(self.num_nodes))

    def laplacian(self, values=None):
        """Laplace-Beltrami of the radial function: u'' + (n-1) cot(theta) u'.

        ``values`` may be an (m,) profile or an (m, m) stack of columns, so
        ``laplacian(np.eye(m))`` is the operator's matrix.
        """
        v = self.values if values is None else values
        up = self.d1(v)
        upp = self.d2(v)
        cot = self.cot_theta().reshape((-1,) + (1,) * (np.ndim(v) - 1))
        out = upp + (self.n - 1.0) * cot * up
        out[0] = self.n * upp[0]
        out[-1] = self.n * upp[-1]
        return out


# ---------------------------------------------------------------------------
# Schouten eigenvalues and the fully nonlinear residual
# ---------------------------------------------------------------------------

def _eig_rows(rad, tan, n):
    out = np.empty((len(rad), n))
    out[:, 0] = rad
    out[:, 1:] = tan[:, None]
    return out


def schouten_eig_matrix(profile, values=None):
    """(num_nodes, n) eigenvalue rows [radial, tangential x (n-1)], unsorted."""
    v = profile.values if values is None else values
    if np.any(v <= 0):
        raise DomainError("conformal factor must stay positive")
    rad, tan = _kernels.radial_sphere_eigs(v, profile.d1(v), profile.d2(v), profile.cot_theta(),
                                           profile.pole_mask(), profile.n)
    return _eig_rows(rad, tan, profile.n)


def radial_schouten_eigs(profile, j):
    """Ascending eigenvalues of A_{g_u} relative to g_u at node j."""
    lam = schouten_eig_matrix(profile)[j]
    return np.sort(lam)


def _psi_values(psi, profile):
    if callable(psi):
        return np.asarray(psi(profile.theta), dtype=np.float64)
    return np.broadcast_to(np.asarray(psi, dtype=np.float64),
                           (profile.num_nodes,)).astype(np.float64)


def _residual_evaluator(profile, ft, s, weight):
    """``evaluate(u) -> (residual, jacobian)`` for u -> f_t(lambda(A_{g_u})) - weight * u^(-s).

    One evaluation takes u', u'', the eigenvalue pair and one
    ``value_batch`` pass (which raises ``ConeExitError`` on cone exit); a
    non-positive u raises ``DomainError``.  The thunk ``jacobian()`` builds
    the exact Jacobian from that evaluation's own u', u'' and eigenvalues:
    the residual at node i is F(u_i, u'_i, u''_i), so
    J = diag(F_u) + diag(F_u') D1 + diag(F_u'') D2, tridiagonal on the
    uniform grid, with the partials chained from
    ``_kernels.radial_sphere_eig_partials`` through the two-valued-row
    gradient of f_t (``CurvatureFunction.pair_gradient``).
    """
    n, cot, pole = profile.n, profile.cot_theta(), profile.pole_mask()

    def evaluate(u):
        if (u <= 0).any():
            raise DomainError("conformal factor must stay positive")
        up, upp = profile.d1(u), profile.d2(u)
        rad, tan = _kernels.radial_sphere_eigs(u, up, upp, cot, pole, n)
        res = ft.value_batch(_eig_rows(rad, tan, n)) - weight * u ** (-s)

        def jacobian():
            drad, dtan = _kernels.radial_sphere_eig_partials(u, up, upp, cot, pole, n, rad, tan)
            f_b, f_a = ft.pair_gradient(rad, tan)
            f_u, f_up, f_upp = f_b * drad + f_a * dtan
            jac = f_up[:, None] * profile.d1_matrix() + f_upp[:, None] * profile.d2_matrix()
            jac.flat[::len(u) + 1] += f_u + s * weight * u ** (-s - 1.0)  # the diagonal
            return jac

        return res, jacobian

    return evaluate


def residual_Fs(profile, f, s, psi=1.0, values=None):
    """Nodewise f_t(lambda(A_{g_u})) - psi * u^(-s); raises on cone exit.

    The residual of one Newton evaluation (``_residual_evaluator``).
    """
    v = profile.values if values is None else values
    return _residual_evaluator(profile, f, s, _psi_values(psi, profile))(v)[0]


# ---------------------------------------------------------------------------
# continuation states
# ---------------------------------------------------------------------------

@dataclass
class ContinuationState:
    s: float
    t: float
    alpha: float
    profile: RadialProfile
    residual_norm: float
    min_cone_margin: float
    min_u: float
    max_u: float
    max_abs_log_u: float
    c1_log: float
    c2_log: float
    ricci_margin: float
    newton_iterations: int = 0


def _ricci_margin_from_eigs(lam, n, alpha=0.0):
    # eigenvalues of Ric_{g_u} + (n-1) alpha^2 g_u relative to g_u
    s1 = lam.sum(axis=1)
    rel = (n - 2.0) * lam + s1[:, None] + (n - 1.0) * alpha ** 2
    return float(rel.min())


def make_state(profile, f, s, t, psi=1.0, alpha=0.0, iterations=0):
    """The ``ContinuationState`` of a profile at (s, t).

    The rows are two-valued, so the cone margin is read in closed form
    (``ConeSpec.pair_margin``), not by the root finder of ``margin_batch``.
    """
    ft = f.deform(t) if t != 1.0 else f
    v = profile.values
    lam = schouten_eig_matrix(profile, v)
    res = ft.value_batch(lam) - _psi_values(psi, profile) * v ** (-s)
    margin = float(ft.cone.pair_margin(lam[:, 0], lam[:, 1]).min())
    logu = np.log(profile.values)
    state = ContinuationState(
        s=s, t=t, alpha=alpha, profile=profile,
        residual_norm=float(np.abs(res).max()),
        min_cone_margin=margin,
        min_u=float(profile.values.min()),
        max_u=float(profile.values.max()),
        max_abs_log_u=float(np.abs(logu).max()),
        c1_log=float(np.abs(profile.d1(logu)).max()),
        c2_log=float(np.abs(profile.d2(logu)).max()),
        ricci_margin=_ricci_margin_from_eigs(lam, profile.n, alpha),
        newton_iterations=iterations,
    )
    return state


_NEWTON_MAX_ITER, _HT_MAX_ITER, _HT_TOL = 60, 40, 1e-10


def _resolution(jac, u):
    """rho = eps * || |J| |u| ||_inf: the first-order change of the residual
    when every u_j moves by one rounding unit relative."""
    return float(np.finfo(np.float64).eps * (np.abs(jac) @ np.abs(u)).max())


def _damped_newton(evaluate, u0, tol, max_iter):
    """Affine-covariant damped Newton (natural monotonicity line search).

    ``evaluate(u)`` returns ``(residual, jacobian)``, where the thunk
    ``jacobian()`` builds the exact Jacobian at u from that evaluation's own
    intermediates; ``evaluate`` raises ``DomainError`` (or its subclass
    ``ConeExitError``) where the residual is undefined.  The thunk is called
    once per accepted iterate, so a damping trial costs one residual and a
    rejected trial no Jacobian.  Steps are accepted when the simplified
    Newton correction contracts,
    ||J^-1 R(u + a*step)|| <= (1 - a/2) ||J^-1 R(u)||, a test that is
    invariant under the ill-conditioning of the stencil operator; trial
    points violating positivity or the cone are skipped by halving a.
    Finiteness is checked once per step, on rho below: a Jacobian with a
    NaN or inf entry raises ``ContinuationError``, and the LU calls skip
    scipy's own scans.  Convergence is declared in the discrete max norm,
    and only above the residual's resolution at u:
    rho = eps * || |J| |u| ||_inf is the first-order change of the residual
    under a relative perturbation of u by one rounding unit (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 7).  A run whose
    residual falls to max(tol, rho) stops; if rho > tol it raises
    ``ContinuationError`` naming both, since its residual cannot be told
    from rounding at ``tol``.  Returns (u, iterations, residual_norm); a
    start that meets ``tol`` is returned after 0 iterations.
    """
    u = np.asarray(u0, dtype=np.float64).copy()
    r, jacobian = evaluate(u)
    rn = float(np.abs(r).max())
    it = 0
    while True:
        jac = jacobian()
        rho = _resolution(jac, u)
        if not math.isfinite(rho):
            raise ContinuationError("non-finite Jacobian in Newton step")
        if rn <= max(tol, rho):
            if rho > tol:
                raise ContinuationError(
                    f"tolerance {tol:g} lies below the resolution rho = {rho:.3g} "
                    f"of the residual (residual {rn:g})")
            return u, it, rn
        if it == max_iter:
            raise ContinuationError(f"Newton did not reach tolerance, residual {rn:g}")
        lu = sla.lu_factor(jac, check_finite=False)
        delta = sla.lu_solve(lu, -r, check_finite=False)
        norm_delta = float(np.linalg.norm(delta))
        if not math.isfinite(norm_delta):
            raise ContinuationError("singular Jacobian in Newton step")
        alpha = 1.0
        while True:
            if alpha <= 1e-14:
                raise ContinuationError(f"Newton damping stalled at residual {rn:g}")
            trial = u + alpha * delta
            if np.all(trial > 0):
                try:
                    rt, jacobian_t = evaluate(trial)
                except DomainError:
                    rt = None
                if rt is not None:
                    dbar = sla.lu_solve(lu, -rt, check_finite=False)
                    nbar = float(np.linalg.norm(dbar))
                    if nbar <= (1.0 - 0.5 * alpha) * norm_delta or nbar < 1e-13:
                        u, r, jacobian = trial, rt, jacobian_t
                        rn = float(np.abs(r).max())
                        break
            alpha *= 0.5
        it += 1


def newton_solve(profile, f, s, t=1.0, psi=1.0, tol=1e-10):
    """Damped Newton solve of residual(u; s, t) = 0 from the given profile.

    One affine-covariant Newton run on the residual.  The returned state is
    certified at ``tol`` in the max norm, above the residual's resolution
    (see ``_damped_newton``); a run that stalls or meets the resolution
    stop raises ``ContinuationError`` without a ``last_state`` (a start
    outside the cone raises ``ConeExitError``), and ``newton_continuation``
    bisects the leg.  A start Newton cannot take from cold (the round
    sphere at s = 0, psi = 1, where the solutions form a noncompact
    conformal family) is reached by walking s down from s > 0.
    """
    ft = f.deform(t) if t != 1.0 else f
    evaluate = _residual_evaluator(profile, ft, s, _psi_values(psi, profile))
    u, iters, _ = _damped_newton(evaluate, profile.values, tol, _NEWTON_MAX_ITER)
    return make_state(profile.with_values(u), f, s, t, psi, iterations=iters)


def newton_continuation(start, schedule, f, psi=1.0, tol=1e-10, max_steps=400,
                        min_step=1e-6):
    """Walk the (s, t) schedule from an already-converged start state.

    Each accepted state satisfies residual <= tol, u > 0 and a strictly
    positive cone margin; a failed leg is bisected in parameter space (its
    midpoint is walked first), and the walk aborts with the last good state
    once a failing leg is shorter than ``min_step`` (max norm) or the
    attempts exceed ``max_steps``.  Returns the accepted states.
    """
    if start.residual_norm > tol:
        raise ValueError("continuation start state does not satisfy the tolerance")
    states = [start]
    pending = list(schedule)
    attempts = 0
    while pending:
        cur, (s, t) = states[-1], pending[0]
        attempts += 1
        if attempts > max_steps:
            raise ContinuationError("continuation exceeded the step budget",
                                    last_state=cur)
        try:
            state = newton_solve(cur.profile, f, s, t, psi, tol)
            if state.min_cone_margin <= 0:
                raise ContinuationError("cone margin lost at accepted state")
        except (ContinuationError, DomainError):
            if max(abs(s - cur.s), abs(t - cur.t)) < min_step:
                raise ContinuationError("continuation step underflow",
                                        last_state=cur)
            pending.insert(0, (0.5 * (cur.s + s), 0.5 * (cur.t + t)))
            continue
        states.append(state)
        pending.pop(0)
    return states


# ---------------------------------------------------------------------------
# semilinear family H_t and its checkpoints
# ---------------------------------------------------------------------------

def _cn(n):
    return (n - 2.0) / (4.0 * (n - 1.0))


def _ht_terms(profile, t, v):
    # (p_t, the linear coefficient, the source factor) of H_t at v
    n = profile.n
    p = n / (n - 2.0)
    pt = (1.0 - t) + t * p
    scal = n * (n - 1.0)
    mean_u2 = profile.integrate(v ** 2) / profile.volume()
    coef = (1.0 - t) + t * _cn(n) * scal
    source = (1.0 - t) * mean_u2 + t
    return pt, coef, source


def ht_residual(profile, t, values=None):
    """H_t[u] = -Lap u + [(1-t) + t c(n) R] u - [(1-t) mean(u^2) + t] u^(p_t).

    On the unit round sphere R = n(n-1), p = n/(n-2), p_t = (1-t) + t p and
    mean(u^2) is the volume-normalised integral of u^2.
    """
    v = profile.values if values is None else values
    pt, coef, source = _ht_terms(profile, t, v)
    return -profile.laplacian(v) + coef * v - source * v ** pt


def _ht_jacobian(profile, t, v):
    """Exact Jacobian of ``ht_residual``: -L + diag(coef - source p_t u^(p_t-1))
    less the rank-one term (1-t) u^(p_t) (2 w u / Vol)^T of mean(u^2), with w
    the quadrature weights."""
    pt, coef, source = _ht_terms(profile, t, v)
    jac = -profile.laplacian(np.eye(profile.num_nodes))
    jac[np.diag_indices_from(jac)] += coef - source * pt * v ** (pt - 1.0)
    jac -= np.outer((1.0 - t) * v ** pt, 2.0 * profile.quad_weights() * v / profile.volume())
    return jac


def g0_residual(profile, values=None):
    """-Lap u + c(n) R u - u^(n/(n-2)), the t = 1 member written directly."""
    n = profile.n
    v = profile.values if values is None else values
    lap = profile.laplacian(v)
    return -lap + _cn(n) * n * (n - 1.0) * v - v ** (n / (n - 2.0))


def g0_constant_solution(n):
    """The constant positive root of c(n) R u = u^(n/(n-2)) on the unit sphere."""
    return (n * (n - 2.0) / 4.0) ** ((n - 2.0) / 2.0)


@dataclass
class HtState:
    t: float
    profile: RadialProfile
    residual_norm: float
    band_lo: Optional[float]
    band_hi: Optional[float]
    newton_iterations: int = 0


def _ht_band(profile, t):
    # the normalised quantity s^(1/(p_t - 1)) * u; meaningful for t > 0
    n = profile.n
    p = n / (n - 2.0)
    pt = (1.0 - t) + t * p
    if pt - 1.0 < 1e-8:
        return None, None
    s = (1.0 - t) * profile.integrate(profile.values ** 2) / profile.volume() + t
    factor = math.exp(math.log(s) / (pt - 1.0))
    vals = factor * profile.values
    return float(vals.min()), float(vals.max())


def ht_continuation(profile, t_schedule):
    """Newton walk of the semilinear family along the t schedule."""
    states = []
    cur = profile
    for t in t_schedule:
        def evaluate(u, t=t, prof=cur):
            return ht_residual(prof, t, values=u), lambda: _ht_jacobian(prof, t, u)

        u, iters, rn = _damped_newton(evaluate, cur.values, _HT_TOL, _HT_MAX_ITER)
        cur = cur.with_values(u)
        lo, hi = _ht_band(cur, t)
        states.append(HtState(t=t, profile=cur, residual_norm=rn,
                              band_lo=lo, band_hi=hi, newton_iterations=iters))
    return states


def linearized_H0_spectrum(profile, m, return_vectors=False):
    """Lowest m eigenvalues of phi -> -Lap phi - (2/Vol) Int phi on radial fields.

    The unique nonpositive eigenvalue is -2 with constant eigenfunction; the
    rest of the spectrum is the radial Laplacian spectrum on mean-zero fields.
    """
    nn = profile.num_nodes
    lap = profile.laplacian(np.eye(nn))
    w = profile.quad_weights()
    a = -lap - (2.0 / profile.volume()) * np.tile(w, (nn, 1))
    vals, vecs = np.linalg.eig(a)
    order = np.argsort(vals.real)
    vals = vals.real[order][:m]
    if return_vectors:
        return vals, vecs.real[:, order][:, :m]
    return vals


# ---------------------------------------------------------------------------
# margin instrumentation
# ---------------------------------------------------------------------------

@dataclass
class MarginReport:
    max_abs_log_u: float
    c1_log: float
    c2_log: float
    min_cone_margin: float
    min_ricci_margin: float
    floor: float
    warnings: list


def apriori_margins(state, floor=1e-8):
    """Margin record of an accepted state; collapses below the floor raise flags."""
    warnings = []
    if state.min_cone_margin < floor:
        warnings.append(
            f"cone margin {state.min_cone_margin:.3e} below floor {floor:.1e}"
            " (blow-up warning)")
    if state.ricci_margin < -floor:
        warnings.append(f"Ricci margin {state.ricci_margin:.3e} negative")
    if state.min_u <= floor:
        warnings.append(f"min u {state.min_u:.3e} collapsing")
    return MarginReport(
        max_abs_log_u=state.max_abs_log_u,
        c1_log=state.c1_log,
        c2_log=state.c2_log,
        min_cone_margin=state.min_cone_margin,
        min_ricci_margin=state.ricci_margin,
        floor=floor,
        warnings=warnings,
    )

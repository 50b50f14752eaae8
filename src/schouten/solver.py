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
failed leg is halved toward its target.  Each leg starts from the secant
prediction u_k + c (u_k - u_(k-1)) of the last two accepted states, c the
projection of the leg's step in p = (s, t) onto the last one: a family
linear along the walk (n = 4 on the cone homotopy) is met at once, and a
prediction that is not positive or leaves the cone fails its leg like a
Newton run that does.  The module also hosts the degree checkpoints of the
semilinear family H_t: ``ht_residual``, its t = 1 member ``g0_residual``,
and ``linearized_H0_spectrum``, the spectrum of its linearisation at t = 0,
u = 1, the operator -L - (2/Vol) Int built in place.

The radial grid is the m-node cosine grid, theta_j = j pi / (m - 1): even
Fourier collocation, the discretisation of an even function of theta, which
a radial profile is.  ``RadialProfile`` holds (n, values); theta, D1, D2,
cot(theta) and the pole mask come from one cached builder,
``_grid(num_nodes)``, read-only and shared by every profile with m nodes.
Each diagonal of D1 and D2 is minus its row's off-diagonal sum (the
negative-sum trick), so D 1 = 0 up to rounding, and u', u'' and the
Laplacian apply the matrices to u - min(u): a constant has u' = u'' = 0
exactly, the operator stays the one the Jacobian is built from, and since
0 <= u - min(u) <= u for a positive profile the product rounds no worse
than D u.  The Laplacian's matrix (``_laplacian_matrix``) and the spectral
quadrature weights over S^n (``_cosine_weights``) are each built once per
(m, n) and read-only.

The residual at node i is a function F(u_i, u'_i, u''_i), so its Jacobian
is J = diag(F_u) + diag(F_u') D1 + diag(F_u'') D2, dense.  The partials
chain the closed-form partials of the two eigenvalue branches
(``_kernels.radial_sphere_eig_partials``) through the gradient of f_t on
two-valued rows (``CurvatureFunction.pair_value``).  No Newton run
differences the residual; the dense one-column difference is the tests'
oracle.

A Newton run sees its problem as one callable, ``evaluate(u) ->
(residual, jacobian)``: the residual costs u', u'', the eigenvalue pair
(lambda_rad, lambda_tan) and one closed-form pass over that pair
(``CurvatureFunction.pair_value``: membership, value and a gradient thunk),
and the thunk ``jacobian()`` reuses them, so the Jacobian is built only at
accepted iterates and never recomputes the eigenvalues.  The Newton loop
never expands the pair into (m, n) eigenvalue rows.  ``make_state`` does,
once per accepted state: its residual is the generic certificate
(``schouten_eig_matrix`` and ``value_batch``, the e_k recurrence), and its
cone margin is read in closed form (``ConeSpec.pair_margin``).

Every Newton run stops at the resolution of its residual, rho =
eps * || |J| |u| ||_inf (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 7): the first-order change of the residual when u moves by
one rounding unit relative.  A run stops once its residual falls to
max(tol, rho); if rho > tol its residual cannot be told from rounding at
tol, and it raises ``ContinuationError`` naming rho and the tolerance.  rho
grows like the square of the node count.  A stopped run is accepted only
if its normwise backward error
eta = ||r||_inf / || |J| |u| ||_inf is at most 1e-6 (``_ETA_MAX``): that
refuses a state whose scale has collapsed (u ~ 1e10, where rho shrinks
with the state and the residual passes tol only in absolute terms).

scipy is imported lazily: ``scipy.linalg`` loads at the first Newton run
of the process (``_damped_newton``), so importing the module, or running
any campaign that does not solve, costs numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .comparison import unit_sphere_area
from .errors import ContinuationError, DomainError

__all__ = [
    "RadialProfile",
    "ContinuationState",
    "schouten_eig_matrix",
    "residual_Fs",
    "newton_solve",
    "newton_continuation",
    "linearized_H0_spectrum",
    "ht_residual",
    "g0_residual",
    "g0_constant_solution",
]


def __getattr__(name):
    # ``solver.sla`` resolves to scipy.linalg without a module-level import:
    # perfbench's tracer wraps ``solver.sla.lu_factor``/``lu_solve``.  This
    # leaves together with scipy once the tracer reads a solver-owned
    # function instead (ROADMAP item 1, then item 8).
    if name == "sla":
        from scipy import linalg
        return linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# discretisation
# ---------------------------------------------------------------------------

def _cosine_matrices(m):
    # even Fourier collocation: the periodic differentiation matrices of the
    # 2(m-1)-point even extension (Trefethen, Spectral Methods in MATLAB,
    # ch. 3), each column folded with its mirror image onto the m nodes
    big, h = 2 * (m - 1), math.pi / (m - 1)
    k = np.arange(1, big)
    sign = (-1.0) ** k
    c1 = np.concatenate([[0.0], 0.5 * sign / np.tan(0.5 * h * k)])
    c2 = np.concatenate([[-math.pi ** 2 / (3.0 * h ** 2) - 1.0 / 6.0],
                         -0.5 * sign / np.sin(0.5 * h * k) ** 2])
    i, j = np.ogrid[:m, :m]
    d1, d2 = c1[(i - j) % big], c2[(i - j) % big]
    mirror = (i + j[:, 1:-1]) % big
    d1[:, 1:-1] += c1[mirror]
    d2[:, 1:-1] += c2[mirror]
    d1[[0, -1], :] = 0.0  # the pole rows: u' = 0 there
    # the negative-sum trick (Baltensperger & Trummer, SIAM J. Sci. Comput.
    # 24, 2003): each diagonal entry is minus its row's off-diagonal sum, so
    # D 1 = 0 up to the rounding of that sum
    for d in (d1, d2):
        np.fill_diagonal(d, 0.0)
        np.fill_diagonal(d, -d.sum(axis=1))
    return d1, d2


@functools.lru_cache(maxsize=None)
def _cosine_weights(m, n):
    """Read-only S^n weights of the m-node cosine grid, exact on cos(l theta),
    l < m: the integral of the type-I cosine interpolant (ends halved) against
    the moments M_l = int_0^pi cos(l theta) sin^(n-1) theta, which vanish for
    odd l and obey M_(l+2) = M_l (l - n + 1) / (l + n + 1)."""
    big = 2 * (m - 1)
    moments = np.zeros(m)
    moments[0] = unit_sphere_area(n + 1) / unit_sphere_area(n)
    for l in range(0, m - 2, 2):
        moments[l + 2] = moments[l] * (l - n + 1.0) / (l + n + 1.0)
    ends = np.ones(m)
    ends[[0, -1]] = 0.5
    l, j = np.ogrid[:m, :m]
    cos = np.cos(2.0 * math.pi / big * ((l * j) % big))
    w = unit_sphere_area(n) * (4.0 / big) * ends * ((ends * moments) @ cos)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=None)
def _laplacian_matrix(m, n):
    """Read-only (m, m) matrix of the radial Laplace-Beltrami operator on S^n,
    D2 + (n-1) cot(theta) D1, with the pole rows n D2 (the limit of
    cot(theta) u' at a pole is u'')."""
    _, d1, d2, cot, _ = _grid(m)
    lap = d2 + ((n - 1.0) * cot)[:, None] * d1
    lap[[0, -1], :] = n * d2[[0, -1], :]
    lap.flags.writeable = False
    return lap


@functools.lru_cache(maxsize=None)
def _grid(num_nodes):
    """Read-only (theta, D1, D2, cot(theta), pole mask) of the m-node cosine grid.

    The nodes are theta_j = j pi / (m - 1); cot(theta) is 0 at the poles.  D1
    and D2 are exact on cos(l theta), l < m, so u'(0) = u'(pi) = 0 holds by
    construction and -L has the zonal spectrum l(l + n - 1).
    """
    if num_nodes < 3:
        raise ValueError(f"radial profile needs at least 3 nodes, got {num_nodes}")
    theta = np.linspace(0.0, math.pi, num_nodes)
    d1, d2 = _cosine_matrices(num_nodes)
    cot = np.zeros(num_nodes)
    cot[1:-1] = 1.0 / np.tan(theta[1:-1])
    pole = np.zeros(num_nodes, dtype=bool)
    pole[0] = pole[-1] = True
    out = (theta, d1, d2, cot, pole)
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class RadialProfile:
    """Positive radial profile u(theta_j) on [0, pi] with pole-aware calculus.

    The grid is its node count: theta and every grid operator are derived
    from ``len(values)``, built once and shared read-only.  The nodes are
    theta_j = j pi / (m - 1), both endpoints included; even Fourier
    collocation enforces the Neumann compatibility u'(0) = u'(pi) = 0.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if self.n < 3:
            raise DomainError(f"radial profile needs dimension n >= 3, got {self.n}")
        _grid(len(values))
        if not np.all(values > 0):
            raise DomainError("radial profile must be strictly positive")

    @classmethod
    def make(cls, n, num_nodes, values=None):
        if values is None:
            values = np.ones(num_nodes)
        elif callable(values):
            values = values(_grid(num_nodes)[0])
        values = np.asarray(values, dtype=np.float64)
        if len(values) != num_nodes:
            raise ValueError(f"values has {len(values)} nodes but the grid has {num_nodes}")
        return cls(n=n, values=values)

    @property
    def num_nodes(self):
        return len(self.values)

    @property
    def theta(self):
        return _grid(self.num_nodes)[0]

    def with_values(self, values):
        values = np.asarray(values, dtype=np.float64)
        if len(values) != self.num_nodes:
            raise ValueError(f"with_values keeps the {self.num_nodes} nodes of the grid,"
                             f" got {len(values)} values")
        return replace(self, values=values)

    # -- derivative operators -------------------------------------------------

    def d1_matrix(self):
        """(m, m) first-derivative matrix, built once per grid and shared read-only."""
        return _grid(self.num_nodes)[1]

    def d2_matrix(self):
        """(m, m) second-derivative matrix, built once per grid and shared read-only."""
        return _grid(self.num_nodes)[2]

    def d1(self, values=None):
        """u' at the nodes: ``d1_matrix()`` applied to u - min(u) (an (m,)
        profile or an (m, k) stack of columns, each less its own minimum), so
        a constant has u' = 0 exactly; the operator the Jacobian is built
        from, since D1 1 = 0 up to rounding."""
        v = self.values if values is None else values
        return self.d1_matrix() @ (v - v.min(axis=0))

    def d2(self, values=None):
        """u'' at the nodes: ``d2_matrix()`` applied to u - min(u)."""
        v = self.values if values is None else values
        return self.d2_matrix() @ (v - v.min(axis=0))

    def pole_mask(self):
        return _grid(self.num_nodes)[4]

    def cot_theta(self):
        return _grid(self.num_nodes)[3]

    # -- quadrature over the sphere -------------------------------------------

    def quad_weights(self):
        """Weights for integration over S^n against the round measure, exact
        on cos(l theta), l < m (``_cosine_weights``), built once per (m, n)
        and shared read-only."""
        return _cosine_weights(self.num_nodes, self.n)

    def integrate(self, values):
        return float(self.quad_weights() @ np.asarray(values))

    def volume(self):
        return self.integrate(np.ones(self.num_nodes))

    def laplacian(self, values=None):
        """Laplace-Beltrami of the radial function, u'' + (n-1) cot(theta) u'
        (n u'' at the poles): the matrix ``_laplacian_matrix`` applied to
        u - min(u), so 0 on a constant exactly.  ``values`` may be an (m,)
        profile or an (m, k) stack of columns."""
        v = self.values if values is None else values
        return _laplacian_matrix(self.num_nodes, self.n) @ (v - v.min(axis=0))


# ---------------------------------------------------------------------------
# Schouten eigenvalues and the fully nonlinear residual
# ---------------------------------------------------------------------------

def schouten_eig_matrix(profile):
    """(num_nodes, n) eigenvalue rows [radial, tangential x (n-1)], unsorted."""
    v = profile.values
    if not np.all(v > 0):
        raise DomainError("conformal factor must stay positive")
    rad, tan = _kernels.radial_sphere_eigs(v, profile.d1(v), profile.d2(v), profile.cot_theta(),
                                           profile.pole_mask(), profile.n)
    out = np.empty((len(v), profile.n))
    out[:, 0] = rad
    out[:, 1:] = tan[:, None]
    return out


def _psi_values(psi, profile):
    if callable(psi):
        return np.asarray(psi(profile.theta), dtype=np.float64)
    return np.broadcast_to(np.asarray(psi, dtype=np.float64),
                           (profile.num_nodes,)).astype(np.float64)


def _residual_evaluator(profile, ft, s, weight):
    """``evaluate(u) -> (residual, jacobian)`` for u -> f_t(lambda(A_{g_u})) - weight * u^(-s).

    One evaluation takes u', u'', the eigenvalue pair and one closed-form
    pass over the pair, ``CurvatureFunction.pair_value`` (which raises
    ``ConeExitError`` on cone exit); a non-positive u raises
    ``DomainError``.  The thunk ``jacobian()`` builds the exact Jacobian
    from that evaluation's own u', u'', eigenvalues and values: the residual
    at node i is F(u_i, u'_i, u''_i), so
    J = diag(F_u) + diag(F_u') D1 + diag(F_u'') D2 (u' and u'' are D1 and D2
    applied to u - min(u), whose Jacobians are D1 and D2 since D 1 = 0 up to
    rounding), with the partials chained from
    ``_kernels.radial_sphere_eig_partials`` through the gradient thunk of
    ``pair_value``.
    """
    n, cot, pole = profile.n, profile.cot_theta(), profile.pole_mask()

    def evaluate(u):
        if not np.all(u > 0):
            raise DomainError("conformal factor must stay positive")
        up, upp = profile.d1(u), profile.d2(u)
        rad, tan = _kernels.radial_sphere_eigs(u, up, upp, cot, pole, n)
        vals, gradient = ft.pair_value(rad, tan)
        res = vals - weight * u ** (-s)

        def jacobian():
            drad, dtan = _kernels.radial_sphere_eig_partials(u, up, upp, cot, pole, n, rad, tan)
            f_b, f_a = gradient()
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
    profile: RadialProfile
    residual_norm: float
    min_cone_margin: float
    min_u: float
    max_u: float
    ricci_margin: float
    newton_iterations: int = 0


def _ricci_margin_from_eigs(lam, n):
    # eigenvalues of Ric_{g_u} relative to g_u
    s1 = lam.sum(axis=1)
    rel = (n - 2.0) * lam + s1[:, None]
    return float(rel.min())


def make_state(profile, f, s, t, psi=1.0, iterations=0):
    """The ``ContinuationState`` of a profile at (s, t).

    The residual is the generic certificate of the Newton loop's closed
    form: the (m, n) eigenvalue rows and one ``value_batch`` pass (the e_k
    recurrence).  The rows are two-valued, so the cone margin is read in
    closed form (``ConeSpec.pair_margin``), not by the root finder of
    ``margin_batch``.
    """
    ft = f.deform(t) if t != 1.0 else f
    v = profile.values
    lam = schouten_eig_matrix(profile)
    res = ft.value_batch(lam) - _psi_values(psi, profile) * v ** (-s)
    return ContinuationState(
        s=s, t=t, profile=profile,
        residual_norm=float(np.abs(res).max()),
        min_cone_margin=float(ft.cone.pair_margin(lam[:, 0], lam[:, 1]).min()),
        min_u=float(v.min()),
        max_u=float(v.max()),
        ricci_margin=_ricci_margin_from_eigs(lam, profile.n),
        newton_iterations=iterations,
    )


_NEWTON_MAX_ITER = 60
# the largest normwise backward error eta = ||r|| / || |J| |u| || a converged
# run may have: honest states read <= 1e-14, a collapsed scale reads ~1
_ETA_MAX = 1e-6
_EPS = float(np.finfo(np.float64).eps)


def _resolution(jac, u):
    """rho = eps * || |J| |u| ||_inf: the first-order change of the residual
    when every u_j moves by one rounding unit relative."""
    return float(_EPS * (np.abs(jac) @ np.abs(u)).max())


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
    scipy's own scans.  scipy.linalg is imported here, at the first Newton
    run of the process, and ``sla.lu_factor``/``sla.lu_solve`` are looked
    up on the module at each call, so a wrapper patched onto the module
    sees every factorisation.

    Convergence is declared in the discrete max norm, and only above the
    residual's resolution at u: rho = eps * || |J| |u| ||_inf is the
    first-order change of the residual under a relative perturbation of u
    by one rounding unit (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 7).  A run whose residual falls to max(tol, rho) stops;
    if rho > tol it raises ``ContinuationError`` naming both, since its
    residual cannot be told from rounding at ``tol``.  A stopped run is
    accepted only if its normwise backward error
    eta = ||r||_inf / || |J| |u| ||_inf = eps * ||r||_inf / rho is at most
    ``_ETA_MAX``: a run whose scale collapses (u blowing up so far that the
    residual is small only against |J| |u| ~ ||r||) raises
    ``ContinuationError`` naming eta.  Returns (u, iterations,
    residual_norm); a start that meets ``tol`` is returned after 0
    iterations.
    """
    from scipy import linalg as sla

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
            eta = _EPS * rn / rho if rho > 0 else (0.0 if rn == 0 else math.inf)
            if rho > tol:
                raise ContinuationError(
                    f"tolerance {tol:g} lies below the resolution rho = {rho:.3g} "
                    f"of the residual (residual {rn:g}, backward error eta = {eta:.3g})")
            if eta > _ETA_MAX:
                raise ContinuationError(
                    f"collapsed scale: backward error eta = {eta:.3g} exceeds "
                    f"{_ETA_MAX:g} (residual {rn:g}, max u {float(u.max()):.3g})")
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

    Each leg's Newton run starts from the secant prediction
    u_k + c (u_k - u_(k-1)) of the last two accepted states, with
    c = <p - p_k, p_k - p_(k-1)> / ||p_k - p_(k-1)||^2 for p = (s, t) (Allgower
    & Georg, Introduction to Numerical Continuation Methods, ch. 2); the first
    leg, a leg after two states at one p, and a leg orthogonal to the last
    one (c = 0) start from u_k itself.
    Each accepted state satisfies residual <= tol, u > 0 and a strictly
    positive cone margin; a leg whose prediction is not positive or leaves
    the cone fails like any other.  A failed leg is bisected in parameter
    space (its midpoint is walked first), and the walk aborts with the last
    good state once a failing leg is shorter than ``min_step`` (max norm) or
    the attempts exceed ``max_steps``.  Returns the accepted states.
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
        u = cur.profile.values
        if len(states) > 1:
            prev = states[-2]
            ds, dt = cur.s - prev.s, cur.t - prev.t
            step2 = ds * ds + dt * dt
            if step2 > 0:
                c = ((s - cur.s) * ds + (t - cur.t) * dt) / step2
                u = u + c * (u - prev.profile.values)
        try:
            state = newton_solve(cur.profile.with_values(u), f, s, t, psi, tol)
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

def _ht_terms(profile, t, v):
    # (p_t, the linear coefficient, the source factor) of H_t at v
    n = profile.n
    cn = (n - 2.0) / (4.0 * (n - 1.0))  # c(n); the scalar curvature is n(n-1)
    pt = (1.0 - t) + t * (n / (n - 2.0))
    coef = (1.0 - t) + t * cn * (n * (n - 1.0))
    mean_u2 = profile.integrate(v ** 2) / profile.volume()
    return pt, coef, (1.0 - t) * mean_u2 + t


def ht_residual(profile, t, values=None):
    """H_t[u] = -Lap u + [(1-t) + t c(n) R] u - [(1-t) mean(u^2) + t] u^(p_t).

    On the unit round sphere R = n(n-1), p = n/(n-2), p_t = (1-t) + t p and
    mean(u^2) is the volume-normalised integral of u^2.
    """
    v = profile.values if values is None else values
    pt, coef, source = _ht_terms(profile, t, v)
    return -profile.laplacian(v) + coef * v - source * v ** pt


def g0_residual(profile, values=None):
    """-Lap u + c(n) R u - u^(n/(n-2)): the t = 1 member of ``ht_residual``."""
    return ht_residual(profile, 1.0, values)


def g0_constant_solution(n):
    """The constant positive root of c(n) R u = u^(n/(n-2)) on the unit sphere."""
    return (n * (n - 2.0) / 4.0) ** ((n - 2.0) / 2.0)


def linearized_H0_spectrum(profile, m, return_vectors=False):
    """Lowest m eigenvalues of phi -> -Lap phi - (2/Vol) Int phi on radial fields.

    The operator is the linearisation of H_0 at u = 1, built in place as
    -L - 2 w / Vol (w the quadrature weights, one row per node): at t = 0,
    u = 1 the diagonal term of ``ht_residual`` vanishes and the rank-one
    term of mean(u^2) is (2/Vol) Int.  The unique nonpositive eigenvalue is
    -2 with constant eigenfunction; the rest of the spectrum is the radial
    Laplacian spectrum on mean-zero fields, l(l + n - 1) for l = 1..m-1,
    exact up to rounding.
    """
    w = profile.quad_weights()
    a = -_laplacian_matrix(profile.num_nodes, profile.n) - 2.0 * w / profile.volume()
    vals, vecs = np.linalg.eig(a)
    order = np.argsort(vals.real)
    vals = vals.real[order][:m]
    if return_vectors:
        return vals, vecs.real[:, order][:, :m]
    return vals

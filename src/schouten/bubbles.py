"""Standard bubbles, the stereographic conformal factor, and blow-up rescaling.

A bubble is the entire profile

    U_{a,p}(x) = c * (a / (1 + a^2 |x - p|^2))^((n-2)/2),   c = 2^((n-2)/2),

whose conformal metric U^(4/(n-2)) g_flat is the round sphere pulled back
through stereographic projection.  Its Schouten eigenvalues relative to that
metric are (1/2, ..., 1/2) at every point, which is what ``bubble_verify``
certifies numerically through the chart machinery in ``conformal``.  A
bubble's analytic factor is its jet (``Bubble.jet``), and so is a rescaled
factor's when the original has one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conformal as cf
from .errors import DomainError

__all__ = [
    "Bubble",
    "stereographic_factor",
    "bubble_verify",
    "rescale_profile",
    "BubbleReport",
]


@dataclass(frozen=True)
class Bubble:
    n: int
    a: float
    p: np.ndarray

    def __post_init__(self):
        if not self.a > 0:
            raise DomainError("bubble concentration scale must be positive")
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        if self.p.shape != (self.n,):
            raise ValueError("bubble center must have length n")

    @property
    def c(self):
        return 2.0 ** ((self.n - 2) / 2.0)

    @property
    def peak_value(self):
        return self.c * self.a ** ((self.n - 2) / 2.0)

    def _offset(self, x):
        """d = x - p, w = 1 + a^2 |d|^2 and whether ``x`` was one point."""
        x, single = cf._batchify(x, self.n)
        d = x - self.p
        return d, 1.0 + self.a ** 2 * (d ** 2).sum(axis=1), single

    def value(self, x):
        _, w, single = self._offset(x)
        out = self.c * (self.a / w) ** ((self.n - 2) / 2.0)
        return out[0] if single else out

    def jet(self, x):
        """(value, gradient, Hessian) at x from one batch check and one w."""
        d, w, single = self._offset(x)
        m = (self.n - 2) / 2.0
        val = self.c * (self.a / w) ** m
        k = -2.0 * m * self.a ** 2 * self.c * self.a ** m
        grad = (k * w ** (-m - 1.0))[:, None] * d
        core = (w[:, None, None] * cf._dim(self.n).eye
                - 2.0 * (m + 1.0) * self.a ** 2 * d[:, :, None] * d[:, None, :])
        hess = (k * w ** (-m - 2.0))[:, None, None] * core
        return (val[0], grad[0], hess[0]) if single else (val, grad, hess)

    def grad(self, x):
        return self.jet(x)[1]

    def hess(self, x):
        return self.jet(x)[2]

    def factor(self, mode="analytic", h=1e-4):
        """The bubble as a ConformalFactor: its jet, or finite differences."""
        if mode == "analytic":
            return cf.ConformalFactor(self.n, self.value, jet_fn=self.jet)
        if mode == "fd":
            return cf.ConformalFactor(self.n, self.value, h=h)
        raise ValueError(f"unknown derivative mode {mode!r}")


def stereographic_factor(n, x):
    """Conformal factor of the round metric in the stereographic chart: U_{1,0}(x).

    Satisfies (2 / (1 + |x|^2))^2 = U_{1,0}(x)^(4/(n-2)) exactly.
    """
    return Bubble(n=n, a=1.0, p=np.zeros(n)).value(x)


@dataclass
class BubbleReport:
    n: int
    a: float
    p: np.ndarray
    mode: str
    max_lambda_dev: float
    max_f_dev: float
    tol: float
    passed: bool


def bubble_verify(f, bubble, points, mode="analytic", tol=None):
    """Check lambda(A_{g_U}) = (1/2,...,1/2) and f(lambda) = 1 at the sample points.

    Tolerance defaults to 1e-8 for analytic derivatives and 1e-6 for the
    finite-difference mode.  Returns a failing report rather than raising.
    """
    if f.cone.n != bubble.n:
        raise ValueError("curvature function and bubble dimension mismatch")
    if tol is None:
        tol = 1e-8 if mode == "analytic" else 1e-6
    g = cf.MetricField.flat(bubble.n)
    u = bubble.factor(mode=mode)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    eigs = cf.conformal_schouten_eigs(g, u, pts)
    lam_dev = float(np.abs(eigs - 0.5).max())
    fvals = f.value_batch(eigs)
    f_dev = float(np.abs(fvals - 1.0).max())
    return BubbleReport(n=bubble.n, a=bubble.a, p=bubble.p, mode=mode,
                        max_lambda_dev=lam_dev, max_f_dev=f_dev, tol=tol,
                        passed=(lam_dev <= tol and f_dev <= tol))


def rescale_profile(u, y0, rule="critical", p_exp=None,
                    chart_lo=None, chart_hi=None):
    """Blow-up rescaling of a conformal factor around the point y0.

    Returns x -> (c / u(y0)) * u(y0 + beta x) with beta = (c / u(y0))^s,
    s = 2/(n-2) for the critical rule or s = (p_exp - 1)/2 for the
    subcritical one.  The rescaled field equals c at the origin by
    construction.  The chart is normal coordinates around y0, so the shift
    map is identity-plus-offset; chart bounds (both or neither) make
    evaluations outside the original domain raise a domain error.  A jet of
    ``u`` gives the rescaled factor one: one shift and one jet of ``u``.
    """
    if (chart_lo is None) != (chart_hi is None):
        raise ValueError("rescale_profile takes both chart bounds chart_lo and chart_hi")
    n = u.n
    y0 = np.asarray(y0, dtype=np.float64)
    c = 2.0 ** ((n - 2) / 2.0)
    u0 = float(u.value(y0))
    if u0 <= 0:
        raise DomainError("factor must be positive at the rescaling center")
    if rule == "critical":
        s = 2.0 / (n - 2.0)
    elif rule == "subcritical":
        if p_exp is None:
            raise ValueError("subcritical rule needs the exponent p_exp")
        s = (p_exp - 1.0) / 2.0
    else:
        raise ValueError(f"unknown scale rule {rule!r}")
    beta = (c / u0) ** s
    amp = c / u0

    def shifted(x):
        y = y0 + beta * np.atleast_2d(x)
        if chart_lo is not None and (np.any(y < chart_lo) or np.any(y > chart_hi)):
            raise DomainError("rescaled evaluation leaves the chart domain")
        return y

    def jet(x):
        val, du, d2u = u.jet_fn(shifted(x))
        return amp * val, amp * beta * du, amp * beta ** 2 * d2u

    return cf.ConformalFactor(n, lambda x: amp * u.value(shifted(x)),
                              jet_fn=None if u.jet_fn is None else jet, h=u.h)

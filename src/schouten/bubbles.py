"""Standard bubbles, the stereographic conformal factor, and blow-up rescaling.

A bubble is the entire profile

    U_{a,p}(x) = c * (a / (1 + a^2 |x - p|^2))^((n-2)/2),   c = 2^((n-2)/2),

whose conformal metric U^(4/(n-2)) g_flat is the round sphere pulled back
through stereographic projection.  Its Schouten eigenvalues relative to that
metric are (1/2, ..., 1/2) at every point, which is what ``bubble_verify``
certifies numerically through the chart machinery in ``conformal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conformal as cf
from .errors import DomainError

__all__ = [
    "Bubble",
    "bubble_eval",
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
        if self.a <= 0:
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

    def _w(self, x):
        rho2 = ((x - self.p) ** 2).sum(axis=1)
        return 1.0 + self.a ** 2 * rho2

    def value(self, x):
        x, single = cf._batchify(x, self.n)
        m = (self.n - 2) / 2.0
        out = self.c * (self.a / self._w(x)) ** m
        return out[0] if single else out

    def grad(self, x):
        x, single = cf._batchify(x, self.n)
        m = (self.n - 2) / 2.0
        w = self._w(x)
        coef = -2.0 * m * self.a ** 2 * self.c * self.a ** m * w ** (-m - 1.0)
        out = coef[:, None] * (x - self.p)
        return out[0] if single else out

    def hess(self, x):
        x, single = cf._batchify(x, self.n)
        n, m = self.n, (self.n - 2) / 2.0
        w = self._w(x)
        d = x - self.p
        coef = -2.0 * m * self.a ** 2 * self.c * self.a ** m * w ** (-m - 2.0)
        core = (w[:, None, None] * cf._dim(n).eye
                - 2.0 * (m + 1.0) * self.a ** 2 * d[:, :, None] * d[:, None, :])
        out = coef[:, None, None] * core
        return out[0] if single else out

    def factor(self, mode="analytic", h=1e-4):
        """The bubble as a ConformalFactor, analytic or finite-difference."""
        if mode == "analytic":
            return cf.ConformalFactor.from_callable(self.n, self.value, grad=self.grad,
                                                    hess=self.hess)
        if mode == "fd":
            return cf.ConformalFactor.from_callable(self.n, self.value, h=h)
        raise ValueError(f"unknown derivative mode {mode!r}")


def bubble_eval(bubble, x, deriv=0):
    """Bubble value (deriv=0), gradient (1) or Hessian (2) at x."""
    if deriv == 0:
        return bubble.value(x)
    if deriv == 1:
        return bubble.grad(x)
    if deriv == 2:
        return bubble.hess(x)
    raise ValueError("deriv must be 0, 1 or 2")


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
    map is identity-plus-offset; optional chart bounds make evaluations
    outside the original domain raise a domain error.
    """
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
        if chart_lo is not None:
            if np.any(y < chart_lo) or np.any(y > chart_hi):
                raise DomainError("rescaled evaluation leaves the chart domain")
        return y

    value = lambda x: amp * u.value(shifted(x))
    if u.mode == "analytic":
        grad = lambda x: amp * beta * u.grad(shifted(x))
        hess = lambda x: amp * beta ** 2 * u.hess(shifted(x))
        return cf.ConformalFactor.from_callable(n, value, grad=grad, hess=hess)
    return cf.ConformalFactor.from_callable(n, value, h=u.h, richardson=u.richardson)

"""Comparison-geometry quantities: distance bound, model volumes, volume ratios.

The model space is the simply connected space form of curvature -alpha^2;
``model_ball_volume`` uses the warped-profile quadrature

    Vol(B_r) = n c(n) * int_0^r (sinh(alpha t) / alpha)^(n-1) dt,

where c(n) is the Lebesgue volume of the unit ball in R^n (the reading under
which the alpha -> 0 limit reproduces the flat value c(n) r^n).  The warped
integrals (this one and the sphere's, with sin t and alpha = 1) are taken by
a fixed 32-node Gauss-Legendre rule on equal panels of [0, r].  The integrand
is like t^(n-1) near 0 and grows at most like exp(alpha (n-1) t) beyond, and
on a panel over which that exponential gains at most e^8 the rule is exact to
rounding level.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "ModelSpace",
    "unit_ball_volume",
    "unit_sphere_area",
    "hawking_bound",
    "model_ball_volume",
    "sphere_ball_volume",
    "bg_ratio",
    "BGRatioResult",
    "isoperimetric_ratio",
]


_PANEL_GROWTH = 8.0  # rate * panel width
# sinh(x) overflows a double beyond this x
_SINH_ARG_MAX = math.asinh(sys.float_info.max)


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the 32-node rule, built at first use: importing
    ``numpy.polynomial`` costs the many callers that never integrate."""
    from numpy.polynomial import legendre
    return legendre.leggauss(32)


def _panel_quadrature(f, r, rate):
    """int_0^r f(t) dt for ``f`` vectorised over t, on panels over which
    exp(rate * t) gains at most e^8 (see the module docstring)."""
    nodes, weights = _gauss_legendre()
    m = max(1, math.ceil(rate * r / _PANEL_GROWTH))
    h = r / m
    t = h * (np.arange(m)[:, None] + 0.5 * (nodes + 1.0))
    return 0.5 * h * float(np.sum(f(t) @ weights))


def unit_ball_volume(n):
    """Lebesgue volume of the unit ball in R^n.

    From n = 342 on Gamma(n/2 + 1) overflows a double, and a ``DomainError``
    naming n is raised.
    """
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError:
        raise DomainError(f"unit ball volume overflows a double at n={n}") from None


def unit_sphere_area(n):
    """Surface area of the unit sphere S^(n-1) in R^n (= n * c(n))."""
    return n * unit_ball_volume(n)


@dataclass(frozen=True)
class ModelSpace:
    """Space form of curvature -alpha^2 (alpha = 0 is flat)."""

    n: int
    alpha: float = 0.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("curvature parameter alpha must be nonnegative")


def hawking_bound(alpha, c0):
    """Maximal distance to a mean-convex boundary under Ric >= -(n-1) alpha^2.

    Requires the boundary mean curvature H > (n-1) c0 > (n-1) alpha; returns
    1/c0 when alpha = 0 and arccoth(c0/alpha)/alpha otherwise.  The two
    branches join continuously as alpha -> 0.
    """
    if c0 <= alpha or alpha < 0:
        raise DomainError("hawking bound needs c0 > alpha >= 0")
    if alpha == 0.0:
        return 1.0 / c0
    return math.atanh(alpha / c0) / alpha


def model_ball_volume(model, r):
    """Geodesic-ball volume in the curvature -alpha^2 model space."""
    if not 0 < r < math.inf:
        raise DomainError("radius must be positive and finite")
    n, alpha = model.n, model.alpha
    cn = unit_ball_volume(n)
    vol = math.inf
    if alpha == 0.0:
        # a float power that overflows raises rather than returning inf
        try:
            vol = cn * r ** n
        except OverflowError:
            pass
    # beyond _SINH_ARG_MAX the integrand at r is inf; checking first also bounds the
    # panel count
    elif alpha * r <= _SINH_ARG_MAX:
        with np.errstate(over="ignore"):
            vol = n * cn * _panel_quadrature(
                lambda t: (np.sinh(alpha * t) / alpha) ** (n - 1), r, alpha * (n - 1))
    if math.isfinite(vol):
        return vol
    raise DomainError(f"model ball volume overflows a double at n={n}, alpha={alpha}, r={r}")


def sphere_ball_volume(n, r):
    """Geodesic-ball volume on the unit round sphere S^n (0 < r <= pi)."""
    if not 0 < r <= math.pi:
        raise DomainError("sphere geodesic radius must lie in (0, pi]")
    # Vol(B_r) = |S^(n-1)| * int_0^r sin^(n-1) t dt on the unit round S^n
    return unit_sphere_area(n) * _panel_quadrature(lambda t: np.sin(t) ** (n - 1), r, n - 1)


@dataclass
class BGRatioResult:
    radii: np.ndarray
    volumes: np.ndarray
    model_volumes: np.ndarray
    ratios: np.ndarray
    nonincreasing: bool
    max_increase: float


def bg_ratio(volumes, model, radii):
    """Ratio r -> Vol(B_r) / Vol_model(B_r) and its monotonicity verdict.

    ``volumes`` is the callable r -> Vol(B_r); successive ratio increases up
    to 1e-8 (relative) are treated as round-off.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and increasing")
    vol = np.array([float(volumes(r)) for r in radii])
    if np.any(vol <= 0) or np.any(np.diff(vol) < 0):
        raise ValueError("volumes must be positive and nondecreasing")
    mvol = np.array([model_ball_volume(model, r) for r in radii])
    ratios = vol / mvol
    increases = np.diff(ratios) / np.abs(ratios[:-1])
    max_inc = float(increases.max()) if len(increases) else 0.0
    return BGRatioResult(radii=radii, volumes=vol, model_volumes=mvol,
                         ratios=ratios, nonincreasing=bool(max_inc <= 1e-8),
                         max_increase=max_inc)


def isoperimetric_ratio(n, area, volume):
    """Diagnostic area^(n/(n-1)) / volume; no sharp constant is asserted.

    Equals n^(n/(n-1)) c(n)^(1/(n-1)) for the Euclidean ball and is invariant
    under the scaling (area, volume) -> (t^(n-1) area, t^n volume).
    """
    if area <= 0 or volume <= 0:
        raise DomainError("area and volume must be positive")
    return area ** (n / (n - 1.0)) / volume

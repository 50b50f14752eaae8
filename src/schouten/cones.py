"""Elementary symmetric functions, Garding cones and degree-one curvature functions.

The cone family covered is Gamma_k (connected component of {sigma_k > 0}
containing the positive orthant, characterised by sigma_j > 0 for j = 1..k)
together with its linear deformation

    Gamma_t = {lam : t*lam + (1-t)*sigma_1(lam)*e in Gamma},   e = (1,...,1),

which connects an arbitrary base cone at t = 1 to the half-space sigma_1 > 0
at t = 0.  Curvature functions are the normalised sigma_k^(1/k) family and
their matching deformations f_t(lam) = f(t*lam + (1-t)*sigma_1(lam)*e).
Other degree-one concave symmetric functions can be added by mimicking
``CurvatureFunction``; only this family is shipped.

The radial solver's eigenvalue rows are two-valued, (b; a, ..., a) with a
repeated n - 1 times, and T_t keeps that shape.  Two entry points take such
rows as the pair (b, a) and work in closed form: ``CurvatureFunction.
pair_gradient`` (the gradient of f_t) and ``ConeSpec.pair_margin`` (the
diagonal-ray margin, equal to ``margin_batch`` of the full rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import BrokenConeError, ConeExitError

__all__ = [
    "ConeSpec",
    "CurvatureFunction",
    "sigma_k",
    "sigma_all",
    "gamma_k_member",
    "cone_margin",
    "mu_plus",
    "gamma_mu_plus",
    "f_eval",
    "homotopy_ft",
]


# bisection levels of ``ConeSpec.mu_plus`` resolved per membership call
# (2**levels - 1 rays per batch)
_MU_PLUS_LEVELS = 6


def sigma_all(lam, kmax):
    """All elementary symmetric values (e_0, ..., e_kmax) of one vector."""
    lam = np.atleast_2d(np.asarray(lam, dtype=np.float64))
    return _kernels.elementary_symmetric(lam, int(kmax))[0]


def sigma_k(lam, k):
    """k-th elementary symmetric polynomial, stable prefix recurrence (O(nk))."""
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return float(sigma_all(lam, k)[k])


def _as_batch(lam):
    lam = np.asarray(lam, dtype=np.float64)
    single = lam.ndim == 1
    return np.atleast_2d(lam), single


@dataclass(frozen=True)
class ConeSpec:
    """A cone Gamma_t deformed from Gamma_k; t = 1 is Gamma_k itself.

    Membership, the diagonal-ray margin and the ray-boundary constant mu_plus
    are all reduced to the base cone through the linear map
    T_t(lam) = t*lam + (1-t)*sigma_1(lam)*e.
    """

    n: int
    k: int
    t: float = 1.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("cone dimension must be >= 3")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must lie in 1..{self.n}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("homotopy parameter t must lie in [0, 1]")

    @classmethod
    def gamma(cls, n, k):
        return cls(n=n, k=k)

    @classmethod
    def homotopy(cls, n, k, t):
        return cls(n=n, k=k, t=t)

    @property
    def kind(self):
        return "gamma_k" if self.t == 1.0 else "homotopy"

    def deform(self, t):
        return ConeSpec(self.n, self.k, t)

    # -- membership / margin -------------------------------------------------

    def _map(self, lams):
        if self.t == 1.0:
            return lams
        s1 = lams.sum(axis=1, keepdims=True)
        return self.t * lams + (1.0 - self.t) * s1

    def contains_batch(self, lams):
        lams, _ = _as_batch(lams)
        if lams.shape[1] != self.n:
            raise ValueError("vector length does not match cone dimension")
        return _kernels.gamma_member(self._map(lams), self.k)

    def contains(self, lam):
        return bool(self.contains_batch(lam)[0])

    def margin_batch(self, lams):
        """sup{t : lam - t*(1,..,1) in cone}; positive strictly inside."""
        lams, _ = _as_batch(lams)
        if lams.shape[1] != self.n:
            raise ValueError("vector length does not match cone dimension")
        m = _kernels.gamma_margin(self._map(lams), self.k)
        # shifting lam by s*e shifts T_t(lam) by s*(t + (1-t)*n)*e
        return m / (self.t + (1.0 - self.t) * self.n)

    def margin(self, lam):
        return float(self.margin_batch(lam)[0])

    def pair_margin(self, b, a):
        """``margin_batch`` of the two-valued rows (b; a, ..., a), a n - 1 times, in closed form.

        T_t maps such a row to (B; A, ..., A), and sigma_k(T_t lam - tau e) =
        C(n-1, k-1) (A - tau)^(k-1) ((B - tau) + (n-k)/k (A - tau)): its roots
        in tau are A (k - 1 times) and ((n-k) A + k B)/n, all real as
        hyperbolicity in e demands (Garding 1959), and the margin is the
        smallest of them.  Rows with a non-finite entry give -inf.
        """
        n, k, t = self.n, self.k, self.t
        b = np.asarray(b, dtype=np.float64)
        a = np.asarray(a, dtype=np.float64)
        big_b, big_a = b, a
        if t != 1.0:
            s1 = b + (n - 1.0) * a
            big_b, big_a = t * b + (1.0 - t) * s1, t * a + (1.0 - t) * s1
        m = ((n - k) * big_a + k * big_b) / n
        if k > 1:
            m = np.minimum(big_a, m)
        m = m / (t + (1.0 - t) * n)
        return np.where(np.isfinite(b) & np.isfinite(a), m, -np.inf)

    def mu_plus(self, tol=1e-10):
        """Unique mu in [0, n-1] with (-mu, 1, ..., 1) on the cone boundary."""
        n = self.n

        def member(mu, cone=self):
            lam = np.ones(n)
            lam[0] = -mu
            return cone.contains(lam)

        # sigma_1(T_t lam) = (t + (1-t) n) sigma_1(lam): the sigma_1 = 0 edge ray
        # is tested on the base cone, where it sums to zero without rounding
        if member(n - 1.0, self.deform(1.0)):
            raise BrokenConeError("(-(n-1),1,...,1) inside cone; sigma_1 sandwich violated")
        if not member(0.0):
            if not member(-1e-9):
                raise BrokenConeError("positive orthant not inside cone")
            return 0.0
        # Bisection, _MU_PLUS_LEVELS levels per membership call: the interior
        # points of the bracket's dyadic grid are built by the same midpoint
        # formula and tested in one batch, then the bisection is replayed on
        # them, so the result is bit-identical to one call per midpoint.
        lo, hi = 0.0, n - 1.0
        while hi - lo > tol:
            grid = np.array([lo, hi])
            for _ in range(_MU_PLUS_LEVELS):
                fine = np.empty(2 * grid.size - 1)
                fine[0::2] = grid
                fine[1::2] = 0.5 * (grid[:-1] + grid[1:])
                grid = fine
            lam = np.ones((grid.size - 2, n))
            lam[:, 0] = -grid[1:-1]
            inside = self.contains_batch(lam)  # inside[i - 1] is grid point i
            i, j = 0, grid.size - 1
            while j - i > 1 and grid[j] - grid[i] > tol:
                mid = (i + j) // 2
                if inside[mid - 1]:
                    i = mid
                else:
                    j = mid
            lo, hi = float(grid[i]), float(grid[j])
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CurvatureFunction:
    """Normalised degree-one curvature function kappa * sigma_k^(1/k) on a cone.

    kappa is fixed once per (n, k) so that the value at (1/2, ..., 1/2) -- the
    Schouten eigenvalues of the round sphere -- equals 1.  Deformed members
    (cone.t < 1) evaluate the base function on T_t(lam) and keep the base
    normalisation, so the t = 0 endpoint is lam -> f(e) * sigma_1(lam).
    """

    cone: ConeSpec
    kappa: float = field(default=None)

    def __post_init__(self):
        if self.kappa is None:
            object.__setattr__(self, "kappa", self._normalisation(self.cone.n, self.cone.k))

    @staticmethod
    def _normalisation(n, k):
        return 2.0 / math.comb(n, k) ** (1.0 / k)

    @classmethod
    def sigma_root(cls, n, k):
        return cls(cone=ConeSpec.gamma(n, k))

    def deform(self, t):
        return CurvatureFunction(cone=self.cone.deform(t), kappa=self.kappa)

    def value_batch(self, lams):
        """Values at (rows, n) eigenvalue vectors, with one cone-membership pass.

        Raises ``ConeExitError`` whose ``node`` is the first row outside the cone.
        """
        lams, single = _as_batch(lams)
        ok = self.cone.contains_batch(lams)
        if not ok.all():
            node = int(np.argmin(ok))
            raise ConeExitError(f"eigenvalues left the cone at node {node}", node=node)
        e = _kernels.elementary_symmetric(self.cone._map(lams), self.cone.k)
        vals = self.kappa * e[:, self.cone.k] ** (1.0 / self.cone.k)
        return vals[0] if single else vals

    def value(self, lam):
        return float(self.value_batch(np.asarray(lam, dtype=np.float64)))

    def pair_gradient(self, b, a):
        """(df/db, df/da) at the two-valued rows (b; a, ..., a), a n - 1 times.

        T_t maps such a row to (B; A, ..., A) with B = b + (1-t)(n-1) a and
        A = (1-t) b + (t + (1-t)(n-1)) a, where
        sigma_k = C(n-1, k-1) A^(k-1) B + C(n-1, k) A^k; df/da moves all n - 1
        entries a together.  The rows must lie inside the cone.
        """
        n, k, t = self.cone.n, self.cone.k, self.cone.t
        big_b = b + (1.0 - t) * (n - 1.0) * a
        big_a = (1.0 - t) * b + (t + (1.0 - t) * (n - 1.0)) * a
        c_b, c_a = math.comb(n - 1, k - 1), math.comb(n - 1, k)
        ds_db = c_b * big_a ** (k - 1)
        sigma = ds_db * big_b + c_a * big_a ** k
        ds_da = k * c_a * big_a ** (k - 1)
        if k > 1:
            ds_da = ds_da + (k - 1) * c_b * big_a ** (k - 2) * big_b
        scale = (self.kappa / k) * sigma ** (1.0 / k - 1.0)
        f_b, f_a = scale * ds_db, scale * ds_da
        return (f_b + (1.0 - t) * f_a,
                (1.0 - t) * (n - 1.0) * f_b + (t + (1.0 - t) * (n - 1.0)) * f_a)

    def power_value_batch(self, lams):
        """kappa^k * sigma_k(T_t lam), the k-th power of the function value.

        Polynomial in lam, hence defined (and smooth) across the cone
        boundary; no membership check is performed.  Equals value(...)**k
        inside the cone.
        """
        lams, single = _as_batch(lams)
        mapped = self.cone._map(lams)
        e = _kernels.elementary_symmetric(mapped, self.cone.k)
        vals = self.kappa ** self.cone.k * e[:, self.cone.k]
        return vals[0] if single else vals


# -- module-level operation aliases -----------------------------------------

def gamma_k_member(lam, k):
    """True iff lam lies in the open cone Gamma_k (sigma_j > 0, j = 1..k)."""
    lam = np.asarray(lam, dtype=np.float64)
    return ConeSpec.gamma(lam.shape[-1], k).contains(lam)


def cone_margin(lam, cone):
    return cone.margin(lam)


def mu_plus(cone, tol=1e-10):
    return cone.mu_plus(tol=tol)


def gamma_mu_plus(n, k):
    """mu_plus of Gamma_k in R^n in closed form, (n - k)/k.

    ``ConeSpec.gamma(n, k).mu_plus()`` bisects to the same value within its
    tolerance, which the ``cones mu-plus`` campaign certifies.  Guards and
    ranges read this value: at n = 2k the bisected one lies above 1.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return (n - k) / k


def f_eval(f, lam):
    return f.value(lam)


def homotopy_ft(f, t, lam):
    """Value of the deformed function f_t(lam) = f(t*lam + (1-t)*sigma_1(lam)*e)."""
    if f.cone.t != 1.0:
        raise ValueError("homotopy_ft expects an undeformed base function")
    return f.deform(t).value(lam)

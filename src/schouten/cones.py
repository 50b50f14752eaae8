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
pair_value`` (membership, the value of f_t and a thunk for its gradient, the
closed form of ``value_batch``) and ``ConeSpec.pair_margin`` (the
diagonal-ray margin, equal to ``margin_batch`` of the full rows).  Both read
the same two quantities of T_t(b; a, ..., a) = (B; A, ..., A): A and
k B + (n - k) A, whose signs decide membership.
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
    "gamma_mu_plus",
]


# bisection levels of ``ConeSpec.mu_plus`` resolved per membership call
# (2**levels - 1 rays per batch)
_MU_PLUS_LEVELS = 6


def _one_row(lam):
    """The (1, n) batch of one vector, given as (n,) or (1, n); a batch of
    other rows is refused rather than read at its row 0."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim > 2 or (lam.ndim == 2 and lam.shape[0] != 1):
        raise ValueError(f"expected one vector of shape (n,) or (1, n), got shape {lam.shape}")
    return np.atleast_2d(lam)


def sigma_k(lam, k):
    """k-th elementary symmetric polynomial of one vector, stable prefix
    recurrence (O(nk))."""
    lam = _one_row(lam)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return float(_kernels.elementary_symmetric(lam, k)[0, k])


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

    def deform(self, t):
        return ConeSpec(self.n, self.k, t)

    # -- membership / margin -------------------------------------------------

    def _map(self, lams):
        if self.t == 1.0:
            return lams
        s1 = lams.sum(axis=1, keepdims=True)
        return self.t * lams + (1.0 - self.t) * s1

    def _pair_roots(self, b, a):
        """(A, L) of the two-valued rows (b; a, ..., a), a n - 1 times.

        T_t maps such a row to (B; A, ..., A), and with L = k B + (n-k) A,
        sigma_k(T_t lam - tau e) = C(n-1, k-1)/k (A - tau)^(k-1) (L - n tau):
        its roots in tau are A (k - 1 times) and L/n, all real as
        hyperbolicity in e demands (Garding 1959).  The row is inside the
        cone iff every root is positive.
        """
        n, k, t = self.n, self.k, self.t
        if t != 1.0:
            s1 = b + (n - 1.0) * a
            b, a = t * b + (1.0 - t) * s1, t * a + (1.0 - t) * s1
        return a, (n - k) * a + k * b

    def contains_batch(self, lams):
        lams, _ = _as_batch(lams)
        if lams.shape[1] != self.n:
            raise ValueError("vector length does not match cone dimension")
        return _kernels.gamma_member(self._map(lams), self.k)

    def contains(self, lam):
        return bool(self.contains_batch(_one_row(lam))[0])

    def margin_batch(self, lams):
        """sup{t : lam - t*(1,..,1) in cone}; positive strictly inside."""
        lams, _ = _as_batch(lams)
        if lams.shape[1] != self.n:
            raise ValueError("vector length does not match cone dimension")
        m = _kernels.gamma_margin(self._map(lams), self.k)
        # shifting lam by s*e shifts T_t(lam) by s*(t + (1-t)*n)*e
        return m / (self.t + (1.0 - self.t) * self.n)

    def margin(self, lam):
        return float(self.margin_batch(_one_row(lam))[0])

    def pair_margin(self, b, a):
        """``margin_batch`` of the two-valued rows (b; a, ..., a), a n - 1 times, in closed form.

        The smallest root in tau of sigma_k(T_t lam - tau e), A or L/n
        (``_pair_roots``).  Rows with a non-finite entry give -inf.
        """
        n, k, t = self.n, self.k, self.t
        b = np.asarray(b, dtype=np.float64)
        a = np.asarray(a, dtype=np.float64)
        big_a, lead = self._pair_roots(b, a)
        m = lead / n
        if k > 1:
            m = np.minimum(big_a, m)
        m = m / (t + (1.0 - t) * n)
        return np.where(np.isfinite(b) & np.isfinite(a), m, -np.inf)

    def mu_plus(self, tol=1e-10):
        """Unique mu in [0, n-1] with (-mu, 1, ..., 1) on the cone boundary,
        bisected to a finite positive ``tol`` or to adjacent floats."""
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"mu_plus tolerance must be finite and positive, got {tol!r}")
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
        while hi - lo > tol and np.nextafter(lo, hi) < hi:
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

    kappa is derived from (n, k), not passed, so that the value at
    (1/2, ..., 1/2) -- the Schouten eigenvalues of the round sphere -- equals
    1.  Deformed members (cone.t < 1) evaluate the base function on T_t(lam)
    and share its (n, k), hence its normalisation, so the t = 0 endpoint is
    lam -> f(e) * sigma_1(lam).
    """

    cone: ConeSpec
    kappa: float = field(init=False)

    def __post_init__(self):
        n, k = self.cone.n, self.cone.k
        object.__setattr__(self, "kappa", 2.0 / math.comb(n, k) ** (1.0 / k))

    @classmethod
    def sigma_root(cls, n, k):
        return cls(cone=ConeSpec.gamma(n, k))

    def deform(self, t):
        return CurvatureFunction(cone=self.cone.deform(t))

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

    def pair_value(self, b, a):
        """(values, gradient) of f_t at the two-valued rows (b; a, ..., a), a n - 1 times.

        T_t maps such a row to (B; A, ..., A), where
        sigma_k = C(n-1, k-1) A^(k-1) B + C(n-1, k) A^k
        = C(n-1, k-1)/k A^(k-1) L with L = k B + (n-k) A.  The row is inside
        the cone iff L > 0 and, for k >= 2, A > 0: the signs of the roots
        ``ConeSpec._pair_roots`` gives and ``pair_margin`` reads, so
        membership is ``pair_margin > 0``.  Rows with a non-finite entry are
        outside.  Raises ``ConeExitError`` whose ``node`` is the first row
        outside, as ``value_batch`` does.

        The thunk ``gradient()`` returns (df/db, df/da), df/da moving all
        n - 1 entries a together.  From log f = ((k-1) log A + log L)/k plus
        a constant, df/dB = f/L and
        df/dA = f ((k-1)/(k A) + (n-k)/(k L)), chained through dB/db = 1,
        dB/da = (1-t)(n-1), dA/db = 1-t and dA/da = t + (1-t)(n-1).
        """
        n, k, t = self.cone.n, self.cone.k, self.cone.t
        b = np.asarray(b, dtype=np.float64)
        a = np.asarray(a, dtype=np.float64)
        big_a, lead = self.cone._pair_roots(b, a)
        inside = np.isfinite(b) & np.isfinite(a) & (lead > 0.0)
        if k > 1:
            inside &= big_a > 0.0
        if not inside.all():
            node = int(np.argmin(inside))
            raise ConeExitError(f"eigenvalues left the cone at node {node}", node=node)
        sigma = (math.comb(n - 1, k - 1) / k) * big_a ** (k - 1) * lead
        vals = self.kappa * sigma ** (1.0 / k)

        def gradient():
            f_b = vals / lead
            f_a = ((n - k) / k) * f_b
            if k > 1:
                f_a = f_a + ((k - 1) / k) * vals / big_a
            return (f_b + (1.0 - t) * f_a,
                    (1.0 - t) * (n - 1.0) * f_b + (t + (1.0 - t) * (n - 1.0)) * f_a)

        return vals, gradient

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


def gamma_mu_plus(n, k):
    """mu_plus of Gamma_k in R^n in closed form, (n - k)/k.

    ``ConeSpec.gamma(n, k).mu_plus()`` bisects to the same value within its
    tolerance, which the ``cones mu-plus`` campaign certifies.  Guards and
    ranges read this value: at n = 2k the bisected one lies above 1.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return (n - k) / k

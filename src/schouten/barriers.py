"""Radial barrier factors and their numerical cone certification.

Two explicit radial conformal factors are certified on a punctured chart:

  sub-solution   v(r) = r^-(n-2-2*delta) * exp(r),        0 < delta < 1/4,
  super-solution v(r) = (eps r^(1-mu) + 1 - r^delta)^((n-2)/(mu-1)),
                 1 < mu < min(mu_plus, 2), 0 < delta < 1, 0 <= eps < 1.

For a radial factor v on a background with Schouten tensor A_bg, the chart
Schouten form decomposes as

    A = chi1 * Id - chi2 * (x/r) x (x/r) + remainder,

with closed-form coefficients chi1, chi2 depending on log-derivatives of v.
A barrier is its jet r -> (v, l, l') with l = v'/v (``_barrier_jet``): the
factor's derivatives v' = v l and v'' = v (l' + l^2), the sweep's scales and
both chi closed forms read it, and the two closed forms are one formula
(``_chi``) in p = l/(n-2) and p'.  The sweeps compute the true eigenvalues
at one point per radius through the ``conformal`` chart machinery, check
the diagonal-ray cone margin sign demanded by each barrier (strictly outside
the closed cone for the sub-solution, strictly inside for the
super-solution), certify the largest radius r1 at which the verdict holds by
dyadic descent, and record how far the eigenvalues drift from the
(chi1 - chi2, chi1, ..., chi1) prediction relative to the remainder scale
1 + |r v'/v| + (r v'/v)^2.  Each ceiling r1 tried gets its own report (rows,
failures, worst margin, largest remainder); a sweep returns the report of the
first ceiling it certifies, otherwise that of the last ceiling.  A ceiling
that is not the last stops at its first failing combination, as its report is
discarded; the report a sweep returns is complete, filled from every
combination.  Defaults live in ``BarrierSweepConfig``, ceilings in
``_ceilings``, rules in ``sweep_fault``.

``gershgorin_pairing`` is the eigenvalue-continuity estimate the closed-form
prediction rests on; ``gershgorin_ratios`` is its batched entry point, which
takes (..., n, n) stacks of pairs through one ``eigvalsh`` call per stack and
returns the per-pair ratios and within-bound flags bit-identical to the
per-pair results.  Only ``gershgorin_pairing`` diagonalises, for its rotated
Gershgorin discs.  ``suph_barrier_check`` probes the spherical-harmonic
barrier G(r) = r^(2-n) - K r^(5/2-n) used in superharmonic minimum tracking,
in closed form on its background space form: it evaluates no chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import conformal as cf
from .cones import ConeSpec, gamma_mu_plus
from .errors import DomainError

__all__ = [
    "BACKGROUNDS",
    "BarrierSweepConfig",
    "GershgorinResult",
    "gershgorin_pairing",
    "gershgorin_ratios",
    "subsolution_eval",
    "chi_coefficients_sub",
    "supersolution_eval",
    "chi_coefficients_super",
    "barrier_sweep_sub",
    "barrier_sweep_super",
    "sweep_fault",
    "sub_pairs",
    "mu_grid",
    "suph_barrier_check",
    "suph_fault",
    "SweepReport",
    "SupHReport",
]


# ---------------------------------------------------------------------------
# eigenvalue continuity (Gershgorin pairing)
# ---------------------------------------------------------------------------

@dataclass
class GershgorinResult:
    total_deviation: float
    bound: float
    max_perturbation: float
    per_pair: np.ndarray
    gershgorin_radii: np.ndarray
    rotated_diagonal: np.ndarray

    @property
    def ratio(self):
        if self.max_perturbation == 0.0:
            return 0.0
        return self.total_deviation / self.max_perturbation


def _pairing_stack(m, mt):
    """The eigen path shared by ``gershgorin_pairing`` and ``gershgorin_ratios``.

    Takes (..., n, n) stacks and returns, per pair, the max-entry perturbation
    eps, the per-eigenvalue drifts, their total, the n^2 eps bound and
    whether the total is within it (up to 1e-12 of the spectrum scale).  Both
    spectra come from ``eigvalsh``, one call per stack: no eigenvectors are
    formed.
    """
    m = np.asarray(m, dtype=np.float64)
    mt = np.asarray(mt, dtype=np.float64)
    if m.shape != mt.shape or m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrices must be square and of equal size")
    n = m.shape[-1]
    eps = np.abs(m - mt).max(axis=(-2, -1))
    vals_m = np.linalg.eigvalsh(m)
    # both spectra ascending: the identity pairing minimises the total
    per_pair = np.abs(vals_m - np.linalg.eigvalsh(mt))
    total = per_pair.sum(axis=-1)
    bound = n ** 2 * eps
    slack = 1e-12 * np.maximum(1.0, np.abs(vals_m).max(axis=-1))
    within = ~(total > bound + slack)
    return eps, per_pair, total, bound, within


def gershgorin_pairing(m, mt):
    """Pair the spectra of two symmetric matrices and bound the total drift.

    Diagonalises ``m``, rotates ``mt`` into that eigenbasis (where the
    Gershgorin discs of the rotated matrix are centred near the eigenvalues
    of ``m``), pairs the ascending spectra and asserts

        sum_i |lambda_i(m) - lambda_{sigma(i)}(mt)| <= n^2 ||m - mt||_max.

    The n^2 constant is a deliberate overestimate of the row-sum argument;
    the measured ratio is reported so the sharp constant can be tabulated.
    """
    m = np.asarray(m, dtype=np.float64)
    mt = np.asarray(mt, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("matrices must be square and of equal size")
    eps, per_pair, total, bound, within = _pairing_stack(m, mt)
    if not within:
        raise AssertionError(
            f"eigenvalue drift {total:g} exceeds n^2 * max-perturbation {bound:g}")
    q = np.linalg.eigh(m)[1]
    rotated = q.T @ mt @ q
    diag = np.diag(rotated).copy()
    return GershgorinResult(total_deviation=float(total), bound=float(bound),
                            max_perturbation=float(eps), per_pair=per_pair,
                            gershgorin_radii=np.abs(rotated).sum(axis=1) - np.abs(diag),
                            rotated_diagonal=diag)


def gershgorin_ratios(m, mt):
    """Batched ``gershgorin_pairing`` over (..., n, n) stacks of pairs.

    Returns ``(ratio, within_bound)``, each of the stack's leading shape:
    the total eigenvalue drift over ||m - mt||_max (0 where the matrices are
    equal) and whether the n^2 bound held.  Where it holds, ``ratio`` is
    bit-identical to ``gershgorin_pairing(m[i], mt[i]).ratio``; where it
    fails, the pair is flagged instead of raising.
    """
    eps, _, total, _, within = _pairing_stack(m, mt)
    ratio = np.divide(total, eps, out=np.zeros_like(total), where=eps != 0.0)
    return ratio, within


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _barrier_jet(n, kind, delta, mu=None, eps=None):
    """The ``kind`` ("sub" or "super") barrier as r -> (v, l, l'), l = v'/v.

    Sub: v = r^-a e^r with a = n - 2 - 2 delta, so l = 1 - a/r, l' = a/r^2.
    Super: v = b^beta with beta = (n-2)/(mu-1), so l = beta m, l' = beta m'
    for the base's m = b'/b (``_super_base``).  No parameter checks: the
    public entry points and ``sweep_fault`` make them.
    """
    if kind == "sub":
        a = n - 2.0 - 2.0 * delta
        return lambda r: (r ** (-a) * np.exp(r), -a / r + 1.0, a / r ** 2)
    beta = (n - 2.0) / (mu - 1.0)

    def jet(r):
        b, m, m1 = _super_base(mu, delta, eps, r)
        return b ** beta, beta * m, beta * m1
    return jet


def _chi(p, p1, r):
    """Flat-chart Schouten coefficients (chi1, chi2) of a radial factor whose
    p = v'/((n-2) v) has derivative p1: chi1 = -2p/r - 2p^2 and
    chi2 = 2 (p1 - p/r) - 4p^2."""
    return -2.0 * p / r - 2.0 * p ** 2, 2.0 * (p1 - p / r) - 4.0 * p ** 2


def subsolution_eval(n, delta, r):
    """Value and radial log-derivative of r^-(n-2-2*delta) * exp(r)."""
    r = np.asarray(r, dtype=np.float64)
    if not np.all(r > 0):
        raise DomainError("radius must be positive")
    if not 0 < delta < 0.25:
        raise DomainError("sub-solution exponent shift needs 0 < delta < 1/4")
    value, dlog, _ = _barrier_jet(n, "sub", delta)(r)
    return value, dlog


def chi_coefficients_sub(n, delta, r):
    """Closed-form (chi1, chi2) of the sub-solution Schouten decomposition.

    ``_chi`` of p = l/(n-2): chi1 = 2 (a - r)(2 delta + r) / ((n-2)^2 r^2)
    with a = n - 2 - 2 delta, and chi2 - 2 chi1 = 2 / ((n-2) r) identically.
    """
    r = np.asarray(r, dtype=np.float64)
    a = n - 2.0 - 2.0 * delta
    if not np.all((r > 0) & (r < a)):
        raise DomainError("sub-solution coefficients need 0 < r < n-2-2*delta")
    _, l, l1 = _barrier_jet(n, "sub", delta)(r)
    return _chi(l / (n - 2.0), l1 / (n - 2.0), r)


def supersolution_eval(n, mu, delta, eps, r):
    """Value of (eps r^(1-mu) + 1 - r^delta)^((n-2)/(mu-1))."""
    r = np.asarray(r, dtype=np.float64)
    _check_super_params(mu, delta, eps)
    if not np.all(r > 0):
        raise DomainError("radius must be positive")
    base, _, _ = _super_base(mu, delta, eps, r)
    return base ** ((n - 2.0) / (mu - 1.0))


def _super_base(mu, delta, eps, r):
    """b = eps r^(1-mu) + 1 - r^delta with m = b'/b and m' = b''/b - m^2;
    b must be positive."""
    b = eps * r ** (1.0 - mu) + 1.0 - r ** delta
    if np.any(b <= 0):
        raise DomainError("super-solution base is nonpositive")
    m = (eps * (1.0 - mu) * r ** (-mu) - delta * r ** (delta - 1.0)) / b
    b2 = eps * mu * (mu - 1.0) * r ** (-mu - 1.0) \
        - delta * (delta - 1.0) * r ** (delta - 2.0)
    return b, m, b2 / b - m ** 2


def _check_super_params(mu, delta, eps):
    if not 1.0 < mu < 2.0:
        raise DomainError("super-solution needs 1 < mu < 2")
    if not 0.0 < delta < 1.0:
        raise DomainError("super-solution needs 0 < delta < 1")
    if not 0.0 <= eps < 1.0:
        raise DomainError("super-solution needs 0 <= eps < 1")


def chi_coefficients_super(mu, delta, eps, r):
    """Closed-form (chi1, chi2) for the super-solution; independent of n.

    ``_chi`` of p = m/(mu-1), with m = b'/b for the base
    b = eps r^(1-mu) + 1 - r^delta; and
    chi2 - (mu+1) chi1 = -2 delta (mu-1+delta) / ((mu-1) r^(2-delta) b) < 0.
    """
    r = np.asarray(r, dtype=np.float64)
    _check_super_params(mu, delta, eps)
    _, m, m1 = _super_base(mu, delta, eps, r)
    return _chi(m / (mu - 1.0), m1 / (mu - 1.0), r)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# the background charts a sweep or the superharmonic check runs on
BACKGROUNDS = {"sphere": cf.MetricField.sphere_normal, "flat": cf.MetricField.flat}


@dataclass
class BarrierSweepConfig:
    """Grids of a barrier sweep.  Each ceiling r1 is sampled at the ``num_r``
    radii ``radii(r1)``, one point per radius: radius i lies along direction
    i mod ``num_dirs`` of the ``num_dirs`` random unit ``directions()`` drawn
    from ``seed``.  Both backgrounds are rotation invariant and the barriers
    radial, so one direction per radius samples what all of them would."""

    n: int
    k: int
    deltas: tuple = (0.01, 0.05, 0.1, 0.2)
    mus: tuple = ()
    epsilons: tuple = (1e-3, 0.1, 0.9)
    r_min: float = 1e-4
    num_r: int = 64
    num_dirs: int = 8
    background: str = "sphere"  # a key of BACKGROUNDS (normal coordinates on the sphere)
    seed: int = 0

    def __post_init__(self):
        if not self.r_min > 0:
            raise ValueError("r grid must be strictly positive")
        if self.background not in BACKGROUNDS:
            raise ValueError(f"background must be one of {', '.join(BACKGROUNDS)}")
        if self.num_r < 1 or self.num_dirs < 1:
            raise ValueError("num_r and num_dirs must be at least 1")

    def metric(self):
        return BACKGROUNDS[self.background](self.n)

    def directions(self):
        rng = np.random.default_rng(self.seed)
        dirs = rng.standard_normal((self.num_dirs, self.n))
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def radii(self, r1):
        return np.geomspace(self.r_min, r1, self.num_r)


@dataclass
class SweepReport:
    kind: str
    n: int
    k: int
    background: str
    passed: bool
    r1_certified: Optional[float]
    worst_margin: float
    max_remainder: float
    rows: list = field(default_factory=list)  # (delta, mu, eps, r, margin, ok)
    failures: list = field(default_factory=list)
    chi_inequality_ok: Optional[bool] = None


def _radial_factor(n, delta=None, mu=None, eps=None, kind="sub"):
    """(v, v', v'') of the barrier, each read from its one jet."""
    jet = _barrier_jet(n, kind, delta, mu, eps)

    def v1(r):
        v, l, _ = jet(r)
        return v * l

    def v2(r):
        v, l, l1 = jet(r)
        return v * (l1 + l ** 2)
    return (lambda r: jet(r)[0]), v1, v2


def _sweep_once(combo, kind, g, geometry, rr, cone):
    """Evaluate one parameter combination at one sample per radius.

    ``geometry`` is the chart geometry of the sample points, the point i at
    radius ``rr[i]``.  Returns (margins, remainders) with one entry per
    sample, so one per radius.
    """
    n = g.n
    v, v1, v2 = _radial_factor(n, kind=kind, **combo)
    u = cf.ConformalFactor.radial(n, v, v1, v2)
    eigs = cf.conformal_schouten_eigs(g, u, geometry.points, geometry=geometry)
    margins = cone.margin_batch(eigs)

    vals, l, l1 = _barrier_jet(n, kind, **combo)(rr)
    chi1, chi2 = _chi(l / (n - 2.0), l1 / (n - 2.0), rr)
    scale = vals ** (-4.0 / (n - 2.0))
    pred = np.empty((len(rr), n))
    pred[:, 0] = (chi1 - chi2) * scale
    pred[:, 1:] = (chi1 * scale)[:, None]
    pred.sort(axis=1)
    rl = rr * l
    rem_scale = scale * (1.0 + np.abs(rl) + rl ** 2)
    remainders = np.abs(eigs - pred).max(axis=1) / rem_scale
    return margins, remainders


def sub_pairs(dims):
    """The pairs (n, k), n in ``dims``, of the sub-solution regime mu_plus <= 1."""
    return [(n, k) for n in dims for k in range(1, n + 1) if gamma_mu_plus(n, k) <= 1.0]


def mu_grid(n, k, count):
    """``count`` evenly spaced mu strictly inside (1, min(mu_plus(n, k), 2))."""
    top = min(gamma_mu_plus(n, k), 2.0)
    fracs = np.linspace(0.0, 1.0, count + 2)[1:-1]
    return tuple(1.0 + f * (top - 1.0) for f in fracs)


def sweep_fault(kind, n, k, deltas, epsilons, mus, r_min):
    """The barrier rules: the first parameter the ``kind`` ("sub" or "super")
    sweep rejects at the pair (n, k), as (field, what it must be), or None.
    Its grids must be non-empty, and a dyadic ceiling must lie above 2 r_min."""
    mu_plus = gamma_mu_plus(n, k)
    if kind == "super" and mu_plus <= 1.0:
        return "pairs", (f"pairs with mu_plus > 1 (mu_plus = (n - k)/k, so n > 2k), but"
                         f" [{n}, {k}] has mu_plus = {mu_plus:.6g}")
    top = min(mu_plus, 2.0)
    rules = [("deltas", deltas, "(0, 1/4)", lambda x: 0.0 < x < 0.25)] if kind == "sub" else [
        ("mus", mus, f"(1, min(mu_plus, 2)) = (1, {top:.6g}) for the pair [{n}, {k}]",
         lambda x: 1.0 < x < top),
        ("deltas", deltas, "(0, 1)", lambda x: 0.0 < x < 1.0),
        ("epsilons", epsilons, "[0, 1)", lambda x: 0.0 <= x < 1.0)]
    for name, values, interval, inside in rules:
        if not values:
            return name, "a non-empty grid of numbers"
        bad = [x for x in values if not inside(x)]
        if bad:
            return name, f"numbers in {interval}; {float(bad[0])!r} is outside"
    if not _ceilings(kind, n, deltas, r_min):
        return "r_min", (f"below half the first dyadic ceiling"
                         f" r1 = {_ceilings(kind, n, deltas)[0]:.6g} (n = {n}), or the"
                         f" sweep tries no ceiling")
    return None


def _ceilings(kind, n, deltas, r_min=0.0):
    """The dyadic ceilings r1 = r_start / 2^i, i < 8, above 2 ``r_min``.  r_start
    is 0.5, but the sub-solution's chi coefficients need r < n - 2 - 2 delta,
    so its ceilings stay below that (binds only for n = 3, delta near 1/4)."""
    r_start = min(0.5, 0.9 * (n - 2.0 - 2.0 * max(deltas))) if kind == "sub" else 0.5
    return [r1 for r1 in (r_start / 2 ** i for i in range(8)) if r1 > 2.0 * r_min]


def barrier_sweep_sub(cfg):
    """Certify that the sub-solution eigenvalues exit the closed cone.

    At every delta and every radius of the grid (one sample per radius,
    along a direction of ``cfg.directions()``) the margin must be strictly
    negative; the largest grid ceiling r1 for which this holds is found by
    dyadic descent from 0.5 and reported.
    """
    report = _run_sweep(cfg, kind="sub", combos=[{"delta": d} for d in cfg.deltas])
    if (cfg.n, cfg.k) not in sub_pairs([cfg.n]):
        report.failures.append(("precondition", "mu_plus > 1; sweep run as negative control"))
    return report


def barrier_sweep_super(cfg):
    """Certify that the super-solution eigenvalues stay strictly inside the cone.

    Also checks the coefficient inequality chi2 - (mu+1) chi1 < 0 pointwise
    and records the remainder magnitudes relative to the error-term scale.
    """
    combos = [{"mu": mu, "delta": d, "eps": e}
              for mu in cfg.mus for d in cfg.deltas for e in cfg.epsilons]
    report = _run_sweep(cfg, kind="super", combos=combos)

    # chi inequality on a dense radius grid up to r1, per (mu, delta, eps)
    ok = True
    r1 = report.r1_certified or _ceilings("super", cfg.n, cfg.deltas)[0]
    rr = np.geomspace(cfg.r_min, r1, 256)
    for combo in combos:
        chi1, chi2 = chi_coefficients_super(combo["mu"], combo["delta"], combo["eps"], rr)
        if not np.all(chi2 - (combo["mu"] + 1.0) * chi1 < 0):
            ok = False
            report.failures.append(("chi-inequality", combo))
    report.chi_inequality_ok = ok
    report.passed = report.passed and ok
    return report


def _run_sweep(cfg, kind, combos):
    """Try the dyadic ceilings of ``_ceilings`` in turn, largest first.

    Each ceiling gets a fresh report.  Returns the first report whose
    samples all have the sign the barrier needs (sub: margin < 0, super:
    margin > 0), otherwise that of the last ceiling.  A ceiling that is not
    the last stops at its first failing combination, since its report is
    discarded; the last ceiling, and one that certifies, run every
    combination, so the returned report is always complete.  A config that
    ``sweep_fault`` rejects, such as one with no ceiling above 2 r_min,
    raises ``ValueError`` before any chart geometry is built.
    """
    fault = sweep_fault(kind, cfg.n, cfg.k, cfg.deltas, cfg.epsilons, cfg.mus, cfg.r_min)
    if fault is not None:
        raise ValueError(f"{kind}-solution sweep: {fault[0]} must be {fault[1]}")
    g = cfg.metric()
    dirs = cfg.directions()
    cone = ConeSpec.gamma(cfg.n, cfg.k)
    sub = kind == "sub"
    ceilings = _ceilings(kind, cfg.n, cfg.deltas, cfg.r_min)
    for r1 in ceilings:
        last = r1 == ceilings[-1]
        report = SweepReport(kind=f"barrier-{kind}", n=cfg.n, k=cfg.k,
                             background=cfg.background, passed=False, r1_certified=None,
                             worst_margin=-math.inf if sub else math.inf, max_remainder=0.0)
        # one sample per radius, r_i d_(i mod num_dirs), and one chart
        # geometry per ceiling, shared by every parameter combination
        rr = cfg.radii(r1)
        pts = rr[:, None] * dirs[np.arange(cfg.num_r) % cfg.num_dirs]
        geometry = cf.chart_geometry(g, pts)
        for combo in combos:
            margins, rems = _sweep_once(combo, kind, g, geometry, rr, cone)
            ok = margins < 0 if sub else margins > 0
            combo_ok = bool(ok.all())
            report.worst_margin = (max(report.worst_margin, float(margins.max())) if sub
                                   else min(report.worst_margin, float(margins.min())))
            report.max_remainder = max(report.max_remainder, float(rems.max()))
            mu, delta, eps = combo.get("mu"), combo["delta"], combo.get("eps")
            if not combo_ok:
                bad = int(np.argmin(ok))
                report.failures.append((combo, float(rr[bad]), float(margins[bad])))
            report.rows.extend((delta, mu, eps) + row for row in
                               zip(rr.tolist(), margins.tolist(), ok.tolist()))
            if not (combo_ok or last):
                break  # this ceiling is discarded, whatever the rest give
        if not report.failures:
            report.passed, report.r1_certified = True, r1
            break
    return report


# ---------------------------------------------------------------------------
# superharmonic barrier G
# ---------------------------------------------------------------------------

@dataclass
class SupHReport:
    n: int
    K: float
    delta: float
    min_G: float
    min_LG: float
    flat_certificate: Optional[bool]
    ratio_monotone: dict


def suph_fault(n, delta, background):
    """The superharmonic barrier's rules, as (field, what it must be) or None:
    ``delta`` is finite and positive, and on a ``background`` of curvature
    kappa > 0 its grid, whose top radius is 0.999 delta, must stay inside the
    cut locus r = pi/sqrt(kappa)."""
    if not 0 < delta < math.inf:
        return "delta", f"a finite positive number; {float(delta)!r} is not"
    kappa = BACKGROUNDS[background](n).sectional_curvature
    if kappa > 0 and not delta * 0.999 < math.pi / math.sqrt(kappa):
        return "delta", (f"a radius whose grid stays inside the cut locus r = "
                         f"{math.pi / math.sqrt(kappa):.6g} of the {background} chart; "
                         f"{float(delta)!r} reaches it")
    return None


def suph_barrier_check(n, K, delta, background="flat"):
    """Diagnostics for G(r) = r^(2-n) - K r^(5/2-n), normalised to vanish at delta.

    Evaluates L_g G = Delta_g G - c(n) R_g G on a 64-point annulus grid and
    reports the minimum.  The ``background`` chart (a key of ``BACKGROUNDS``)
    is normal coordinates on a space form of curvature kappa, its
    ``sectional_curvature``, where Delta_g G = G'' + (n-1) cot_kappa(r) G' and
    R_g = n (n-1) kappa exactly (Petersen, *Riemannian Geometry*), so L_g G
    is read from G's closed-form jet; a grid reaching the cut locus
    r = pi/sqrt(kappa) raises ``DomainError`` (``suph_fault``).  At kappa = 0
    the sign is also certified through the exact identity Delta r^alpha =
    alpha (alpha + n - 2) r^(alpha-2).  The ratio G^-1 w is checked for
    monotone increase for the superharmonic samples w = r^(2-n) and w = 1.
    """
    if background not in BACKGROUNDS:
        raise ValueError(f"background must be one of {', '.join(BACKGROUNDS)}")
    fault = suph_fault(n, delta, background)
    if fault is not None:
        raise DomainError(f"{fault[0]} must be {fault[1]}")
    kappa = BACKGROUNDS[background](n).sectional_curvature
    radii = np.geomspace(delta / 100.0, delta * 0.999, 64)
    cn = (n - 2.0) / (4.0 * (n - 1.0))
    offset = delta ** (2.0 - n) - K * delta ** (2.5 - n)
    gvals = radii ** (2.0 - n) - K * radii ** (2.5 - n) - offset
    g1 = (2.0 - n) * radii ** (1.0 - n) - K * (2.5 - n) * radii ** (1.5 - n)
    g2 = ((2.0 - n) * (1.0 - n) * radii ** (-n)
          - K * (2.5 - n) * (1.5 - n) * radii ** (0.5 - n))
    # cot_kappa(r): 1/r at kappa = 0, sqrt(kappa) cot(sqrt(kappa) r) above
    cot = 1.0 / radii if kappa == 0 else math.sqrt(kappa) / np.tan(math.sqrt(kappa) * radii)
    lap = g2 + (n - 1.0) * cot * g1
    lg = lap - cn * n * (n - 1.0) * kappa * gvals

    flat_cert = None
    if kappa == 0:
        # Delta G = K (n - 5/2) * 1/2 * r^(1/2 - n) > 0 for n >= 3, K > 0
        exact = K * (n - 2.5) * 0.5 * radii ** (0.5 - n)
        flat_cert = bool(np.all(exact > 0) and np.allclose(lap, exact, rtol=1e-6))

    monotone = {}
    for label, w in (("r^(2-n)", radii ** (2.0 - n)), ("const", np.ones_like(radii))):
        ratio = w / gvals
        monotone[label] = bool(np.all(np.diff(ratio) > -1e-12 * np.abs(ratio[:-1])))
    return SupHReport(n=n, K=K, delta=delta, min_G=float(gvals.min()),
                      min_LG=float(lg.min()), flat_certificate=flat_cert,
                      ratio_monotone=monotone)

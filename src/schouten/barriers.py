"""Radial barrier factors and their numerical cone certification.

Two explicit radial conformal factors are certified on a punctured chart:

  sub-solution   v(r) = r^-(n-2-2*delta) * exp(r),        0 < delta < 1/4,
  super-solution v(r) = (eps r^(1-mu) + 1 - r^delta)^((n-2)/(mu-1)),
                 1 < mu < min(mu_plus, 2), 0 < delta < 1, 0 <= eps < 1.

For a radial factor v on a background with Schouten tensor A_bg, the chart
Schouten form decomposes as

    A = chi1 * Id - chi2 * (x/r) x (x/r) + remainder,

with closed-form coefficients chi1, chi2 depending on log-derivatives of v.
The sweeps compute the true eigenvalues through the ``conformal`` chart
machinery, check the diagonal-ray cone margin sign demanded by each barrier
(strictly outside the closed cone for the sub-solution, strictly inside for
the super-solution), certify the largest radius r1 at which the verdict
holds by dyadic descent, and record how far the eigenvalues drift from the
(chi1 - chi2, chi1, ..., chi1) prediction relative to the remainder scale
1 + |r v'/v| + (r v'/v)^2.

``gershgorin_pairing`` is the eigenvalue-continuity estimate the closed-form
prediction rests on, and ``suph_barrier_check`` probes the spherical-harmonic
barrier G(r) = r^(2-n) - K r^(5/2-n) used in superharmonic minimum tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import conformal as cf
from .cones import ConeSpec
from .errors import DomainError

__all__ = [
    "BarrierSweepConfig",
    "GershgorinResult",
    "gershgorin_pairing",
    "subsolution_eval",
    "chi_coefficients_sub",
    "supersolution_eval",
    "chi_coefficients_super",
    "barrier_sweep_sub",
    "barrier_sweep_super",
    "suph_barrier_check",
    "SweepReport",
    "SupHReport",
]


# ---------------------------------------------------------------------------
# eigenvalue continuity (Gershgorin pairing)
# ---------------------------------------------------------------------------

@dataclass
class GershgorinResult:
    permutation: np.ndarray
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
    if m.shape != mt.shape or m.shape[0] != m.shape[1]:
        raise ValueError("matrices must be square and of equal size")
    n = m.shape[0]
    eps = float(np.abs(m - mt).max())
    vals_m, q = np.linalg.eigh(m)
    rotated = q.T @ mt @ q
    radii = np.abs(rotated).sum(axis=1) - np.abs(np.diag(rotated))
    vals_t = np.linalg.eigvalsh(mt)
    perm = np.arange(n)  # both spectra ascending: identity minimises the total
    per_pair = np.abs(vals_m - vals_t[perm])
    total = float(per_pair.sum())
    bound = n ** 2 * eps
    if total > bound + 1e-12 * max(1.0, np.abs(vals_m).max()):
        raise AssertionError(
            f"eigenvalue drift {total:g} exceeds n^2 * max-perturbation {bound:g}")
    return GershgorinResult(permutation=perm, total_deviation=total, bound=bound,
                            max_perturbation=eps, per_pair=per_pair,
                            gershgorin_radii=radii,
                            rotated_diagonal=np.diag(rotated).copy())


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def subsolution_eval(n, delta, r):
    """Value and radial log-derivative of r^-(n-2-2*delta) * exp(r)."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    if not 0 < delta < 0.25:
        raise DomainError("sub-solution exponent shift needs 0 < delta < 1/4")
    a = n - 2.0 - 2.0 * delta
    value = r ** (-a) * np.exp(r)
    dlog = -a / r + 1.0
    return value, dlog


def chi_coefficients_sub(n, delta, r):
    """Closed-form (chi1, chi2) of the sub-solution Schouten decomposition.

    chi1 = 2 (a - r)(2 delta + r) / ((n-2)^2 r^2) with a = n - 2 - 2 delta;
    chi2 is the matching quadratic-in-r coefficient.  They satisfy
    chi2 - 2 chi1 = 2 / ((n-2) r) identically.
    """
    r = np.asarray(r, dtype=np.float64)
    a = n - 2.0 - 2.0 * delta
    if np.any(r <= 0) or np.any(r >= a):
        raise DomainError("sub-solution coefficients need 0 < r < n-2-2*delta")
    pref = 2.0 / (n - 2.0) ** 2
    chi1 = pref * (a - r) * (2.0 * delta + r) / r ** 2
    chi2 = pref * (4.0 * a * delta + (3.0 * (n - 2.0) - 8.0 * delta) * r
                   - 2.0 * r ** 2) / r ** 2
    return chi1, chi2


def supersolution_eval(n, mu, delta, eps, r):
    """Value of (eps r^(1-mu) + 1 - r^delta)^((n-2)/(mu-1))."""
    r = np.asarray(r, dtype=np.float64)
    _check_super_params(mu, delta, eps)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    base, _, _ = _super_base(mu, delta, eps, r)
    return base ** ((n - 2.0) / (mu - 1.0))


def _super_base(mu, delta, eps, r):
    """b = eps r^(1-mu) + 1 - r^delta with b' and b''; b must be positive."""
    b = eps * r ** (1.0 - mu) + 1.0 - r ** delta
    if np.any(b <= 0):
        raise DomainError("super-solution base is nonpositive")
    b1 = eps * (1.0 - mu) * r ** (-mu) - delta * r ** (delta - 1.0)
    b2 = eps * mu * (mu - 1.0) * r ** (-mu - 1.0) \
        - delta * (delta - 1.0) * r ** (delta - 2.0)
    return b, b1, b2


def _check_super_params(mu, delta, eps):
    if not 1.0 < mu < 2.0:
        raise DomainError("super-solution needs 1 < mu < 2")
    if not 0.0 < delta < 1.0:
        raise DomainError("super-solution needs 0 < delta < 1")
    if not 0.0 <= eps < 1.0:
        raise DomainError("super-solution needs 0 <= eps < 1")


def chi_coefficients_super(mu, delta, eps, r):
    """Closed-form (chi1, chi2) for the super-solution; independent of n.

    Built from log-derivatives of the base b = eps r^(1-mu) + 1 - r^delta:
    with m = b'/b and m' = b''/b - m^2,

        chi1 = -2 m / ((mu-1) r) - 2 m^2 / (mu-1)^2,
        chi2 = 2 (m' - m/r) / (mu-1) - 4 m^2 / (mu-1)^2,

    and chi2 - (mu+1) chi1 = -2 delta (mu-1+delta) / ((mu-1) r^(2-delta) b) < 0.
    """
    r = np.asarray(r, dtype=np.float64)
    _check_super_params(mu, delta, eps)
    b, b1, b2 = _super_base(mu, delta, eps, r)
    lm = b1 / b
    lmp = b2 / b - lm ** 2
    chi1 = -2.0 * lm / ((mu - 1.0) * r) - 2.0 * lm ** 2 / (mu - 1.0) ** 2
    chi2 = 2.0 * (lmp - lm / r) / (mu - 1.0) - 4.0 * lm ** 2 / (mu - 1.0) ** 2
    return chi1, chi2


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class BarrierSweepConfig:
    n: int
    k: int
    deltas: tuple = (0.01, 0.05, 0.1, 0.2)
    mus: tuple = ()
    epsilons: tuple = ()
    r_min: float = 1e-4
    r1: Optional[float] = None  # None: certify by dyadic descent from 0.5
    num_r: int = 64
    num_dirs: int = 8
    background: str = "sphere"  # "sphere" (normal coordinates) or "flat"
    tol: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.r_min <= 0:
            raise ValueError("r grid must be strictly positive")
        if self.background not in ("sphere", "flat"):
            raise ValueError("background must be 'sphere' or 'flat'")

    def metric(self):
        if self.background == "flat":
            return cf.MetricField.flat(self.n)
        return cf.MetricField.sphere_normal(self.n)

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
    epsilon_verdicts: dict = field(default_factory=dict)


def _radial_factor(n, delta=None, mu=None, eps=None, kind="sub"):
    if kind == "sub":
        a = n - 2.0 - 2.0 * delta

        def v(r):
            return r ** (-a) * np.exp(r)

        def v1(r):
            return v(r) * (1.0 - a / r)

        def v2(r):
            return v(r) * ((1.0 - a / r) ** 2 + a / r ** 2)

        dlog = lambda r: 1.0 - a / r
    else:
        beta = (n - 2.0) / (mu - 1.0)

        def v(r):
            b, _, _ = _super_base(mu, delta, eps, r)
            return b ** beta

        def v1(r):
            b, b1, _ = _super_base(mu, delta, eps, r)
            return beta * b ** (beta - 1.0) * b1

        def v2(r):
            b, b1, b2 = _super_base(mu, delta, eps, r)
            return (beta * (beta - 1.0) * b ** (beta - 2.0) * b1 ** 2
                    + beta * b ** (beta - 1.0) * b2)

        def dlog(r):
            b, b1, _ = _super_base(mu, delta, eps, r)
            return beta * b1 / b
    return v, v1, v2, dlog


def _sweep_once(cfg, params, kind, r1):
    """Evaluate one parameter combination over the (r, direction) grid.

    Returns (margins, remainders, rows) with one entry per sample.
    """
    n = cfg.n
    g = cfg.metric()
    dirs = cfg.directions()
    radii = cfg.radii(r1)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    rr = np.repeat(radii, cfg.num_dirs)

    if kind == "sub":
        delta = params["delta"]
        v, v1, v2, dlog = _radial_factor(n, delta=delta, kind="sub")
        chi1, chi2 = chi_coefficients_sub(n, delta, rr)
    else:
        mu, delta, eps = params["mu"], params["delta"], params["eps"]
        v, v1, v2, dlog = _radial_factor(n, delta=delta, mu=mu, eps=eps, kind="super")
        chi1, chi2 = chi_coefficients_super(mu, delta, eps, rr)

    u = cf.ConformalFactor.radial(n, v, v1, v2)
    eigs = cf.conformal_schouten_eigs(g, u, pts)
    cone = ConeSpec.gamma(n, cfg.k)
    margins = cone.margin_batch(eigs)

    vals = v(rr)
    scale = vals ** (-4.0 / (n - 2.0))
    pred = np.empty((len(rr), n))
    pred[:, 0] = (chi1 - chi2) * scale
    pred[:, 1:] = (chi1 * scale)[:, None]
    pred.sort(axis=1)
    rl = rr * dlog(rr)
    rem_scale = scale * (1.0 + np.abs(rl) + rl ** 2)
    remainders = np.abs(eigs - pred).max(axis=1) / rem_scale
    return rr, margins, remainders


def barrier_sweep_sub(cfg):
    """Certify that the sub-solution eigenvalues exit the closed cone.

    Over the (delta, r, direction) grid the margin must be strictly negative;
    the largest grid ceiling r1 for which this holds is found by dyadic
    descent from 0.5 (unless cfg.r1 pins it) and reported.
    """
    cone = ConeSpec.gamma(cfg.n, cfg.k)
    if cone.mu_plus() > 1.0 + 1e-9:
        # still runnable (negative control); record the precondition breach
        precondition_ok = False
    else:
        precondition_ok = True
    for d in cfg.deltas:
        if not 0 < d < 0.25:
            raise ValueError("sub-solution sweep needs deltas in (0, 1/4)")
    # chi coefficients are defined for r < n - 2 - 2 delta; keep the dyadic
    # ceiling below that (binds only for n = 3 with delta near 1/4)
    r_cap = min(0.5, 0.9 * (cfg.n - 2.0 - 2.0 * max(cfg.deltas)))
    report = _run_sweep(cfg, kind="sub",
                        combos=[{"delta": d} for d in cfg.deltas],
                        want_negative=True, r_start=r_cap)
    report.kind = "barrier-sub"
    if not precondition_ok:
        report.failures.append(("precondition", "mu_plus > 1; sweep run as negative control"))
    return report


def barrier_sweep_super(cfg):
    """Certify that the super-solution eigenvalues stay strictly inside the cone.

    Also checks the coefficient inequality chi2 - (mu+1) chi1 < 0 pointwise
    and records the remainder magnitudes relative to the error-term scale.
    """
    cone = ConeSpec.gamma(cfg.n, cfg.k)
    mu_plus = cone.mu_plus()
    if mu_plus <= 1.0 + 1e-12:
        raise ValueError("super-solution sweep needs a cone with mu_plus > 1")
    if not cfg.mus:
        raise ValueError("super-solution sweep needs a mu grid")
    top = min(mu_plus, 2.0)
    for mu in cfg.mus:
        if not 1.0 < mu < top:
            raise ValueError(f"mu = {mu} outside (1, min(mu_plus, 2)) = (1, {top})")
    for d in cfg.deltas:
        if not 0 < d < 1:
            raise ValueError("super-solution sweep needs deltas in (0, 1)")
    eps_grid = cfg.epsilons or (1e-3, 0.1, 0.9)
    combos = [{"mu": mu, "delta": d, "eps": e}
              for mu in cfg.mus for d in cfg.deltas for e in eps_grid]
    report = _run_sweep(cfg, kind="super", combos=combos, want_negative=False)
    report.kind = "barrier-super"

    # chi inequality on a dense radius grid, per (mu, delta, eps)
    ok = True
    rr = np.geomspace(cfg.r_min, report.r1_certified or 0.5, 256)
    for combo in combos:
        chi1, chi2 = chi_coefficients_super(combo["mu"], combo["delta"], combo["eps"], rr)
        if not np.all(chi2 - (combo["mu"] + 1.0) * chi1 < 0):
            ok = False
            report.failures.append(("chi-inequality", combo))
    report.chi_inequality_ok = ok
    report.passed = report.passed and ok

    # verdict must not depend on eps for fixed (mu, delta)
    verdicts = {}
    for combo, verdict in report.epsilon_verdicts.items():
        key = combo[:2]
        verdicts.setdefault(key, set()).add(verdict)
    uniform = all(len(v) == 1 for v in verdicts.values())
    if not uniform:
        report.failures.append(("eps-uniformity", "verdict varies across epsilon grid"))
        report.passed = False
    return report


def _run_sweep(cfg, kind, combos, want_negative, r_start=0.5):
    candidates = [cfg.r1] if cfg.r1 is not None else \
        [r_start / 2 ** i for i in range(8)]
    best_r1 = None
    final_rows = []
    worst = math.inf if want_negative else -math.inf
    max_rem = 0.0
    failures = []
    eps_verdicts = {}
    for r1 in candidates:
        if r1 <= cfg.r_min * 2:
            break
        rows = []
        all_ok = True
        worst_margin = -math.inf if want_negative else math.inf
        max_remainder = 0.0
        fail_list = []
        eps_verdicts = {}
        for combo in combos:
            rr, margins, rems = _sweep_once(cfg, combo, kind, r1)
            ok_mask = margins < -cfg.tol if want_negative else margins > cfg.tol
            combo_ok = bool(ok_mask.all())
            all_ok = all_ok and combo_ok
            worst_margin = (max(worst_margin, margins.max()) if want_negative
                            else min(worst_margin, margins.min()))
            max_remainder = max(max_remainder, float(rems.max()))
            key = (combo.get("mu"), combo.get("delta"), combo.get("eps"))
            eps_verdicts[key] = combo_ok
            if not combo_ok:
                bad = int(np.argmin(ok_mask))
                fail_list.append((combo, float(rr[bad]), float(margins[bad])))
            for r_val, margin, okv in zip(rr, margins, ok_mask):
                rows.append((combo.get("delta"), combo.get("mu"), combo.get("eps"),
                             float(r_val), float(margin), bool(okv)))
        final_rows = rows
        worst = worst_margin
        max_rem = max_remainder
        failures = fail_list
        if all_ok:
            best_r1 = r1
            break
    passed = best_r1 is not None
    return SweepReport(kind=kind, n=cfg.n, k=cfg.k, background=cfg.background,
                       passed=passed, r1_certified=best_r1, worst_margin=float(worst),
                       max_remainder=float(max_rem), rows=final_rows,
                       failures=failures, epsilon_verdicts=eps_verdicts)


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
    limit_values: dict


def suph_barrier_check(g, K, delta, num_r=64):
    """Diagnostics for G(r) = r^(2-n) - K r^(5/2-n), normalised to vanish at delta.

    Evaluates L_g G = Delta_g G - c(n) R_g G on an annulus grid and reports the
    minimum; on the flat background the sign is also certified through the
    exact identity Delta r^alpha = alpha (alpha + n - 2) r^(alpha-2).  The
    ratio G^-1 w is checked for monotone increase for the superharmonic
    samples w = r^(2-n) and w = 1.
    """
    n = g.n
    cn = (n - 2.0) / (4.0 * (n - 1.0))
    offset = delta ** (2.0 - n) - K * delta ** (2.5 - n)

    def G(r):
        return r ** (2.0 - n) - K * r ** (2.5 - n) - offset

    def G1(r):
        return (2.0 - n) * r ** (1.0 - n) - K * (2.5 - n) * r ** (1.5 - n)

    def G2(r):
        return ((2.0 - n) * (1.0 - n) * r ** (-n)
                - K * (2.5 - n) * (1.5 - n) * r ** (0.5 - n))

    radii = np.geomspace(delta / 100.0, delta * 0.999, num_r)
    direction = np.ones(n) / math.sqrt(n)
    pts = radii[:, None] * direction[None, :]
    u = cf.ConformalFactor.radial(n, G, G1, G2)
    lap = cf.laplace_beltrami(g, u, pts)
    scal = cf.scalar_curvature(g, pts)
    lg = lap - cn * scal * G(radii)

    flat_cert = None
    if g.name == "flat":
        # Delta G = K (n - 5/2) * 1/2 * r^(1/2 - n) > 0 for n >= 3, K > 0
        exact = K * (n - 2.5) * 0.5 * radii ** (0.5 - n)
        flat_cert = bool(np.all(exact > 0) and np.allclose(lap, exact, rtol=1e-6))

    gvals = G(radii)
    monotone = {}
    for label, w in (("r^(2-n)", radii ** (2.0 - n)), ("const", np.ones_like(radii))):
        ratio = w / gvals
        monotone[label] = bool(np.all(np.diff(ratio) > -1e-12 * np.abs(ratio[:-1])))
    limits = {"const": float(radii[0] ** (n - 2.0) * 1.0)}
    return SupHReport(n=n, K=K, delta=delta, min_G=float(gvals.min()),
                      min_LG=float(lg.min()), flat_certificate=flat_cert,
                      ratio_monotone=monotone, limit_values=limits)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances and runtime budgets are pinned here; nothing is calibrated at
run time.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from schouten import barriers as br
from schouten import bubbles as bb
from schouten import comparison as cp
from schouten import conformal as cf
from schouten import solver as sv
from schouten.cones import ConeSpec, CurvatureFunction

RNG = np.random.default_rng(1234)


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status} ({elapsed:7.2f}s) {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_mu_plus_table():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(3, 11):
        for k in range(1, n + 1):
            err = abs(ConeSpec.gamma(n, k).mu_plus() - (n - k) / k)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "mu_plus table n=3..10", ok, elapsed,
            f"max |mu+ - (n-k)/k| = {worst:.2e}, budget 1 s")


def test_criterion_02_bubble_identity():
    t0 = time.perf_counter()
    worst = {"analytic": 0.0, "fd": 0.0}
    tols = {"analytic": 1e-8, "fd": 1e-6}
    ok = True
    for n in (3, 4, 5):
        f = CurvatureFunction.sigma_root(n, max(1, n // 2))
        for _ in range(20):
            a = RNG.uniform(0.7, 1.5)
            p = RNG.uniform(-1.0, 1.0, n)
            bubble = bb.Bubble(n=n, a=a, p=p)
            dirs = RNG.standard_normal((10, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            pts = p + (RNG.uniform(0.0, 1.0, 10)[:, None] / a) * dirs
            for mode in ("analytic", "fd"):
                rep = bb.bubble_verify(f, bubble, pts, mode=mode, tol=tols[mode])
                ok = ok and rep.passed
                worst[mode] = max(worst[mode], rep.max_lambda_dev, rep.max_f_dev)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(2, "bubble identity lambda = e/2, f = 1", ok, elapsed,
            f"worst dev analytic {worst['analytic']:.2e} (tol 1e-8), "
            f"fd {worst['fd']:.2e} (tol 1e-6), budget 10 s")


def test_criterion_03_subsolution_sweep():
    t0 = time.perf_counter()
    pairs = [(n, k) for n in range(3, 7) for k in range(1, n + 1)
             if (n - k) / k <= 1.0 + 1e-12]
    ok = True
    details = []
    for n, k in pairs:
        cfg = br.BarrierSweepConfig(n=n, k=k, deltas=(0.01, 0.05, 0.1, 0.2),
                                    r_min=1e-4, num_r=64, num_dirs=8,
                                    background="sphere", seed=5)
        rep = br.barrier_sweep_sub(cfg)
        good = rep.passed and rep.r1_certified is not None \
            and rep.r1_certified >= 1e-2 and rep.worst_margin < 0
        ok = ok and good
        details.append(f"({n},{k}) r1={rep.r1_certified}")
    neg = br.barrier_sweep_sub(br.BarrierSweepConfig(
        n=4, k=1, deltas=(0.01, 0.05, 0.1, 0.2), r_min=1e-4, num_r=64,
        num_dirs=8, background="sphere", seed=5))
    neg_small_r = [f[1] for f in neg.failures if len(f) == 3]
    ok = ok and (not neg.passed) and neg_small_r and min(neg_small_r) < 1e-3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(3, "sub-solution sweep (mu+ <= 1) + negative control", ok, elapsed,
            f"{len(pairs)} pairs certified, e.g. {details[0]}, {details[-1]};"
            f" control fails at r={min(neg_small_r):.1e}; budget 30 s")


def test_criterion_04_supersolution_sweep():
    t0 = time.perf_counter()
    ok = True
    worst = math.inf
    for n, k in [(4, 1), (5, 1), (5, 2), (6, 2)]:
        top = min((n - k) / k, 2.0)
        mus = tuple(1.0 + f * (top - 1.0) for f in (0.25, 0.5, 0.75))
        cfg = br.BarrierSweepConfig(n=n, k=k, deltas=(0.25, 0.5), mus=mus,
                                    epsilons=(1e-3, 0.1, 0.9), r_min=1e-4,
                                    num_r=64, num_dirs=8, background="sphere",
                                    seed=5)
        rep = br.barrier_sweep_super(cfg)
        ok = ok and rep.passed and bool(rep.chi_inequality_ok) \
            and rep.worst_margin > 0
        worst = min(worst, rep.worst_margin)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(4, "super-solution sweep (1 < mu < min(mu+,2))", ok, elapsed,
            f"all margins > 0 (worst {worst:.1e}), chi2-(mu+1)chi1 < 0;"
            " budget 60 s")


def test_criterion_05_chi_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(RNG.integers(3, 9))
        delta = RNG.uniform(0.005, 0.2495)
        a = n - 2 - 2 * delta
        r = 10.0 ** RNG.uniform(-2, 0) * 0.95 * a
        c1, c2 = br.chi_coefficients_sub(n, delta, r)
        ident = 2.0 / ((n - 2) * r)
        worst = max(worst, abs((c2 - 2 * c1 - ident) / ident))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _report(5, "chi2 - 2 chi1 = 2/((n-2) r)", ok, elapsed,
            f"worst relative error {worst:.2e} over 1000 draws (tol 1e-12)")


def test_criterion_06_gershgorin_bound():
    t0 = time.perf_counter()
    ok = True
    measured = {}
    for n in range(2, 9):
        sharp = 0.0
        for _ in range(1000):
            m = RNG.standard_normal((n, n))
            m = 0.5 * (m + m.T)
            eps = 10.0 ** RNG.uniform(-6, 0)
            noise = RNG.standard_normal((n, n))
            mt = m + eps * 0.5 * (noise + noise.T)
            try:
                res = br.gershgorin_pairing(m, mt)
            except AssertionError:
                ok = False
                continue
            sharp = max(sharp, res.ratio)
        measured[n] = sharp
        ok = ok and sharp <= n ** 2
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"n={n}:{c:.2f}" for n, c in measured.items())
    _report(6, "eigenvalue pairing <= n^2 ||dM||_max", ok, elapsed,
            f"measured sharp constants {detail}")


def test_criterion_07_hawking_bound():
    t0 = time.perf_counter()
    checks = [cp.hawking_bound(0.0, c0) == 1.0 / c0
              for c0 in (0.1, 0.5, 1.0, 2.0, 7.0)]
    checks.append(abs(cp.hawking_bound(1.0, 2.0) - math.log(3.0) / 2) <= 1e-12)
    rho = 0.83
    checks.append(abs(cp.hawking_bound(0.0, 1.0 / rho) - rho) <= 1e-10)
    elapsed = time.perf_counter() - t0
    _report(7, "Hawking-type distance bound", all(checks), elapsed,
            "1/c0 exact; U(1,2) = ln(3)/2 @1e-12; ball equality @1e-10")


def test_criterion_08_bishop_gromov():
    t0 = time.perf_counter()
    checks = []
    for n in (3, 4, 5):
        model = cp.ModelSpace(n=n, alpha=0.0)
        radii = np.geomspace(1e-3, 3.0, 48)
        flat = cp.bg_ratio(lambda r: cp.unit_ball_volume(n) * r ** n, model,
                           radii)
        checks.append(bool(np.abs(flat.ratios - 1.0).max() <= 1e-12))
        sph = cp.bg_ratio(lambda r: cp.sphere_ball_volume(n, r), model, radii)
        checks.append(bool(np.all(np.diff(sph.ratios) < 0)))
        checks.append(abs(sph.ratios[0] - 1.0) <= 1e-6)
    hyp = cp.model_ball_volume(cp.ModelSpace(n=3, alpha=1.0), 1.0)
    checks.append(abs(hyp - math.pi * (math.sinh(2.0) - 2.0)) <= 1e-8)
    elapsed = time.perf_counter() - t0
    _report(8, "Bishop-Gromov ratios", all(checks), elapsed,
            f"flat = 1 @1e-12; sphere decreasing, limit 1 @1e-6; "
            f"hyperbolic value {hyp:.6f} @1e-8")


def test_criterion_09_solver_fixed_point_and_continuation():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (3, 4):
        k = (n + 1) // 2  # smallest k with mu_plus(Gamma_k) <= 1
        prof = sv.RadialProfile.make(n, 128)
        f = CurvatureFunction.sigma_root(n, k)
        s0 = 2.0 / (n - 2.0)
        # the CLI's default perturbation, inside the cone by a decided margin
        # (0.42 at the pole for n = 3: (-0.2/0.9 + 1/2) 0.9^-4)
        guess = prof.with_values(1.0 + 0.1 * np.cos(prof.theta))
        assert sv.make_state(guess, f, s0, 1.0).min_cone_margin >= 0.1
        start = sv.newton_solve(guess, f, s0)
        dev0 = float(np.abs(start.profile.values - 1.0).max())
        ok = ok and start.residual_norm < 1e-8 and dev0 <= 1e-8
        schedule = [(s, 1.0) for s in np.linspace(s0, 0.0, 21)[1:]]
        states = sv.newton_continuation(start, schedule, f)
        dev = max(float(np.abs(st.profile.values - 1.0).max())
                  for st in states)
        margins_ok = all(st.min_cone_margin > 0 for st in states)
        ricci_ok = all(st.ricci_margin >= 0 for st in states)
        ok = ok and dev <= 1e-8 and margins_ok and ricci_ok
        details.append(f"(n={n},k={k}) dev={dev:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(9, "Newton basin + continuation to s=0 at N=128", ok, elapsed,
            "; ".join(details) + "; budget 60 s")


def test_criterion_10_degree_checkpoints():
    t0 = time.perf_counter()
    n = 4
    prof = sv.RadialProfile.make(n, 128)
    checks = []
    checks.append(np.abs(sv.ht_residual(prof, 0.0)).max() <= 1e-12)
    vals, vecs = sv.linearized_H0_spectrum(prof, 3, return_vectors=True)
    checks.append(abs(vals[0] + 2.0) <= 1e-6)
    v0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    checks.append(np.abs(v0 - v0.mean()).max() <= 1e-6)
    checks.append(int(np.sum(np.asarray(vals) <= 0)) == 1)
    wob = prof.with_values(1.0 + 0.25 * np.sin(prof.theta) ** 2)
    checks.append(np.abs(sv.ht_residual(wob, 1.0)
                         - sv.g0_residual(wob)).max() <= 1e-12)
    cn = (n - 2.0) / (4.0 * (n - 1.0))
    root = brentq(lambda c: cn * n * (n - 1) * c - c ** (n / (n - 2.0)),
                  0.5, 10.0, xtol=1e-13)
    checks.append(abs(sv.g0_constant_solution(n) - root) <= 1e-10)
    elapsed = time.perf_counter() - t0
    _report(10, "degree checkpoints (H_t family)", all(checks), elapsed,
            f"spectrum head {np.round(np.asarray(vals[:2], dtype=float), 6)}; "
            f"G0 constant {sv.g0_constant_solution(n):.6f} vs root-find")


def test_criterion_11_cross_module_consistency():
    t0 = time.perf_counter()
    worst_radial = 0.0
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = int(rng.integers(3, 6))
        g = cf.MetricField.sphere_polar(n)
        coef = rng.uniform(-0.2, 0.2, 3) / np.arange(1, 4) ** 2
        ms = np.arange(1, 4)

        def u(th, coef=coef):
            return np.exp(np.cos(np.outer(np.atleast_1d(th), ms)) @ coef)

        def du(th, coef=coef):
            return u(th) * (-np.sin(np.outer(np.atleast_1d(th), ms)) @ (ms * coef))

        def ddu(th, coef=coef):
            p1 = -np.sin(np.outer(np.atleast_1d(th), ms)) @ (ms * coef)
            p2 = -np.cos(np.outer(np.atleast_1d(th), ms)) @ (ms ** 2 * coef)
            return u(th) * (p1 ** 2 + p2)

        prof = sv.RadialProfile.make(n, 128, values=lambda th: u(th))
        interior = np.flatnonzero((prof.theta > 0.3)
                                  & (prof.theta < math.pi - 0.3))
        j = int(rng.choice(interior))
        lam_radial = np.sort(sv.schouten_eig_matrix(prof)[j])
        theta = prof.theta[j]

        def val(x):
            return u(x[:, 0])

        def grad(x):
            out = np.zeros_like(x)
            out[:, 0] = du(x[:, 0])
            return out

        def hess(x):
            out = np.zeros((x.shape[0], n, n))
            out[:, 0, 0] = ddu(x[:, 0])
            return out

        factor = cf.ConformalFactor.from_callable(n, val, grad=grad, hess=hess)
        x = np.full(n, 1.2)
        x[0] = theta
        lam_chart = cf.conformal_schouten_eigs(g, factor, x)
        worst_radial = max(worst_radial,
                           float(np.abs(lam_chart - lam_radial).max()))
    ok = worst_radial <= 1e-6

    worst_comp = 0.0
    for _ in range(20):
        nd = 4
        g = cf.MetricField.flat(nd)
        a = rng.uniform(-0.4, 0.4, nd)
        b = rng.uniform(-0.4, 0.4, nd)
        u1 = cf.ConformalFactor.from_callable(
            nd, lambda x: np.exp(x @ a),
            grad=lambda x: np.exp(x @ a)[:, None] * a,
            hess=lambda x: np.exp(x @ a)[:, None, None] * np.outer(a, a))
        v1 = cf.ConformalFactor.from_callable(
            nd, lambda x: np.exp(x @ b),
            grad=lambda x: np.exp(x @ b)[:, None] * b,
            hess=lambda x: np.exp(x @ b)[:, None, None] * np.outer(b, b))
        w1 = cf.ConformalFactor.from_callable(
            nd, lambda x: np.exp(x @ (a + b)),
            grad=lambda x: np.exp(x @ (a + b))[:, None] * (a + b),
            hess=lambda x: np.exp(x @ (a + b))[:, None, None]
            * np.outer(a + b, a + b))
        x = rng.uniform(-0.5, 0.5, (4, nd))
        lhs = cf.schouten_conformal(g, w1, x)
        rhs = cf.schouten_conformal(cf.conformal_metric(g, u1), v1, x)
        worst_comp = max(worst_comp, float(np.abs(lhs - rhs).max()))
    ok = ok and worst_comp <= 1e-6
    elapsed = time.perf_counter() - t0
    _report(11, "cross-module consistency", ok, elapsed,
            f"radial vs chart {worst_radial:.2e} (50 profiles); "
            f"composition {worst_comp:.2e} (20 instances); tol 1e-6")

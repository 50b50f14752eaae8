import dataclasses
import math

import numpy as np
import pytest

from schouten import barriers as br
from schouten import cli
from schouten import conformal as cf
from schouten.cones import ConeSpec
from schouten.errors import DomainError


# -- eigenvalue continuity ----------------------------------------------------

def test_gershgorin_identical_matrices():
    m = np.diag([1.0, 2.0])
    res = br.gershgorin_pairing(m, m)
    assert res.total_deviation == 0.0


def test_gershgorin_two_by_two_closed_form():
    m = np.diag([1.0, 3.0])
    mt = np.array([[1.0, 0.1], [0.1, 3.0]])
    res = br.gershgorin_pairing(m, mt)
    # eigenvalues of mt are 2 -+ sqrt(1 + 0.01)
    lo, hi = 2.0 - math.sqrt(1.01), 2.0 + math.sqrt(1.01)
    assert res.per_pair[0] == pytest.approx(abs(1.0 - lo), rel=1e-12)
    assert res.per_pair[1] == pytest.approx(abs(3.0 - hi), rel=1e-12)
    assert np.all(res.per_pair <= 0.1)
    assert res.total_deviation <= 0.2


def test_gershgorin_bound_random_pairs(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        m = rng.standard_normal((n, n))
        m = 0.5 * (m + m.T)
        eps = 10.0 ** rng.uniform(-6, -0.5)
        noise = rng.standard_normal((n, n))
        mt = m + eps * 0.5 * (noise + noise.T)
        res = br.gershgorin_pairing(m, mt)  # raises if the bound fails
        assert res.total_deviation <= res.bound
        assert res.ratio <= n ** 2


def test_gershgorin_shape_mismatch():
    with pytest.raises(ValueError):
        br.gershgorin_pairing(np.eye(3), np.eye(4))


def _symmetric_pairs(rng, trials, n):
    m = rng.standard_normal((trials, n, n))
    m = 0.5 * (m + m.transpose(0, 2, 1))
    noise = rng.standard_normal((trials, n, n))
    scale = 10.0 ** rng.uniform(-8, 0, size=trials)
    return m, m + (0.5 * scale)[:, None, None] * (noise + noise.transpose(0, 2, 1))


def _pairing_loop(m, mt):
    results = [br.gershgorin_pairing(a, b) for a, b in zip(m, mt)]
    # the per-pair total as the estimate defines it, both spectra from eigvalsh
    for a, b, res in zip(m, mt, results):
        drift = np.abs(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b))
        assert res.total_deviation == float(drift.sum())
    return (np.array([r.ratio for r in results]),
            np.array([r.total_deviation for r in results]),
            np.array([r.max_perturbation for r in results]))


@pytest.mark.parametrize("n", range(2, 9))
def test_gershgorin_ratios_match_per_pair_loop(rng, n):
    m, mt = _symmetric_pairs(rng, 50, n)
    ratio, within = br.gershgorin_ratios(m, mt)
    loop_ratio, loop_total, loop_eps = _pairing_loop(m, mt)
    assert ratio.shape == within.shape == (50,)
    assert within.all()
    assert np.array_equal(ratio, loop_ratio)
    eps, _, total, bound, ok = br._pairing_stack(m, mt)
    assert np.array_equal(total, loop_total) and np.array_equal(eps, loop_eps)
    assert np.array_equal(bound, n ** 2 * loop_eps) and ok.all()


def test_gershgorin_ratios_single_trial_and_identical_row(rng):
    m, mt = _symmetric_pairs(rng, 1, 4)
    ratio, within = br.gershgorin_ratios(m, mt)
    assert ratio.shape == (1,) and within.all()
    assert np.array_equal(ratio, _pairing_loop(m, mt)[0])

    m, mt = _symmetric_pairs(rng, 3, 5)
    mt[1] = m[1]  # eps = 0: ratio 0, as the per-pair result reports it
    ratio, within = br.gershgorin_ratios(m, mt)
    assert within.all() and ratio[1] == 0.0 and ratio[0] > 0.0
    assert np.array_equal(ratio, _pairing_loop(m, mt)[0])


def test_only_the_per_pair_estimate_diagonalises(rng, monkeypatch):
    real_eigh = br.np.linalg.eigh
    calls = []

    def counted_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(br.np.linalg, "eigh", counted_eigh)
    n = 5
    m, mt = _symmetric_pairs(rng, 40, n)
    ratio, within = br.gershgorin_ratios(m, mt)
    summary, _ = cli._run_gershgorin({"dims": [2, 5], "trials": 30}, cli._rng_for(0, "gersh"))
    assert calls == [] and within.all() and summary["passed"]
    for i in (0, 17, 39):
        res = br.gershgorin_pairing(m[i], mt[i])
        assert res.ratio == ratio[i]
        # the rotated discs: Q^T mt Q in the eigenbasis of m, whose diagonal
        # sits within ||mt - m||_2 <= n eps of the spectrum of m
        q = real_eigh(m[i])[1]
        rotated = q.T @ mt[i] @ q
        diag = np.diag(rotated)
        assert np.array_equal(res.rotated_diagonal, diag)
        assert np.array_equal(res.gershgorin_radii, np.abs(rotated).sum(axis=1) - np.abs(diag))
        assert np.all(np.abs(diag - np.linalg.eigvalsh(m[i]))
                      <= n * res.max_perturbation + 1e-12)
    assert calls == [(n, n)] * 3


def test_gershgorin_ratios_shape_validation():
    with pytest.raises(ValueError):
        br.gershgorin_ratios(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        br.gershgorin_ratios(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        br.gershgorin_ratios(np.zeros(3), np.zeros(3))


# -- closed forms -------------------------------------------------------------

def test_subsolution_value_and_log_derivative():
    v, dlog = br.subsolution_eval(4, 0.1, 1.0)
    assert v == pytest.approx(math.e, rel=1e-14)  # 1^(-1.8) * e
    # d/dr log v + (n-2-2 delta)/r - 1 = 0 identically
    r = np.geomspace(1e-3, 1.0, 50)
    _, dlog = br.subsolution_eval(5, 0.2, r)
    assert np.abs(dlog + (5 - 2 - 0.4) / r - 1.0).max() == 0.0
    with pytest.raises(DomainError):
        br.subsolution_eval(4, 0.1, -1.0)
    with pytest.raises(DomainError):
        br.subsolution_eval(4, 0.3, 1.0)


def test_subsolution_delta_monotone_on_grid():
    # as delta decreases toward 0 the profile r^-(n-2-2 delta) e^r increases
    # pointwise on (0, 1)
    r = np.geomspace(1e-3, 0.9, 40)
    v1, _ = br.subsolution_eval(4, 0.2, r)
    v2, _ = br.subsolution_eval(4, 0.05, r)
    v_limit = r ** (-(4 - 2)) * np.exp(r)
    assert np.all(v2 > v1)
    assert np.all(v_limit > v2)


def test_chi_sub_identity_and_values(rng):
    chi1, chi2 = br.chi_coefficients_sub(4, 0.1, 0.01)
    assert chi1 == pytest.approx(0.5 * 1.79 * 0.21 / 1e-4, rel=1e-12)
    assert chi2 - 2 * chi1 == pytest.approx(100.0, rel=1e-12)
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        delta = rng.uniform(0.01, 0.24)
        a = n - 2 - 2 * delta
        r = 10.0 ** rng.uniform(-2, 0) * 0.9 * a
        c1, c2 = br.chi_coefficients_sub(n, delta, r)
        ident = 2.0 / ((n - 2) * r)
        assert c2 - 2 * c1 == pytest.approx(ident, rel=1e-12)
    # chi1 positive on (0, a)
    r = np.linspace(1e-4, a * 0.999, 200)
    c1, _ = br.chi_coefficients_sub(n, delta, r)
    assert np.all(c1 > 0)
    with pytest.raises(DomainError):
        br.chi_coefficients_sub(4, 0.1, 2.0)


def test_supersolution_values():
    v = br.supersolution_eval(5, 1.5, 0.5, 0.1, 0.01)
    assert v == pytest.approx(1.9 ** 6, rel=1e-13)
    # eps = 0 endpoint
    v0 = br.supersolution_eval(4, 1.5, 0.5, 0.0, 1e-6)
    assert v0 == pytest.approx(1.0, abs=1e-2)
    with pytest.raises(DomainError):
        br.supersolution_eval(4, 2.5, 0.5, 0.1, 0.01)
    with pytest.raises(DomainError):
        br.supersolution_eval(4, 1.5, 0.5, 0.0, 1.5)  # base 1 - 1.5^0.5 < 0


def test_supersolution_asymptotic_slope():
    # log-log slope of v_eps near r = 0 equals -(n-2)
    n, mu, delta, eps = 5, 1.9, 0.5, 0.1
    r = np.geomspace(1e-6, 1e-4, 30)
    v = br.supersolution_eval(n, mu, delta, eps, r)
    slope = np.polyfit(np.log(r), np.log(v), 1)[0]
    assert slope == pytest.approx(-(n - 2), abs=0.02)


@pytest.mark.parametrize("kind, params", [
    ("sub", {"delta": 0.1}),
    ("super", {"mu": 1.3, "delta": 0.2, "eps": 0.1}),
    ("super", {"mu": 1.8, "delta": 0.7, "eps": 0.0}),
])
def test_radial_factor_derivatives_match_central_differences(kind, params):
    n = 4
    v, v1, v2 = br._radial_factor(n, kind=kind, **params)
    r = np.geomspace(0.02, 0.5, 25)
    h = 1e-4 * r
    fd1 = (v(r + h) - v(r - h)) / (2.0 * h)
    fd2 = (v(r + h) - 2.0 * v(r) + v(r - h)) / h ** 2
    assert np.allclose(v1(r), fd1, rtol=1e-7, atol=0.0)
    assert np.allclose(v2(r), fd2, rtol=1e-5, atol=0.0)
    _, dlog, _ = br._barrier_jet(n, kind, **params)(r)
    assert np.allclose(dlog, v1(r) / v(r), rtol=1e-13, atol=0.0)
    if kind == "super":
        assert np.array_equal(v(r), br.supersolution_eval(n, r=r, **params))
    else:
        assert np.array_equal(v(r), br.subsolution_eval(n, params["delta"], r)[0])


def test_chi_super_inequality_closed_form(rng):
    for _ in range(300):
        mu = rng.uniform(1.05, 1.95)
        delta = rng.uniform(0.05, 0.95)
        eps = rng.uniform(0.0, 0.99)
        r = 10.0 ** rng.uniform(-4, -0.5)
        b = eps * r ** (1 - mu) + 1 - r ** delta
        if b <= 0:
            continue
        c1, c2 = br.chi_coefficients_super(mu, delta, eps, r)
        expect = -2 * delta * (mu - 1 + delta) / ((mu - 1) * r ** (2 - delta) * b)
        # chi1 and chi2 are individually much larger than their combination;
        # the comparison tolerance allows for that cancellation
        assert c2 - (mu + 1) * c1 == pytest.approx(expect, rel=1e-6)
        assert c2 - (mu + 1) * c1 < 0


def test_chi_super_matches_factored_form(rng):
    # the factored closed form of chi1
    for _ in range(200):
        mu = rng.uniform(1.05, 1.95)
        delta = rng.uniform(0.05, 0.95)
        eps = rng.uniform(0.0, 0.99)
        r = 10.0 ** rng.uniform(-4, -0.5)
        b = eps * r ** (1 - mu) + 1 - r ** delta
        if b <= 0:
            continue
        c1, _ = br.chi_coefficients_super(mu, delta, eps, r)
        num = 2 * (eps * (mu - 1) * r ** (1 - mu) + delta * r ** delta) \
            * ((mu - 1) - (mu - 1 + delta) * r ** delta)
        expect = num / ((mu - 1) ** 2 * r ** 2 * b ** 2)
        assert c1 == pytest.approx(expect, rel=1e-10)


# -- sweeps -------------------------------------------------------------------

@pytest.mark.parametrize("n,k,background", [(4, 2, "flat"), (3, 2, "sphere"),
                                            (4, 2, "sphere")])
def test_sub_sweep_passes(n, k, background):
    cfg = br.BarrierSweepConfig(n=n, k=k, deltas=(0.05, 0.2),
                                background=background, num_r=32)
    rep = br.barrier_sweep_sub(cfg)
    assert rep.passed
    assert rep.r1_certified is not None and rep.r1_certified >= 1e-2
    assert rep.worst_margin < 0


def test_sub_sweep_negative_control_fails_at_small_r():
    cfg = br.BarrierSweepConfig(n=4, k=1, deltas=(0.05, 0.2),
                                background="sphere", num_r=32)
    rep = br.barrier_sweep_sub(cfg)
    assert not rep.passed
    assert rep.r1_certified is None
    # failures happen at the small end of the radius grid
    small_fail = [f[1] for f in rep.failures if len(f) == 3]
    assert small_fail and min(small_fail) < 1e-3


def test_sub_sweep_delta_validation():
    cfg = br.BarrierSweepConfig(n=4, k=2, deltas=(0.3,))
    with pytest.raises(ValueError):
        br.barrier_sweep_sub(cfg)


@pytest.mark.parametrize("counts", [{"num_r": 0}, {"num_dirs": 0}, {"num_r": -1}])
def test_sweep_config_needs_samples(counts):
    with pytest.raises(ValueError, match="at least 1"):
        br.BarrierSweepConfig(n=4, k=2, **counts)


def test_super_sweep_passes_and_is_eps_uniform():
    cfg = br.BarrierSweepConfig(n=4, k=1, deltas=(0.25, 0.5),
                                mus=(1.3, 1.6), epsilons=(1e-3, 0.1, 0.9),
                                background="sphere", num_r=32)
    rep = br.barrier_sweep_super(cfg)
    assert rep.passed
    assert rep.chi_inequality_ok
    assert rep.worst_margin > 0
    verdicts = {}
    for (mu, delta, eps), verdict in rep.epsilon_verdicts.items():
        verdicts.setdefault((mu, delta), set()).add(verdict)
    assert all(len(v) == 1 for v in verdicts.values())


def test_super_sweep_builds_chart_geometry_once_per_ceiling(monkeypatch):
    # the background Schouten tensor depends only on the point grid: one
    # evaluation per r1 candidate, shared by every (mu, delta, eps)
    geometry_r1, background_r1, eigs_r1 = [], [], []
    geometry_rows, eigs_rows = [], []

    def counted(fn, log, rows):
        def wrapper(*args, **kwargs):
            log.append(float(np.linalg.norm(args[-1], axis=-1).max()))
            rows.append(len(args[-1]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cf, "chart_geometry",
                        counted(cf.chart_geometry, geometry_r1, geometry_rows))
    monkeypatch.setattr(cf, "schouten_background",
                        counted(cf.schouten_background, background_r1, []))
    monkeypatch.setattr(cf, "conformal_schouten_eigs",
                        counted(cf.conformal_schouten_eigs, eigs_r1, eigs_rows))
    cfg = br.BarrierSweepConfig(n=4, k=1, deltas=(0.25, 0.5), mus=(1.3,),
                                epsilons=(0.1, 0.9), background="sphere",
                                num_r=8, num_dirs=2)
    rep = br.barrier_sweep_super(cfg)
    assert rep.passed and rep.r1_certified == 0.125
    tried = [0.5, 0.25, 0.125]
    assert geometry_r1 == pytest.approx(tried, rel=1e-12)
    assert background_r1 == pytest.approx(tried, rel=1e-12)
    # the discarded ceilings 0.5 and 0.25 stop at their first (failing)
    # combination; the certified ceiling 0.125 runs all four
    assert eigs_r1 == pytest.approx([0.5, 0.25, 0.125, 0.125, 0.125, 0.125], rel=1e-12)
    # one sample per radius: num_r rows, not num_r * num_dirs
    assert geometry_rows == [cfg.num_r] * len(tried)
    assert eigs_rows == [cfg.num_r] * len(eigs_r1)
    assert len(rep.rows) == 4 * cfg.num_r


def test_super_sweep_precondition_violations():
    with pytest.raises(ValueError):
        # mu_plus(Gamma_2, n=4) = 1: super-solution regime needs mu_plus > 1
        br.barrier_sweep_super(br.BarrierSweepConfig(n=4, k=2, mus=(1.2,)))
    with pytest.raises(ValueError):
        br.barrier_sweep_super(br.BarrierSweepConfig(n=4, k=1, mus=(2.5,)))
    with pytest.raises(ValueError):
        br.barrier_sweep_super(br.BarrierSweepConfig(n=4, k=1))


def test_super_guard_reads_the_closed_form_mu_plus():
    # mu_plus(Gamma_3, n = 6) = 1 exactly, but bisection reads
    # 1.0000000000218279: the guard let this mu through to a nonpositive
    # conformal factor inside the sweep
    with pytest.raises(ValueError, match="mu_plus > 1"):
        br.barrier_sweep_super(br.BarrierSweepConfig(n=6, k=3, mus=(1.00000000001,)))
    # and the mu range ends at (n - k)/k = 4/3, below the bisected 1.33333333336
    with pytest.raises(ValueError, match="outside"):
        br.barrier_sweep_super(br.BarrierSweepConfig(n=7, k=3, mus=(4.0 / 3.0,)))


@pytest.mark.parametrize("kind, params, field", [
    # the barrier cases of test_cli.py::test_malformed_number_or_pair_exit_two,
    # each at the pair it fails on
    ("sub", dict(n=4, k=2, deltas=(0.3,)), "deltas"),
    ("sub", dict(n=4, k=2, deltas=(0.1, 0.0)), "deltas"),
    ("super", dict(n=4, k=1, mus=(1.5,), deltas=(1.0,)), "deltas"),
    ("super", dict(n=4, k=1, mus=(1.5,), epsilons=(1.5,)), "epsilons"),
    ("super", dict(n=4, k=1, mus=(1.5,), epsilons=(-0.1,)), "epsilons"),
    ("super", dict(n=5, k=2, mus=(1.9,)), "mus"),
    ("super", dict(n=4, k=1, mus=(1.5, 1.0)), "mus"),
    ("super", dict(n=7, k=3, mus=(4.0 / 3.0,)), "mus"),
    ("super", dict(n=5, k=3, mus=(1.2,)), "pairs"),
    ("super", dict(n=6, k=3, mus=(1.2,)), "pairs"),
    ("super", dict(n=4, k=2, mus=(1.2,)), "pairs"),
    # an empty delta grid, which the config rejects as an empty list, would
    # certify nothing
    ("sub", dict(n=4, k=2, deltas=()), "deltas"),
    ("super", dict(n=4, k=1, mus=(1.5,), deltas=()), "deltas"),
    # r_min above half the first dyadic ceiling leaves no ceiling to try,
    # and an empty mu or epsilon grid certifies nothing
    ("sub", dict(n=4, k=2, deltas=(0.1,), r_min=0.3), "r_min"),
    ("super", dict(n=4, k=1, mus=()), "mus"),
    ("super", dict(n=4, k=1, mus=(1.5,), epsilons=()), "epsilons"),
])
def test_sweep_rejects_the_field_the_config_rejects(monkeypatch, kind, params, field):
    # one statement of the barrier rules serves the config and the library:
    # the sweep names the same field, before it builds any chart geometry
    def no_geometry(*args, **kwargs):
        raise AssertionError("chart geometry built before the parameter check")

    monkeypatch.setattr(cf, "chart_geometry", no_geometry)
    sweep = br.barrier_sweep_sub if kind == "sub" else br.barrier_sweep_super
    with pytest.raises(ValueError, match=rf"-solution sweep: {field} must be "):
        sweep(br.BarrierSweepConfig(**params))


def _full_ceiling(cfg, kind, combos, r1):
    # every combination evaluated at the ceiling r1, none skipped
    g = cfg.metric()
    rr = cfg.radii(r1)
    pts = rr[:, None] * cfg.directions()[np.arange(cfg.num_r) % cfg.num_dirs]
    geometry = cf.chart_geometry(g, pts)
    cone = ConeSpec.gamma(cfg.n, cfg.k)
    rows, failures, verdicts = [], [], {}
    worst, max_rem = (-math.inf, 0.0) if kind == "sub" else (math.inf, 0.0)
    for combo in combos:
        margins, rems = br._sweep_once(combo, kind, g, geometry, rr, cone)
        ok = margins < 0 if kind == "sub" else margins > 0
        worst = (max(worst, float(margins.max())) if kind == "sub"
                 else min(worst, float(margins.min())))
        max_rem = max(max_rem, float(rems.max()))
        mu, delta, eps = combo.get("mu"), combo["delta"], combo.get("eps")
        verdicts[(mu, delta, eps)] = bool(ok.all())
        if not ok.all():
            bad = int(np.argmin(ok))
            failures.append((combo, float(rr[bad]), float(margins[bad])))
        rows.extend((delta, mu, eps) + row
                    for row in zip(rr.tolist(), margins.tolist(), ok.tolist()))
    return dict(rows=rows, failures=failures, worst_margin=worst,
                max_remainder=max_rem, epsilon_verdicts=verdicts)


@pytest.mark.parametrize("kind, params, calls", [
    # ceilings 0.5 and 0.25 fail at their first combination, 0.125 certifies
    ("super", dict(n=4, k=1, deltas=(0.25, 0.5), mus=(1.3,), epsilons=(0.1, 0.9)),
     1 + 1 + 4),
    # the negative control: every delta fails at each of the 8 ceilings
    ("sub", dict(n=4, k=1, deltas=(0.05, 0.2)), 7 * 1 + 2),
])
def test_early_stop_returns_the_fully_evaluated_report(monkeypatch, kind, params, calls):
    cfg = br.BarrierSweepConfig(num_r=8, num_dirs=2, **params)
    combos = ([{"delta": d} for d in cfg.deltas] if kind == "sub" else
              [{"mu": mu, "delta": d, "eps": e}
               for mu in cfg.mus for d in cfg.deltas for e in cfg.epsilons])
    sweep_once, evaluated = br._sweep_once, []

    def counted(combo, *args):
        evaluated.append(combo)
        return sweep_once(combo, *args)

    monkeypatch.setattr(br, "_sweep_once", counted)
    report = br._run_sweep(cfg, kind, combos)
    monkeypatch.undo()
    assert len(evaluated) == calls  # the discarded ceilings stopped early
    last = br._ceilings(kind, cfg.n, cfg.deltas, cfg.r_min)[-1]
    want = _full_ceiling(cfg, kind, combos, report.r1_certified or last)
    for name, value in want.items():
        assert getattr(report, name) == value, name
    if report.r1_certified is None:
        # the last ceiling, returned when none certifies, is complete
        assert len(report.rows) == len(cfg.deltas) * cfg.num_r
        assert [f[0]["delta"] for f in report.failures] == list(cfg.deltas)


def _copied_out_sweep(cfg, kind, combos, want_negative, r_start=0.5, full_grid=False):
    # the sweep loop as it was before it kept one report per ceiling: state
    # for the current ceiling, copied into the result at its end.  It samples
    # one point per radius, r_i d_(i mod num_dirs), or with ``full_grid``
    # every (radius, direction) pair, radius-major, as the sweep once did
    g = cfg.metric()
    dirs = cfg.directions()
    cone = ConeSpec.gamma(cfg.n, cfg.k)
    candidates = [r_start / 2 ** i for i in range(8)]
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
        radii = cfg.radii(r1)
        if full_grid:
            pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, cfg.n)
            rr = np.repeat(radii, cfg.num_dirs)
        else:
            pts = radii[:, None] * dirs[np.arange(cfg.num_r) % cfg.num_dirs]
            rr = radii
        geometry = cf.chart_geometry(g, pts)
        for combo in combos:
            margins, rems = br._sweep_once(combo, kind, g, geometry, rr, cone)
            ok_mask = margins < 0 if want_negative else margins > 0
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
    return br.SweepReport(kind=f"barrier-{kind}", n=cfg.n, k=cfg.k,
                          background=cfg.background, passed=best_r1 is not None,
                          r1_certified=best_r1, worst_margin=float(worst),
                          max_remainder=float(max_rem), rows=final_rows,
                          failures=failures, epsilon_verdicts=eps_verdicts)


_SWEEP_CASES = [
    ("sub", dict(n=4, k=2, deltas=(0.05, 0.2))),
    ("sub", dict(n=4, k=1, deltas=(0.05, 0.2))),  # negative control
    ("sub", dict(n=4, k=2, deltas=(0.1,), background="flat")),
    ("sub", dict(n=4, k=1, deltas=(0.1,), r_min=0.1)),  # r_min ends the descent
    ("super", dict(n=4, k=1, deltas=(0.25, 0.5), mus=(1.3, 1.6),
                   epsilons=(0.1, 0.9))),
    ("super", dict(n=6, k=2, deltas=(0.25, 0.5), mus=(1.5,))),
]


@pytest.mark.parametrize("kind, params", _SWEEP_CASES)
def test_sweep_report_matches_copied_out_oracle(monkeypatch, kind, params):
    cfg = br.BarrierSweepConfig(num_r=12, num_dirs=3, **params)
    sweep = br.barrier_sweep_sub if kind == "sub" else br.barrier_sweep_super
    got = sweep(cfg)
    monkeypatch.setattr(br, "_run_sweep", lambda cfg, kind, combos: _copied_out_sweep(
        cfg, kind, combos, kind == "sub", br._ceilings(kind, cfg.n, cfg.deltas)[0]))
    want = sweep(cfg)
    for f in dataclasses.fields(br.SweepReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    # the CSV writer formats numpy scalars differently from Python ones
    assert all(type(row[3]) is float and type(row[4]) is float
               and type(row[5]) is bool for row in got.rows)


@pytest.mark.parametrize("num_dirs", [1, 3, 20])
@pytest.mark.parametrize("kind, params", _SWEEP_CASES)
def test_sweep_rows_are_rows_of_the_full_direction_grid(monkeypatch, kind, params, num_dirs):
    # row i of a combination is the full (radius x direction) grid's row at
    # (r_i, d_(i mod num_dirs)), bit for bit, and the full grid decides the
    # same; with num_dirs = 20 > num_r = 12 only d_0, ..., d_11 are sampled
    cfg = br.BarrierSweepConfig(num_r=12, num_dirs=num_dirs, **params)
    sweep = br.barrier_sweep_sub if kind == "sub" else br.barrier_sweep_super
    got = sweep(cfg)
    monkeypatch.setattr(br, "_run_sweep", lambda cfg, kind, combos: _copied_out_sweep(
        cfg, kind, combos, kind == "sub", br._ceilings(kind, cfg.n, cfg.deltas)[0],
        full_grid=True))
    full = sweep(cfg)
    assert got.passed == full.passed
    assert got.r1_certified == full.r1_certified
    assert got.epsilon_verdicts == full.epsilon_verdicts
    combos = len(got.epsilon_verdicts)
    assert len(got.rows) == combos * cfg.num_r
    assert len(full.rows) == combos * cfg.num_r * num_dirs
    picks = [(c * cfg.num_r + i) * num_dirs + i % num_dirs
             for c in range(combos) for i in range(cfg.num_r)]
    assert got.rows == [full.rows[j] for j in picks]


def test_sweep_prediction_remainder_scales():
    # flat background: the closed-form (chi1 - chi2, chi1, ...) prediction is
    # exact; the sphere background carries an order-one curvature remainder
    flat = br.barrier_sweep_sub(br.BarrierSweepConfig(
        n=4, k=2, deltas=(0.1,), background="flat", num_r=24))
    assert flat.max_remainder < 1e-6
    sphere = br.barrier_sweep_sub(br.BarrierSweepConfig(
        n=4, k=2, deltas=(0.1,), background="sphere", num_r=24))
    assert sphere.max_remainder < 10.0


# -- superharmonic barrier ----------------------------------------------------

def test_suph_flat_certificate_and_monotone_ratio():
    rep = br.suph_barrier_check(4, K=1.0, delta=0.25, background="flat")
    assert rep.flat_certificate
    assert rep.min_LG >= 0.0
    assert rep.min_G >= -1e-12
    assert rep.ratio_monotone["r^(2-n)"]
    assert rep.ratio_monotone["const"]
    assert rep.limit_values["const"] == pytest.approx(0.0, abs=1e-4)


def test_suph_delta_laplacian_identity():
    # Delta(-K r^(-3/2)) = (3K/4) r^(-7/2) in dimension 4 via the chart path
    n, K = 4, 2.0
    g = cf.MetricField.flat(n)
    u = cf.ConformalFactor.radial(
        n, lambda r: -K * r ** (2.5 - n),
        lambda r: -K * (2.5 - n) * r ** (1.5 - n),
        lambda r: -K * (2.5 - n) * (1.5 - n) * r ** (0.5 - n))
    r = 0.3
    x = np.zeros(n)
    x[0] = r
    lap = cf.laplace_beltrami(g, u, x)
    assert lap == pytest.approx(0.75 * K * r ** (-3.5), rel=1e-10)


def test_suph_on_sphere_background_runs():
    rep = br.suph_barrier_check(4, K=1.0, delta=0.2, background="sphere")
    assert rep.flat_certificate is None
    assert rep.min_G >= -1e-12


def _suph_chart_path(n, K, delta, background):
    # L_g G = Delta_g G - c(n) R_g G through the chart, on the check's grid
    # along the diagonal direction
    off = delta ** (2.0 - n) - K * delta ** (2.5 - n)
    u = cf.ConformalFactor.radial(
        n, lambda r: r ** (2.0 - n) - K * r ** (2.5 - n) - off,
        lambda r: (2.0 - n) * r ** (1.0 - n) - K * (2.5 - n) * r ** (1.5 - n),
        lambda r: ((2.0 - n) * (1.0 - n) * r ** (-n)
                   - K * (2.5 - n) * (1.5 - n) * r ** (0.5 - n)))
    g = br.BACKGROUNDS[background](n)
    radii = np.geomspace(delta / 100.0, delta * 0.999, 64)
    pts = radii[:, None] * np.full(n, 1.0 / math.sqrt(n))
    return cf.laplace_beltrami(g, u, pts) - (n - 2.0) / (4.0 * (n - 1.0)) \
        * cf.scalar_curvature(g, pts) * u.value(pts)


@pytest.mark.parametrize("background", ["flat", "sphere"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("K, delta", [(1.0, 0.25), (2.0, 0.2), (0.5, 0.1)])
def test_suph_closed_form_matches_chart_path(n, background, K, delta):
    lg = _suph_chart_path(n, K, delta, background)
    rep = br.suph_barrier_check(n, K, delta, background)
    assert abs(rep.min_LG - lg.min()) <= 1e-12 * abs(lg.min())
    assert (rep.flat_certificate is None) == (background == "sphere")


def test_suph_evaluates_no_chart(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("suph_barrier_check called into the chart layer")

    for name in ("laplace_beltrami", "scalar_curvature", "chart_geometry"):
        monkeypatch.setattr(cf, name, refuse)
    monkeypatch.setattr(cf.ConformalFactor, "radial", refuse)
    for background in br.BACKGROUNDS:
        rep = br.suph_barrier_check(4, 1.0, 0.25, background)
        assert rep.min_G >= -1e-12 and np.isfinite(rep.min_LG)


def test_suph_domain_and_background_errors():
    # normal coordinates on the unit sphere end at the cut locus r = pi
    with pytest.raises(DomainError, match="cut locus"):
        br.suph_barrier_check(4, 1.0, 4.0, background="sphere")
    br.suph_barrier_check(4, 1.0, 3.0, background="sphere")  # 0.999 * 3 < pi
    br.suph_barrier_check(4, 1.0, 4.0, background="flat")
    with pytest.raises(ValueError, match="sphere, flat"):
        br.suph_barrier_check(4, 1.0, 0.25, background="sphere_polar")

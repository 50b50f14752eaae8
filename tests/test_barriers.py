import math

import numpy as np
import pytest

from schouten import barriers as br
from schouten import conformal as cf
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
    v, v1, v2, dlog = br._radial_factor(n, kind=kind, **params)
    r = np.geomspace(0.02, 0.5, 25)
    h = 1e-4 * r
    fd1 = (v(r + h) - v(r - h)) / (2.0 * h)
    fd2 = (v(r + h) - 2.0 * v(r) + v(r - h)) / h ** 2
    assert np.allclose(v1(r), fd1, rtol=1e-7, atol=0.0)
    assert np.allclose(v2(r), fd2, rtol=1e-5, atol=0.0)
    assert np.allclose(dlog(r), v1(r) / v(r), rtol=1e-13, atol=0.0)
    if kind == "super":
        assert np.array_equal(v(r), br.supersolution_eval(n, r=r, **params))


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


def test_super_sweep_precondition_violations():
    with pytest.raises(ValueError):
        # mu_plus(Gamma_2, n=4) = 1: super-solution regime needs mu_plus > 1
        br.barrier_sweep_super(br.BarrierSweepConfig(n=4, k=2, mus=(1.2,)))
    with pytest.raises(ValueError):
        br.barrier_sweep_super(br.BarrierSweepConfig(n=4, k=1, mus=(2.5,)))
    with pytest.raises(ValueError):
        br.barrier_sweep_super(br.BarrierSweepConfig(n=4, k=1))


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
    g = cf.MetricField.flat(4)
    rep = br.suph_barrier_check(g, K=1.0, delta=0.25)
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
    g = cf.MetricField.sphere_normal(4)
    rep = br.suph_barrier_check(g, K=1.0, delta=0.2)
    assert rep.flat_certificate is None
    assert rep.min_G >= -1e-12

import numpy as np
import pytest

from schouten import bubbles as bb
from schouten import conformal as cf
from schouten.cones import CurvatureFunction
from schouten.errors import DomainError


def test_peak_value():
    b = bb.Bubble(n=4, a=1.0, p=np.zeros(4))
    assert b.value(np.zeros(4)) == pytest.approx(2.0)  # c = 2^((4-2)/2)
    assert b.peak_value == pytest.approx(2.0)
    b5 = bb.Bubble(n=5, a=2.0, p=np.zeros(5))
    assert b5.value(np.zeros(5)) == pytest.approx(b5.c * 2.0 ** 1.5)


@pytest.mark.parametrize("a", [0.0, -1.0, float("nan")])
def test_bubble_refuses_a_scale_that_is_not_positive(a):
    with pytest.raises(DomainError, match="scale must be positive"):
        bb.Bubble(n=3, a=a, p=np.zeros(3))


def test_translation_covariance(rng):
    for _ in range(10):
        n = int(rng.integers(3, 6))
        a = rng.uniform(0.2, 5.0)
        p = rng.uniform(-2, 2, n)
        x = rng.uniform(-3, 3, n)
        bp = bb.Bubble(n=n, a=a, p=p)
        b0 = bb.Bubble(n=n, a=a, p=np.zeros(n))
        assert bp.value(x) == pytest.approx(b0.value(x - p), rel=1e-14)


def test_gradient_hessian_against_fd(rng):
    n = 4
    b = bb.Bubble(n=n, a=1.3, p=rng.uniform(-1, 1, n))
    pts = b.p + rng.uniform(-1.5, 1.5, (100, n))
    fd = b.factor(mode="fd", h=1e-5)
    assert np.abs(b.grad(pts) - fd.grad(pts)).max() < 1e-7
    fd2 = b.factor(mode="fd", h=1e-4)
    assert np.abs(b.hess(pts) - fd2.hess(pts)).max() < 1e-5


def test_wrong_length_points_raise():
    # a batch of length-1 rows would otherwise broadcast against the centre
    b = bb.Bubble(n=4, a=1.0, p=np.zeros(4))
    for x in (np.ones(3), np.ones((5, 1)), np.ones((5, 5))):
        for method in (b.value, b.grad, b.hess):
            with pytest.raises(ValueError, match="chart dimension is 4"):
                method(x)


def test_stereographic_factor_identities(rng):
    for n in (3, 4, 6):
        x0 = np.zeros(n)
        c = 2.0 ** ((n - 2) / 2.0)
        assert bb.stereographic_factor(n, x0) == pytest.approx(c)
        # |x| = 1 gives factor exactly 1
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert bb.stereographic_factor(n, e1) == pytest.approx(1.0, rel=1e-14)
        # (2/(1+|x|^2))^2 = U^{4/(n-2)} exactly
        for _ in range(20):
            x = rng.uniform(-3, 3, n)
            lhs = (2.0 / (1.0 + x @ x)) ** 2
            rhs = bb.stereographic_factor(n, x) ** (4.0 / (n - 2))
            assert lhs == pytest.approx(rhs, rel=1e-14)


def test_stereographic_round_trip_pullback(rng):
    # pull the round metric back through inverse stereographic projection
    # and compare with U_{1,0}^(4/(n-2)) delta_ij
    n = 4
    for _ in range(10):
        x = rng.uniform(-2, 2, n)

        def z_of_x(x):
            s = x @ x
            return np.concatenate([2 * x / (1 + s), [(s - 1) / (s + 1)]])

        h = 1e-6
        jac = np.empty((n + 1, n))
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (z_of_x(xp) - z_of_x(xm)) / (2 * h)
        pulled = jac.T @ jac
        factor = bb.stereographic_factor(n, x) ** (4.0 / (n - 2))
        assert np.abs(pulled - factor * np.eye(n)).max() < 1e-9


def test_bubble_verify_analytic_and_fd(rng):
    n = 4
    f = CurvatureFunction.sigma_root(n, 2)
    b = bb.Bubble(n=n, a=0.9, p=rng.uniform(-1, 1, n))
    pts = np.vstack([b.p, b.p + rng.uniform(-1, 1, (9, n))])
    rep = bb.bubble_verify(f, b, pts, mode="analytic")
    assert rep.passed and rep.max_lambda_dev < 1e-8 and rep.max_f_dev < 1e-8
    rep_fd = bb.bubble_verify(f, b, pts, mode="fd")
    assert rep_fd.passed and rep_fd.max_lambda_dev < 1e-6
    assert rep.max_lambda_dev < rep_fd.max_lambda_dev
    # failing tolerance produces a failing report, not an exception
    rep_bad = bb.bubble_verify(f, b, pts, mode="fd", tol=1e-16)
    assert not rep_bad.passed


def test_eigs_independent_of_scale_center_point(rng):
    for n in (3, 4, 5):
        g = cf.MetricField.flat(n)
        for _ in range(6):
            a = rng.uniform(0.1, 10.0)
            p = rng.uniform(-5, 5, n)
            b = bb.Bubble(n=n, a=a, p=p)
            x = rng.uniform(-10, 10, (4, n))
            eigs = cf.conformal_schouten_eigs(g, b.factor(), x)
            assert np.abs(eigs - 0.5).max() < 1e-6


def test_bubble_metric_proportionality(rng):
    # A_{g_U} = g_U / 2 componentwise and Ric_{g_U} = (n-1) g_U
    for n in (3, 5):
        g = cf.MetricField.flat(n)
        b = bb.Bubble(n=n, a=1.0, p=np.zeros(n))
        u = b.factor()
        pts = rng.uniform(-1.5, 1.5, (6, n))
        gu = cf.conformal_metric(g, u).components(pts)
        a = cf.schouten_conformal(g, u, pts)
        assert np.abs(a - 0.5 * gu).max() < 1e-12
        ric = cf.ricci_conformal(g, u, pts)
        assert np.abs(ric - (n - 1) * gu).max() < 1e-11
        assert cf.ricci_lower_margin(g, u, 0.0, pts) == pytest.approx(
            n - 1, rel=1e-9)


def test_rescale_bubble_at_peak_is_standard_bubble(rng):
    for n in (3, 4, 5):
        a = rng.uniform(0.3, 4.0)
        b = bb.Bubble(n=n, a=a, p=np.zeros(n))
        resc = bb.rescale_profile(b.factor(), np.zeros(n), rule="critical")
        std = bb.Bubble(n=n, a=1.0, p=np.zeros(n))
        pts = rng.uniform(-2, 2, (20, n))
        assert np.abs(resc.value(pts) - std.value(pts)).max() < 1e-12
        assert resc.value(np.zeros(n)) == pytest.approx(b.c, rel=1e-14)


def test_rescale_constant_and_subcritical(rng):
    n = 4
    const = cf.ConformalFactor.constant(n, 3.7)
    resc = bb.rescale_profile(const, np.ones(n), rule="critical")
    pts = rng.uniform(-1, 1, (5, n))
    assert np.allclose(resc.value(pts), 2.0 ** ((n - 2) / 2.0))
    b = bb.Bubble(n=n, a=1.1, p=np.zeros(n))
    p_exp = (n + 2.0) / (n - 2.0) - 0.3
    resc = bb.rescale_profile(b.factor(), np.zeros(n), rule="subcritical",
                              p_exp=p_exp)
    assert resc.value(np.zeros(n)) == pytest.approx(b.c, rel=1e-14)
    with pytest.raises(ValueError):
        bb.rescale_profile(b.factor(), np.zeros(n), rule="subcritical")


def test_rescale_domain_guard():
    n = 3
    b = bb.Bubble(n=n, a=0.05, p=np.zeros(n))  # wide bubble -> large beta
    resc = bb.rescale_profile(b.factor(), np.zeros(n), rule="critical",
                              chart_lo=-np.ones(n), chart_hi=np.ones(n))
    with pytest.raises(DomainError):
        resc.value(10.0 * np.ones(n))


def test_invalid_bubble():
    with pytest.raises(DomainError):
        bb.Bubble(n=4, a=-1.0, p=np.zeros(4))


def test_rescale_profile_takes_both_chart_bounds_or_neither(rng):
    n = 3
    b = bb.Bubble(n=n, a=0.05, p=np.zeros(n))
    for bound in ({"chart_lo": -np.ones(n)}, {"chart_hi": np.ones(n)}):
        with pytest.raises(ValueError, match="both chart bounds"):
            bb.rescale_profile(b.factor(), np.zeros(n), **bound)
    for mode in ("analytic", "fd"):
        resc = bb.rescale_profile(b.factor(mode), np.zeros(n), chart_lo=-np.ones(n),
                                  chart_hi=np.ones(n))
        assert resc.value(np.zeros(n)) == pytest.approx(b.c, rel=1e-14)
        inside = rng.uniform(-0.01, 0.01, (4, n))
        assert np.isfinite(resc.hess(inside)).all()
        for read in (resc.value, resc.grad, resc.hess):
            with pytest.raises(DomainError):
                read(10.0 * np.ones(n))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_bubble_jet_equals_the_per_part_formulas_bitwise(n, rng):
    # the value, gradient and Hessian formulas, each on its own w, are the
    # oracle of the one jet
    b = bb.Bubble(n=n, a=1.7, p=rng.uniform(-0.5, 0.5, n))
    pts = rng.uniform(-1.5, 1.5, (9, n))
    pts[0, 0] = -0.0
    a, c, m = b.a, b.c, (n - 2) / 2.0
    w = 1.0 + a ** 2 * ((pts - b.p) ** 2).sum(axis=1)
    d = pts - b.p
    want = (c * (a / w) ** m,
            (-2.0 * m * a ** 2 * c * a ** m * w ** (-m - 1.0))[:, None] * d,
            (-2.0 * m * a ** 2 * c * a ** m * w ** (-m - 2.0))[:, None, None]
            * (w[:, None, None] * np.eye(n) - 2.0 * (m + 1.0) * a ** 2
               * d[:, :, None] * d[:, None, :]))
    u = b.factor("analytic")
    for have in (b.jet(pts), u.jet_fn(pts), (b.value(pts), b.grad(pts), b.hess(pts))):
        for part, expect in zip(have, want):
            assert part.tobytes() == expect.tobytes()
    for part, expect in zip(b.jet(pts[3]), want):
        assert part.shape == expect.shape[1:] and np.array_equal(part, expect[3])

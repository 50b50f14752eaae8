import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import sqrtm

from schouten import conformal as cf
from schouten.errors import DomainError


def exp_linear_factor(n, c):
    """u(x) = exp(c x_1) with closed-form derivatives."""
    def val(x):
        return np.exp(c * x[:, 0])

    def grad(x):
        g = np.zeros_like(x)
        g[:, 0] = c * np.exp(c * x[:, 0])
        return g

    def hess(x):
        h = np.zeros((x.shape[0], n, n))
        h[:, 0, 0] = c ** 2 * np.exp(c * x[:, 0])
        return h

    return cf.ConformalFactor.from_callable(n, val, grad=grad, hess=hess)


def test_flat_schouten_vanishes():
    g = cf.MetricField.flat(5)
    pts = np.array([[0.1, -0.4, 2.0, 0.0, 1.0], [0.0] * 5])
    assert np.abs(cf.schouten_background(g, pts)).max() == 0.0


@pytest.mark.parametrize("chart", ["normal", "polar"])
def test_round_sphere_schouten_is_half_metric(chart, rng):
    n = 4
    if chart == "normal":
        g = cf.MetricField.sphere_normal(n)
        pts = rng.uniform(-0.8, 0.8, (6, n))
    else:
        g = cf.MetricField.sphere_polar(n)
        pts = rng.uniform(0.6, 2.4, (6, n))
    a = cf.schouten_background(g, pts)
    gm = g.components(pts)
    assert np.abs(a - gm / 2).max() < 1e-12


def test_scalar_curvature_and_trace_identity(rng):
    for n in (3, 5):
        g = cf.MetricField.sphere_normal(n)
        x = rng.uniform(-0.5, 0.5, n)
        scal = cf.scalar_curvature(g, x)
        assert scal == pytest.approx(n * (n - 1), rel=1e-10)
        a = cf.schouten_background(g, x)
        ginv = np.linalg.inv(g.components(x))
        tr = float(np.einsum("ij,ij->", ginv, a))
        assert tr == pytest.approx(scal / (2 * (n - 1)), rel=1e-8)


def test_fd_matches_analytic_and_second_order(rng):
    g = cf.MetricField.sphere_normal(4)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    a_exact = cf.schouten_background(g, x)
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        a_fd = cf.schouten_background(g.with_fd(h=h), x)
        errs.append(np.abs(a_fd - a_exact).max())
    # halving h shrinks the error by roughly four
    assert 2.5 < errs[0] / errs[1] < 6.0
    assert 2.5 < errs[1] / errs[2] < 6.0


def test_fd_agreement_on_product_metric(rng):
    # warped-product (polar) chart: finite differences track the closed-form
    # derivatives of the diagonal metric
    g = cf.MetricField.sphere_polar(4)
    x = rng.uniform(0.7, 2.3, (3, 4))
    a_exact = cf.schouten_background(g, x)
    a_fd = cf.schouten_background(g.with_fd(h=1e-4), x)
    assert np.abs(a_fd - a_exact).max() < 1e-6


def test_richardson_refinement_beats_plain_fd():
    g = cf.MetricField.sphere_normal(4)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    a_exact = cf.schouten_background(g, x)
    plain = np.abs(cf.schouten_background(g.with_fd(h=1e-3), x) - a_exact).max()
    rich = np.abs(cf.schouten_background(
        g.with_fd(h=1e-3, richardson=True), x) - a_exact).max()
    assert rich < plain / 50


def test_eigen_rel_trivial_and_constructed(rng):
    assert np.allclose(cf.eigen_rel(np.diag([3.0, 1.0, 2.0]), np.eye(3)),
                       [1.0, 2.0, 3.0])
    g = np.diag([2.0, 1.0, 4.0])
    assert np.allclose(cf.eigen_rel(0.7 * g, g), 0.7)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        m = rng.standard_normal((n, n))
        g = m @ m.T + n * np.eye(n)
        d = np.sort(rng.standard_normal(n))
        root = np.real(sqrtm(g))
        a = root @ np.diag(d) @ root
        assert np.allclose(cf.eigen_rel(a, g), d, atol=1e-10)


def test_eigen_rel_rejects_indefinite_metric():
    with pytest.raises(DomainError):
        cf.eigen_rel(np.eye(3), np.diag([1.0, -1.0, 1.0]))


def test_conformal_identity_factor(rng):
    g = cf.MetricField.sphere_normal(4)
    u = cf.ConformalFactor.constant(4, 1.0)
    x = rng.uniform(-0.5, 0.5, 4)
    assert np.allclose(cf.schouten_conformal(g, u, x),
                       cf.schouten_background(g, x), atol=1e-13)
    assert np.allclose(cf.ricci_conformal(g, u, x),
                       cf.ricci_background(g, x), atol=1e-11)


def test_inversion_factor_flattens(rng):
    n = 4
    g = cf.MetricField.flat(n)
    u = cf.ConformalFactor.radial(
        n, lambda r: r ** (2 - n), lambda r: (2 - n) * r ** (1 - n),
        lambda r: (2 - n) * (1 - n) * r ** (-n))
    pts = rng.uniform(0.3, 1.5, (5, n))
    assert np.abs(cf.schouten_conformal(g, u, pts)).max() < 1e-12


def test_nonpositive_factor_rejected():
    g = cf.MetricField.flat(3)
    u = cf.ConformalFactor.from_callable(3, lambda x: x[:, 0])
    with pytest.raises(DomainError):
        cf.schouten_conformal(g, u, np.array([-1.0, 0.0, 0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_factor_is_domain_error():
    # NaN passes the u <= 0 guard; A_{g_u} must not reach eigvalsh unchecked
    n = 4
    radial = cf.ConformalFactor.radial(n, lambda r: 1.0 + r ** 2, lambda r: 2.0 * r,
                                       lambda r: 2.0 + 0.0 * r)
    pts = np.array([[0.3, -0.2, 0.1, 0.5], [0.0, 0.0, 0.0, 0.0]])
    nan_pt = np.array([[0.3, -0.2, 0.1, 0.5], [np.nan, 0.1, 0.0, 0.2]])
    cases = [(cf.MetricField.flat(n), radial, pts),  # the origin: grad is 0/0
             (cf.MetricField.flat(n), _exp_factor([0.3, -0.2, 0.1, 0.4]), nan_pt),
             (cf.MetricField.flat(n), _exp_factor([0.3, -0.2, 0.1, 0.4]).with_fd(), nan_pt),
             (cf.MetricField.sphere_normal(n), cf.ConformalFactor.constant(n, 1.0), nan_pt)]
    for g, u, x in cases:
        for op in (lambda: cf.conformal_schouten_eigs(g, u, x),
                   lambda: cf.schouten_conformal(g, u, x),
                   lambda: cf.ricci_conformal(g, u, x),
                   lambda: cf.ricci_lower_margin(g, u, 0.5, x)):
            with pytest.raises(DomainError, match=r"is not finite at the queried point \[") as err:
                op()
            assert str(x[1].tolist()) in str(err.value), g.name
    # the finite rows alone still pass
    for g, u, x in cases:
        assert np.isfinite(cf.conformal_schouten_eigs(g, u, x[0])).all()


def test_eigenvalue_scaling_law(rng):
    # replacing u by c*u multiplies the relative eigenvalues by c^(-4/(n-2))
    n = 5
    g = cf.MetricField.flat(n)
    u = exp_linear_factor(n, 0.4)
    x = rng.uniform(-0.5, 0.5, (4, n))
    base = cf.conformal_schouten_eigs(g, u, x)
    for c in (0.5, 3.0):
        cu = cf.ConformalFactor.from_callable(
            n, lambda y: c * u.value_fn(y), grad=lambda y: c * u.grad_fn(y),
            hess=lambda y: c * u.hess_fn(y))
        scaled = cf.conformal_schouten_eigs(g, cu, x)
        assert np.allclose(scaled, c ** (-4.0 / (n - 2)) * base, rtol=1e-10)


def test_composition_law(rng):
    # factor u*v over g equals factor v over g_u
    n = 4
    g = cf.MetricField.flat(n)
    for _ in range(5):
        a = rng.uniform(-0.4, 0.4, n)
        b = rng.uniform(-0.4, 0.4, n)

        def uval(x, a=a):
            return np.exp(x @ a)

        def ugrad(x, a=a):
            return np.exp(x @ a)[:, None] * a

        def uhess(x, a=a):
            return np.exp(x @ a)[:, None, None] * np.outer(a, a)

        u = cf.ConformalFactor.from_callable(n, uval, grad=ugrad, hess=uhess)
        v = cf.ConformalFactor.from_callable(
            n, lambda x: np.exp(x @ b),
            grad=lambda x: np.exp(x @ b)[:, None] * b,
            hess=lambda x: np.exp(x @ b)[:, None, None] * np.outer(b, b))
        w = cf.ConformalFactor.from_callable(
            n, lambda x: uval(x) * np.exp(x @ b),
            grad=lambda x: (uval(x) * np.exp(x @ b))[:, None] * (a + b),
            hess=lambda x: (uval(x) * np.exp(x @ b))[:, None, None]
            * np.outer(a + b, a + b))
        gu = cf.conformal_metric(g, u)
        x = rng.uniform(-0.5, 0.5, (3, n))
        lhs = cf.schouten_conformal(g, w, x)
        rhs = cf.schouten_conformal(gu, v, x)
        assert np.abs(lhs - rhs).max() < 1e-6


def test_ricci_conformal_against_fd_curvature_oracle(rng):
    # Ricci reconstructed from the Schouten tensor must match the direct
    # curvature of the scaled metric computed by finite differences
    n = 4
    g = cf.MetricField.flat(n)
    u = exp_linear_factor(n, 0.3)
    x = np.array([0.2, -0.1, 0.4, 0.0])
    ric = cf.ricci_conformal(g, u, x)
    gu_fd = cf.conformal_metric(g.with_fd(), u.with_fd(h=1e-4))
    ric_fd = cf.ricci_background(gu_fd, x)
    assert np.abs(ric - ric_fd).max() < 1e-5


def test_ricci_lower_margin_cases(rng):
    n = 4
    gs = cf.MetricField.sphere_normal(n)
    one = cf.ConformalFactor.constant(n, 1.0)
    pts = rng.uniform(-0.5, 0.5, (6, n))
    m = cf.ricci_lower_margin(gs, one, 0.0, pts)
    assert m == pytest.approx(n - 1, rel=1e-9)
    # negative-curvature-like factor dips below the alpha = 0 bound
    g = cf.MetricField.flat(n)
    u = exp_linear_factor(n, 0.8)
    m = cf.ricci_lower_margin(g, u, 0.0, pts)
    assert m < 0
    # and is restored by a sufficiently large alpha
    m2 = cf.ricci_lower_margin(g, u, 2.0, pts)
    assert m2 > 0


def test_domain_guard():
    g = cf.MetricField.sphere_normal(3, chart_radius=1.0)
    with pytest.raises(DomainError):
        g.components(np.array([2.0, 0.0, 0.0]))


# -- shared chart geometry against the per-call assembly ----------------------

def _exp_factor(a):
    a = np.asarray(a)
    return cf.ConformalFactor.from_callable(
        len(a), lambda x: np.exp(x @ a),
        grad=lambda x: np.exp(x @ a)[:, None] * a,
        hess=lambda x: np.exp(x @ a)[:, None, None] * np.outer(a, a))


@pytest.mark.parametrize("chart", ["normal", "polar", "flat", "normal-fd"])
def test_shared_geometry_matches_per_call_assembly(chart, rng):
    n = 4
    if chart == "polar":
        g = cf.MetricField.sphere_polar(n)
        pts = rng.uniform(0.6, 2.4, (7, n))
    else:
        g = {"normal": cf.MetricField.sphere_normal(n),
             "flat": cf.MetricField.flat(n),
             "normal-fd": cf.MetricField.sphere_normal(n).with_fd()}[chart]
        pts = rng.uniform(-0.8, 0.8, (7, n))
    geom = cf.chart_geometry(g, pts)
    assert np.array_equal(geom.a_bg, cf.schouten_background(g, pts))
    assert np.array_equal(geom.gamma, cf.christoffel(g, pts))
    for a in ([0.3, -0.2, 0.1, 0.4], [-0.5, 0.0, 0.2, 0.1]):
        u = _exp_factor(a)
        eigs = cf.conformal_schouten_eigs(g, u, pts, geometry=geom)
        assert np.array_equal(cf.conformal_schouten_eigs(g, u, pts), eigs)
        assert np.array_equal(cf.covariant_hessian(g, u, pts),
                              cf._covariant_hessian(geom, u.grad(pts), u.hess(pts)))
        assert np.array_equal(cf.schouten_conformal(g, u, pts),
                              cf._schouten_conformal_batch(geom, u)[0])
        assert np.array_equal(cf.ricci_conformal(g, u, pts),
                              cf._ricci_conformal_batch(geom, u)[0])
        # single points go through the same batch path
        assert np.array_equal(cf.conformal_schouten_eigs(g, u, pts[2]), eigs[2])


def test_laplace_beltrami_is_trace_of_covariant_hessian(rng):
    g = cf.MetricField.sphere_normal(4)
    u = _exp_factor([0.3, -0.2, 0.1, 0.4])
    pts = rng.uniform(-0.8, 0.8, (5, 4))
    ginv = cf.chart_geometry(g, pts).ginv
    expect = np.trace(ginv @ cf.covariant_hessian(g, u, pts), axis1=1, axis2=2)
    assert np.array_equal(cf.laplace_beltrami(g, u, pts), expect)


# -- stacked products against the per-element einsum assembly -----------------

def _einsum_assembly(g, u, x):
    """Gamma, A_g, lambda(A_{g_u}), Ric_{g_u} and Delta_g u by per-element
    einsum contractions, with g^-1 = inv(g), g_u^-1 = inv(g_u) and the
    spectrum from ``eigen_rel``: the assembly the stacked products replace,
    kept as the oracle.  Also the sum of |g^ij Hess_ij u|, the scale of the
    cancellation in Delta_g u."""
    n = g.n
    gmat, d1, d2 = g.components(x), g.d1(x), g.d2(x)
    ginv = np.linalg.inv(gmat)
    sym = d1 + d1.transpose(0, 2, 1, 3) - d1.transpose(0, 2, 3, 1)
    gamma = 0.5 * np.einsum("bml,bijl->bmij", ginv, sym)
    cross = np.einsum("bml,bmkjl->bjk", ginv, d2)
    second = (cross + cross.transpose(0, 2, 1)
              - np.einsum("bml,bmljk->bjk", ginv, d2)
              - np.einsum("bml,bjkml->bjk", ginv, d2))
    dginv = -np.einsum("bmp,bapq,bql->baml", ginv, d1, ginv)
    first = (np.einsum("bmml,bjkl->bjk", dginv, sym)
             - np.einsum("bjml,bmkl->bjk", dginv, sym))
    ric = (0.5 * (second + first) + np.einsum("bmmp,bpjk->bjk", gamma, gamma)
           - np.einsum("bmjp,bpmk->bjk", gamma, gamma))
    scal = np.einsum("bjk,bjk->b", ginv, ric)
    a_bg = (ric - scal[:, None, None] * gmat / (2.0 * (n - 1.0))) / (n - 2.0)
    uval, du = u.value(x), u.grad(x)
    hess = u.hess(x) - np.einsum("bmij,bm->bij", gamma, du)
    grad_sq = np.einsum("bij,bi,bj->b", ginv, du, du)
    c1 = 2.0 / (n - 2.0)
    c2 = 2.0 * n / (n - 2.0) ** 2
    c3 = 2.0 / (n - 2.0) ** 2
    a_u = (-c1 * hess / uval[:, None, None]
           + c2 * du[:, :, None] * du[:, None, :] / uval[:, None, None] ** 2
           - c3 * grad_sq[:, None, None] * gmat / uval[:, None, None] ** 2
           + a_bg)
    gu = uval[:, None, None] ** (4.0 / (n - 2.0)) * gmat
    tr = np.einsum("bij,bij->b", np.linalg.inv(gu), a_u)
    ric_u = (n - 2.0) * a_u + tr[:, None, None] * gu
    lap = np.einsum("bij,bij->b", ginv, hess)
    lap_terms = np.einsum("bij,bij->b", np.abs(ginv), np.abs(hess))
    return gamma, a_bg, cf.eigen_rel(a_u, gu), ric_u, (lap, lap_terms)


def _row_close(got, expect, rel=1e-13):
    """|got - expect| <= rel * max|expect| row by row (per point)."""
    B = len(expect)
    err = np.abs(got - expect).reshape(B, -1).max(axis=1)
    return bool(np.all(err <= rel * np.abs(expect).reshape(B, -1).max(axis=1)))


@pytest.mark.parametrize("n", range(3, 9))
def test_stacked_assembly_matches_einsum_oracle(n, rng):
    inner = rng.uniform(-0.8, 0.8, (6, n)) / np.sqrt(n)
    normal = cf.MetricField.sphere_normal(n)
    charts = [(cf.MetricField.flat(n), inner), (normal, inner), (normal.with_fd(), inner),
              (cf.MetricField.sphere_polar(n), rng.uniform(0.6, 2.4, (6, n)))]
    exp_u = _exp_factor(rng.uniform(-0.4, 0.4, n))
    for g, pts in charts:
        geom = cf.chart_geometry(g, pts)
        for u in (exp_u, exp_u.with_fd()):
            gamma, a_bg, eigs, ric_u, (lap, lap_terms) = _einsum_assembly(g, u, pts)
            assert _row_close(geom.gamma, gamma), (g.name, g.mode)
            assert _row_close(geom.a_bg, a_bg), (g.name, g.mode)
            assert _row_close(cf.conformal_schouten_eigs(g, u, pts, geometry=geom), eigs), \
                (g.name, g.mode, u.mode)
            assert _row_close(cf.ricci_conformal(g, u, pts), ric_u), (g.name, g.mode, u.mode)
            assert np.all(np.abs(cf.laplace_beltrami(g, u, pts) - lap) <= 1e-13 * lap_terms), \
                (g.name, g.mode, u.mode)


def test_reused_geometry_factorises_nothing(monkeypatch, rng):
    g = cf.MetricField.sphere_normal(4)
    pts = rng.uniform(-0.8, 0.8, (6, 4))
    u = _exp_factor([0.3, -0.2, 0.1, 0.4])
    geom = cf.chart_geometry(g, pts)
    expect = cf.conformal_schouten_eigs(g, u, pts, geometry=geom)
    calls = []
    for name in ("cholesky", "inv"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert np.array_equal(cf.conformal_schouten_eigs(g, u, pts, geometry=geom), expect)
    assert calls == []
    # a fresh chart batch factorises its metric once, for every factor after
    assert np.array_equal(cf.conformal_schouten_eigs(g, u, pts), expect)
    assert calls == ["cholesky", "inv"]


def test_indefinite_metric_is_domain_error():
    def lorentzian(x):
        return np.broadcast_to(np.diag([1.0, -1.0, 1.0]), (x.shape[0], 3, 3)).copy()

    g = cf.MetricField(n=3, value_fn=lorentzian)
    with pytest.raises(DomainError, match="not positive definite"):
        cf.chart_geometry(g, np.array([[0.1, 0.2, 0.3]]))


def test_shared_geometry_keeps_domain_checks():
    one = cf.ConformalFactor.constant(3, 1.0)
    outside = np.array([[2.0, 0.0, 0.0]])
    # the Euclidean chart evaluates its components, and so checks its box too
    boxed_flat = replace(cf.MetricField.flat(3), domain_lo=-np.ones(3), domain_hi=np.ones(3))
    for g in (cf.MetricField.sphere_normal(3, chart_radius=1.0), boxed_flat):
        with pytest.raises(DomainError, match="outside chart domain"):
            cf.chart_geometry(g, outside)
        with pytest.raises(DomainError, match="outside chart domain"):
            cf.conformal_schouten_eigs(g, one, outside)

    def degenerate(x):
        out = np.broadcast_to(np.eye(3), (x.shape[0], 3, 3)).copy()
        out[:, 0, 0] = x[:, 0] ** 2
        return out

    singular = cf.MetricField(n=3, value_fn=degenerate)
    at_zero = np.array([[0.0, 0.1, 0.2]])
    for call in (lambda: cf.chart_geometry(singular, at_zero),
                 lambda: cf.conformal_schouten_eigs(singular, one, at_zero),
                 lambda: cf.ricci_conformal(singular, one, at_zero)):
        with pytest.raises(DomainError, match="singular"):
            call()

    flat = cf.MetricField.flat(3)
    pts = np.array([[-1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    geom = cf.chart_geometry(flat, pts)
    u = cf.ConformalFactor.from_callable(3, lambda x: x[:, 0])
    with pytest.raises(DomainError, match="nonpositive"):
        cf.conformal_schouten_eigs(flat, u, pts, geometry=geom)
    with pytest.raises(DomainError, match="nonpositive"):
        cf.ricci_lower_margin(flat, u, 0.0, pts)
    with pytest.raises(ValueError, match="different point batch"):
        cf.conformal_schouten_eigs(flat, one, pts[::-1], geometry=geom)


# -- trace-only Ricci assembly against the full d Gamma assembly --------------

def _ricci_full_dgamma(g, geom):
    """Ric_jk from the full (B, n, n, n, n) tensor d_a Gamma^m_ij, built from
    d_a g^{ml} and d_a sym_ijl; the brute-force assembly kept as the oracle."""
    ginv, d1, gamma, sym = geom.ginv, geom.d1, geom.gamma, geom.sym
    d2 = g.d2(geom.points)
    dginv = -np.einsum("bmp,bapq,bql->baml", ginv, d1, ginv)
    dsym = d2 + d2.transpose(0, 1, 3, 2, 4) - d2.transpose(0, 1, 3, 4, 2)
    dgamma = 0.5 * (np.einsum("baml,bijl->bamij", dginv, sym)
                    + np.einsum("bml,baijl->bamij", ginv, dsym))
    term1 = np.einsum("bmmjk->bjk", dgamma)
    term2 = np.einsum("bjmmk->bjk", dgamma)
    trace_gamma = np.einsum("bmmp->bp", gamma)
    term3 = np.einsum("bp,bpjk->bjk", trace_gamma, gamma)
    term4 = np.einsum("bmjp,bpmk->bjk", gamma, gamma)
    return term1 - term2 + term3 - term4


def _oracle_charts(n, rng):
    normal = cf.MetricField.sphere_normal(n)
    polar = cf.MetricField.sphere_polar(n)
    flat = cf.MetricField.flat(n)
    inner = rng.uniform(-0.8, 0.8, (6, n)) / np.sqrt(n)
    angles = rng.uniform(0.6, 2.4, (6, n))
    scaled = cf.conformal_metric(normal, _exp_factor(rng.uniform(-0.4, 0.4, n)))
    assert scaled.mode == "analytic"
    # the builtin charts read Ricci in closed form; without their sectional
    # curvature they go through the trace assembly of their analytic d2
    return [(normal, inner), (polar, angles), (flat, inner),
            (replace(normal, sectional_curvature=None), inner),
            (replace(polar, sectional_curvature=None), angles),
            (replace(flat, sectional_curvature=None), inner),
            (normal.with_fd(), inner), (polar.with_fd(), angles),
            (flat.with_fd(), inner), (scaled, inner)]


@pytest.mark.parametrize("n", range(3, 9))
def test_ricci_trace_assembly_matches_full_dgamma_oracle(n, rng):
    for g, pts in _oracle_charts(n, rng):
        geom = cf._geometry(g, pts)
        expect = _ricci_full_dgamma(g, geom)
        got = cf._ricci_batch(g, geom)
        scale = np.abs(expect).max()
        assert np.abs(got - expect).max() <= 1e-13 * scale, (g.name, g.mode)
        assert np.array_equal(cf.ricci_background(g, pts), got)


# -- closed-form space-form Ricci against the trace assembly -----------------

def _space_forms(n, rng):
    inner = rng.uniform(-0.8, 0.8, (6, n)) / np.sqrt(n)
    return [(cf.MetricField.flat(n), inner), (cf.MetricField.sphere_normal(n), inner),
            (cf.MetricField.sphere_polar(n), rng.uniform(0.6, 2.4, (6, n)))]


@pytest.mark.parametrize("n", range(3, 9))
def test_space_form_ricci_matches_assembly(n, rng):
    for g, pts in _space_forms(n, rng):
        K = g.sectional_curvature
        assert K == (0.0 if g.name == "flat" else 1.0)
        ric = cf.ricci_background(g, pts)
        assembled = cf.ricci_background(replace(g, sectional_curvature=None), pts)
        assert np.abs(ric - assembled).max() <= 1e-13 * np.abs(ric).max(), g.name
        gmat = g.components(pts)
        assert np.array_equal(ric, (n - 1.0) * K * gmat)
        a = cf.schouten_background(g, pts)
        assert np.abs(a - K * gmat / 2.0).max() <= 1e-13 * max(K, 1.0) * np.abs(gmat).max()
        assert np.allclose(cf.scalar_curvature(g, pts), n * (n - 1.0) * K, rtol=1e-13,
                           atol=0.0)


def _count_d2(g):
    calls = []

    def d2(x):
        calls.append(x.shape)
        return g.d2_fn(x)

    return d2, calls


@pytest.mark.parametrize("n", [3, 5])
def test_chart_geometry_skips_d2_on_space_forms(n, rng):
    for g, pts in _space_forms(n, rng):
        d2, calls = _count_d2(g)
        counted = replace(g, d2_fn=d2)
        geom = cf.chart_geometry(counted, pts)
        cf.chart_geometry(counted, pts[:3])
        assert calls == [], g.name
        assert np.array_equal(geom.a_bg, cf.schouten_background(g, pts))
        # without the curvature the trace assembly reads d2 once per batch
        cf.chart_geometry(replace(counted, sectional_curvature=None), pts)
        cf.chart_geometry(replace(counted, sectional_curvature=None), pts[:3])
        assert calls == [pts.shape, (3, n)], g.name


def test_derived_metrics_carry_no_sectional_curvature():
    normal = cf.MetricField.sphere_normal(4)
    u = _exp_factor([0.3, -0.2, 0.1, 0.4])
    assert cf.conformal_metric(normal, u).sectional_curvature is None
    assert cf.conformal_metric(normal, u.with_fd()).sectional_curvature is None
    assert cf.MetricField(n=3, value_fn=lambda x: None).sectional_curvature is None
    # the FD form exercises the finite-difference Ricci it exists for
    assert normal.with_fd().sectional_curvature is None
    assert cf.MetricField.flat(3).with_fd(richardson=True).sectional_curvature is None
    # only flat declares a Euclidean chart, and no derived metric keeps it
    flat = cf.MetricField.flat(4)
    assert flat.euclidean
    assert not normal.euclidean and not cf.MetricField.sphere_polar(4).euclidean
    assert not cf.MetricField(n=3, value_fn=lambda x: None).euclidean
    assert not flat.with_fd().euclidean
    assert not flat.with_fd(richardson=True).euclidean
    assert not cf.conformal_metric(flat, u).euclidean
    assert not cf.conformal_metric(flat, u.with_fd()).euclidean


# -- closed-form Euclidean chart against the generic first-order pass --------

@pytest.mark.parametrize("n", range(2, 9))
def test_euclidean_geometry_matches_generic_path(n, monkeypatch, rng):
    pts = rng.uniform(-2.0, 2.0, (10, n))
    for K in (0.0, None):
        flat = replace(cf.MetricField.flat(n), sectional_curvature=K)
        generic = replace(flat, euclidean=False)
        builds = [cf._geometry] + ([cf.chart_geometry] if n >= 3 else [])
        for build in builds:
            expect = build(generic, pts)
            d1, d1_calls = _counting(flat.d1_fn)
            with monkeypatch.context() as m:
                cholesky, factorised = _counting(np.linalg.cholesky)
                inv, inverted = _counting(np.linalg.inv)
                m.setattr(np.linalg, "cholesky", cholesky)
                m.setattr(np.linalg, "inv", inv)
                got = build(replace(flat, d1_fn=d1), pts)
            assert d1_calls == factorised == inverted == [], (n, K, build.__name__)
            # the flag that takes the downstream arithmetic off the generic path
            assert got.euclidean and not expect.euclidean
            for field, want in vars(expect).items():
                have = getattr(got, field)
                if field == "euclidean":
                    continue
                if want is None:
                    assert have is None
                    continue
                assert np.array_equal(have, want), (n, K, build.__name__, field)
            # the closed-form arrays are shared, so nothing may write into them
            for field in ("linv", "ginv", "d1", "sym", "gamma"):
                assert not getattr(got, field).flags.writeable, field
        # the generic path still reads the derivatives
        d1, d1_calls = _counting(flat.d1_fn)
        cf._geometry(replace(generic, d1_fn=d1), pts)
        assert d1_calls == [pts.shape]


@pytest.mark.parametrize("n", [3, 4, 6, 8])
@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_bubble_verify_is_bit_identical_on_the_generic_path(n, mode, monkeypatch, rng):
    from schouten import bubbles as bb
    from schouten.cones import CurvatureFunction

    f = CurvatureFunction.sigma_root(n, 2)
    bubble = bb.Bubble(n=n, a=1.7, p=rng.uniform(-0.5, 0.5, n))
    pts = rng.uniform(-1.5, 1.5, (10, n))
    # every conformal operation on the Euclidean chart against the generic path
    u = bubble.factor(mode)
    euclid = cf.MetricField.flat(n)
    generic = replace(euclid, euclidean=False)
    ops = [lambda g: cf.conformal_schouten_eigs(g, u, pts),
           lambda g: cf.schouten_conformal(g, u, pts),
           lambda g: cf.ricci_conformal(g, u, pts),
           lambda g: cf.ricci_lower_margin(g, u, 0.0, pts),
           lambda g: cf.ricci_lower_margin(g, u, 0.8, pts),
           lambda g: cf.covariant_hessian(g, u, pts),
           lambda g: cf.laplace_beltrami(g, u, pts)]
    for i, op in enumerate(ops):
        assert np.asarray(op(euclid)).tobytes() == np.asarray(op(generic)).tobytes(), i
    # downstream of the geometry, a Euclidean chart reads no L^-1, g^-1 or Gamma
    geom = cf.chart_geometry(euclid, pts)
    assert geom.euclidean and not cf.chart_geometry(generic, pts).euclidean
    nan = np.full((len(pts), n, n), np.nan)
    blind = replace(geom, linv=nan, ginv=nan, gamma=np.full((len(pts), n, n, n), np.nan))
    assert cf.conformal_schouten_eigs(euclid, u, pts, geometry=blind).tobytes() \
        == cf.conformal_schouten_eigs(generic, u, pts).tobytes()
    assert cf._ricci_conformal_batch(blind, u)[0].tobytes() \
        == cf.ricci_conformal(generic, u, pts).tobytes()
    # eigvalsh reads the sign of a zero, which the generic reduction drops
    a = rng.standard_normal((len(pts), n, n))
    a = a + np.swapaxes(a, 1, 2)
    a[:, 1, 0] = a[:, 0, 1] = -0.0
    phi = rng.uniform(0.5, 2.0, len(pts))
    assert cf._eigs_rel_scaled(blind, a, phi).tobytes() \
        == cf._eigs_rel_scaled(cf.chart_geometry(generic, pts), a, phi).tobytes()
    fast = bb.bubble_verify(f, bubble, pts, mode=mode)
    flat = cf.MetricField.flat
    monkeypatch.setattr(cf.MetricField, "flat",
                        classmethod(lambda cls, k: replace(flat(k), euclidean=False)))
    assert not cf.MetricField.flat(n).euclidean
    slow = bb.bubble_verify(f, bubble, pts, mode=mode)
    for field in ("max_lambda_dev", "max_f_dev", "passed"):
        assert np.float64(getattr(fast, field)).tobytes() \
            == np.float64(getattr(slow, field)).tobytes(), field


# -- one-call finite-difference Hessian against the per-stencil loop ----------

def _fd_d2_per_stencil(fn, x, h):
    """Second derivatives from one call of ``fn`` per stencil point set."""
    B, n = x.shape
    f0 = fn(x)
    out = np.zeros((B, n, n) + f0.shape[1:])
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[:, k] += h
        xm[:, k] -= h
        out[:, k, k] = (fn(xp) - 2.0 * f0 + fn(xm)) / h ** 2
    for k in range(n):
        for l in range(k + 1, n):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[:, k] += h
            xpp[:, l] += h
            xpm[:, k] += h
            xpm[:, l] -= h
            xmp[:, k] -= h
            xmp[:, l] += h
            xmm[:, k] -= h
            xmm[:, l] -= h
            mixed = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * h ** 2)
            out[:, k, l] = mixed
            out[:, l, k] = mixed
    return out


def _counting(fn):
    calls = []

    def wrapped(x):
        calls.append(x.shape)
        return fn(x)

    return wrapped, calls


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_fd_hessian_is_one_call_and_equals_per_stencil_loop(n, rng):
    from schouten.bubbles import Bubble

    # a scalar field (a bubble) and (B, n, n) fields (metric components)
    near = rng.uniform(-1.0, 1.0, (7, n))
    fields = [("scalar", Bubble(n=n, a=1.3, p=np.zeros(n)).value, near),
              ("metric", cf.MetricField.sphere_normal(n).value_fn, near),
              ("metric", cf.MetricField.sphere_polar(n).value_fn,
               rng.uniform(0.6, 2.4, (7, n)))]
    for kind, fn, pts in fields:
        for h in (1e-4, 1e-3):
            counted, calls = _counting(fn)
            got = cf._fd_d2(counted, pts, h)
            assert calls == [((1 + 2 * n * n) * len(pts), n)]
            assert np.array_equal(got, _fd_d2_per_stencil(fn, pts, h))
        # Richardson: one call per step size
        counted, calls = _counting(fn)
        if kind == "scalar":
            refined = cf.ConformalFactor(n=n, value_fn=counted, h=1e-3,
                                         richardson=True).hess(pts)
        else:
            refined = cf.MetricField(n=n, value_fn=counted, h=1e-3,
                                     richardson=True).d2(pts)
        assert len(calls) == 2
        expect = (4.0 * _fd_d2_per_stencil(fn, pts, 5e-4)
                  - _fd_d2_per_stencil(fn, pts, 1e-3)) / 3.0
        assert np.array_equal(refined, expect)


# -- a conformal factor read as one jet per point batch ------------------------

def _jet_factors(n, rng):
    """Analytic, FD, Richardson and single-callable forms of two fields: a
    bubble, and one whose value reads the sign of a zero coordinate."""
    from schouten.bubbles import Bubble

    b = Bubble(n=n, a=1.3, p=rng.uniform(-0.5, 0.5, n))

    def signed(x):
        return 2.0 + np.copysign(0.25, x[:, 0]) + 0.1 * np.sin(x).sum(axis=1)

    return {"analytic": b.factor("analytic"), "fd": b.factor("fd"),
            "richardson": cf.ConformalFactor(n=n, value_fn=b.value, h=1e-3, richardson=True),
            "grad-only": cf.ConformalFactor.from_callable(n, b.value, grad=b.grad),
            "hess-only": cf.ConformalFactor.from_callable(n, b.value, hess=b.hess),
            "signed-fd": cf.ConformalFactor(n=n, value_fn=signed),
            "signed-richardson": cf.ConformalFactor(n=n, value_fn=signed, richardson=True)}


@pytest.mark.parametrize("n", range(2, 9))
def test_factor_jet_equals_value_grad_hess_bitwise(n, rng):
    pts = rng.uniform(-1.0, 1.0, (6, n))
    pts[1, 0] = -0.0
    pts[2] = -0.0
    pts[3, -1] = 0.0
    for name, u in _jet_factors(n, rng).items():
        expect = (u.value(pts), u.grad(pts), u.hess(pts))
        for part, have, want in zip(("value", "grad", "hess"), cf._factor_jet(u, pts), expect):
            assert have.shape == want.shape, (name, part)
            assert have.tobytes() == want.tobytes(), (name, part)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_fd_factor_is_one_stencil_call_per_batch(n, rng):
    from schouten.bubbles import Bubble

    b = Bubble(n=n, a=1.3, p=rng.uniform(-0.5, 0.5, n))
    pts = rng.uniform(-1.0, 1.0, (10, n))
    stencil = ((1 + 2 * n * n) * len(pts), n)
    for g in (cf.MetricField.flat(n), cf.MetricField.sphere_normal(n)):
        geom = cf.chart_geometry(g, pts)
        for richardson, expect in ((False, [stencil]), (True, [stencil, stencil])):
            value_fn, calls = _counting(b.value)
            u = cf.ConformalFactor(n=n, value_fn=value_fn, richardson=richardson)
            cf.conformal_schouten_eigs(g, u, pts, geometry=geom)
            assert calls == expect, (g.name, richardson)


# -- argument checks ----------------------------------------------------------

def test_schouten_tensor_needs_n_at_least_3():
    g = cf.MetricField.flat(2)
    x = np.array([0.1, -0.2])
    one = cf.ConformalFactor.constant(2, 1.0)
    with pytest.raises(DomainError, match=r"needs n >= 3"):
        cf.schouten_background(g, x)
    with pytest.raises(DomainError, match=r"needs n >= 3"):
        cf.conformal_schouten_eigs(g, one, x)
    # Ricci and scalar curvature stay defined in dimension 2
    assert np.array_equal(cf.ricci_background(g, x), np.zeros((2, 2)))
    assert cf.scalar_curvature(g, x) == 0.0


def test_conformal_metric_needs_n_at_least_3():
    # the exponent 4/(n-2) is undefined at n = 2
    g = cf.MetricField.flat(2)
    one = cf.ConformalFactor.constant(2, 1.0)
    with pytest.raises(DomainError, match=r"needs n >= 3"):
        cf.conformal_metric_components(g, one, np.array([0.1, -0.2]))
    with pytest.raises(DomainError, match=r"needs n >= 3"):
        cf.conformal_metric(g, one)


@pytest.mark.parametrize("shape", [(), (2, 2, 3)])
def test_points_of_wrong_rank_raise(shape):
    g = cf.MetricField.flat(3)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        cf.schouten_background(g, np.full(shape, 0.1))

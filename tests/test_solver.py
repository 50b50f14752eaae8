import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from schouten import _kernels
from schouten import conformal as cf
from schouten import solver as sv
from schouten.comparison import unit_sphere_area
from schouten.cones import ConeSpec, CurvatureFunction
from schouten.errors import ConeExitError, ContinuationError, DomainError


def trig_profile(rng, harmonics=4, amp=0.25):
    c = rng.uniform(-amp, amp, harmonics) / np.arange(1, harmonics + 1) ** 2
    ms = np.arange(1, harmonics + 1)

    def u(th):
        return np.exp(np.cos(np.outer(th, ms)) @ c)

    def up(th):
        return u(th) * (-np.sin(np.outer(th, ms)) @ (ms * c))

    def upp(th):
        phase1 = -np.sin(np.outer(th, ms)) @ (ms * c)
        phase2 = -np.cos(np.outer(th, ms)) @ (ms ** 2 * c)
        return u(th) * (phase1 ** 2 + phase2)

    return u, up, upp


def test_profile_validation():
    with pytest.raises(DomainError):
        sv.RadialProfile.make(4, 32, values=lambda th: np.cos(th))
    # the cosine grid is the only radial grid: there is no grid to choose
    with pytest.raises(TypeError):
        sv.RadialProfile.make(4, 32, grid="uniform")
    assert not hasattr(sv, "GRIDS")


def test_profile_rejects_bad_dimension_grid_and_lengths():
    # each used to get through and fail later: n = 2 with a bare
    # ZeroDivisionError in the eigenvalues, one node with an IndexError and
    # unequal lengths with a broadcast error
    with pytest.raises(DomainError, match="n >= 3"):
        sv.RadialProfile.make(2, 16)
    for nodes in (1, 2):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            sv.RadialProfile.make(4, nodes)
    with pytest.raises(ValueError, match="values has 15 nodes but the grid has 16"):
        sv.RadialProfile.make(4, 16, values=np.ones(15))
    sv.RadialProfile.make(3, 3)  # the least accepted


def test_with_values_keeps_the_node_count():
    # theta is derived from the node count, so new values of another length
    # would silently move the grid
    prof = sv.RadialProfile.make(4, 16)
    for bad in (np.ones(15), np.ones(17)):
        with pytest.raises(ValueError, match=f"16 nodes of the grid, got {len(bad)}"):
            prof.with_values(bad)
    assert prof.with_values(2.0 * np.ones(16)).theta is prof.theta


def test_profiles_on_one_grid_share_read_only_operators():
    a = sv.RadialProfile.make(4, 24)
    b = sv.RadialProfile.make(3, 24, values=lambda th: 2.0 + np.cos(th))
    for get in (lambda p: p.theta, lambda p: p.cot_theta(), lambda p: p.pole_mask(),
                lambda p: p.d1_matrix(), lambda p: p.d2_matrix()):
        assert get(a) is get(b)
        assert not get(a).flags.writeable
    assert a.theta[0] == 0.0 and a.theta[-1] == math.pi
    assert list(np.flatnonzero(a.pole_mask())) == [0, 23]
    assert a.cot_theta()[0] == a.cot_theta()[-1] == 0.0
    # the spectral quadrature weights are cached per (m, n) and read-only
    w = a.quad_weights()
    assert w is sv.RadialProfile.make(4, 24).quad_weights()
    assert not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.0
    assert b.quad_weights() is not a.quad_weights()


def test_radial_eigs_constant_profiles():
    prof = sv.RadialProfile.make(4, 64)
    assert np.allclose(sv.radial_schouten_eigs(prof, 10), 0.5)
    prof_c = prof.with_values(3.0 * np.ones(64))
    expect = 0.5 * 3.0 ** (-4.0 / 2.0)
    assert np.allclose(sv.radial_schouten_eigs(prof_c, 0), expect)
    assert np.allclose(sv.radial_schouten_eigs(prof_c, 63), expect)


def test_radial_eigs_cross_check_against_chart(rng):
    # closed-form two-branch eigenvalues against the full polar-chart
    # machinery, with exact profile derivatives injected on both sides
    for n in (3, 4, 5):
        g = cf.MetricField.sphere_polar(n)
        for _ in range(4):
            u, up, upp = trig_profile(rng)
            theta = rng.uniform(0.6, 2.5)
            rad, tan = _kernels.radial_sphere_eigs(
                u(np.array([theta])), up(np.array([theta])),
                upp(np.array([theta])), np.array([1.0 / math.tan(theta)]),
                np.array([False]), n)
            closed = np.sort(np.concatenate([rad, np.repeat(tan, n - 1)]))

            def val(x):
                return u(x[:, 0])

            def grad(x):
                out = np.zeros_like(x)
                out[:, 0] = up(x[:, 0])
                return out

            def hess(x):
                out = np.zeros((x.shape[0], n, n))
                out[:, 0, 0] = upp(x[:, 0])
                return out

            factor = cf.ConformalFactor.from_callable(n, val, grad=grad, hess=hess)
            x = np.full(n, 1.3)
            x[0] = theta
            chart = cf.conformal_schouten_eigs(g, factor, x)
            assert np.abs(chart - closed).max() < 1e-10


def test_radial_eigs_cosine_grid_matches_exact(rng):
    # spectral differentiation reproduces the analytic profile derivatives
    n = 4
    u, up, upp = trig_profile(rng)
    prof = sv.RadialProfile.make(n, 96, values=u)
    j = 40
    lam_grid = sv.radial_schouten_eigs(prof, j)
    th = prof.theta[j:j + 1]
    rad, tan = _kernels.radial_sphere_eigs(
        u(th), up(th), upp(th), 1.0 / np.tan(th), np.array([False]), n)
    lam_exact = np.sort(np.concatenate([rad, np.repeat(tan, n - 1)]))
    assert np.abs(lam_grid - lam_exact).max() < 1e-9


def test_residual_constant_solutions():
    prof = sv.RadialProfile.make(5, 48)
    f = CurvatureFunction.sigma_root(5, 3)
    for s in (0.0, 0.5, 2.0 / 3.0):
        assert np.abs(sv.residual_Fs(prof, f, s)).max() < 1e-15
    c = 1.7
    prof_c = prof.with_values(c * np.ones(48))
    res = sv.residual_Fs(prof_c, f, 0.5)
    expect = c ** (-4.0 / 3.0) - c ** (-0.5)
    assert np.allclose(res, expect, atol=1e-14)


def test_residual_psi_pattern():
    prof = sv.RadialProfile.make(4, 48)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    res = sv.residual_Fs(prof, f, 1.0, psi=psi)
    assert np.allclose(res, -0.1 * np.cos(prof.theta), atol=1e-14)


def test_residual_cone_exit_carries_node():
    prof = sv.RadialProfile.make(3, 64)
    f = CurvatureFunction.sigma_root(3, 2)
    bad = prof.with_values(1.0 + 0.6 * np.cos(prof.theta))
    with pytest.raises(ConeExitError) as err:
        sv.residual_Fs(bad, f, 2.0)
    # the first node outside the cone
    inside = f.cone.contains_batch(sv.schouten_eig_matrix(bad))
    assert not inside.all() and err.value.node == int(np.argmin(inside))


def test_newton_zero_iterations_at_constant_solution():
    prof = sv.RadialProfile.make(4, 48)
    f = CurvatureFunction.sigma_root(4, 2)
    state = sv.newton_solve(prof, f, 0.7)
    assert state.newton_iterations == 0
    assert state.residual_norm < 1e-15


def test_newton_basin_and_continuation_small():
    n, k, num = 4, 2, 64
    prof = sv.RadialProfile.make(n, num)
    f = CurvatureFunction.sigma_root(n, k)
    start = sv.newton_solve(
        prof.with_values(1.0 + 0.2 * np.cos(prof.theta)), f, 1.0)
    assert start.residual_norm < 1e-10
    assert np.abs(start.profile.values - 1.0).max() < 1e-9
    schedule = [(s, 1.0) for s in np.linspace(1.0, 0.0, 6)[1:]]
    states = sv.newton_continuation(start, schedule, f)
    assert len(states) == 6
    for st in states:
        assert st.residual_norm <= 1e-10
        assert st.min_cone_margin > 0
        assert st.min_u > 0
        assert st.ricci_margin >= 0


def test_continuation_requires_converged_start():
    prof = sv.RadialProfile.make(4, 32)
    f = CurvatureFunction.sigma_root(4, 2)
    state = sv.make_state(prof.with_values(1.0 + 0.05 * np.cos(prof.theta)),
                          f, 1.0, 1.0)
    with pytest.raises(ValueError):
        sv.newton_continuation(state, [(0.5, 1.0)], f)


def test_make_state_ricci_margin_shifts_by_alpha():
    # Ric_{g_u} + (n-1) alpha^2 g_u: every relative eigenvalue moves by
    # (n-1) alpha^2
    n = 4
    prof = sv.RadialProfile.make(n, 32)
    f = CurvatureFunction.sigma_root(n, 2)
    prof = prof.with_values(1.0 + 0.05 * np.cos(prof.theta))
    unshifted = sv.make_state(prof, f, 1.0, 1.0)
    shifted = sv.make_state(prof, f, 1.0, 1.0, alpha=0.7)
    assert shifted.alpha == 0.7
    assert shifted.ricci_margin - unshifted.ricci_margin == pytest.approx(
        (n - 1) * 0.7 ** 2, rel=1e-12)


def test_homotopy_continuation_lands_on_unit_constant():
    # G_t walk: at t the constant solution is (t + (1-t) n)^((n-2)/2)
    n, k, num = 4, 2, 48
    prof = sv.RadialProfile.make(n, num)
    f = CurvatureFunction.sigma_root(n, k)
    c0 = float(n) ** ((n - 2.0) / 2.0)
    start = sv.make_state(prof.with_values(c0 * np.ones(num)), f,
                          2.0 / (n - 2.0), 0.0)
    assert start.residual_norm < 1e-12
    schedule = [(2.0 / (n - 2.0), t) for t in np.linspace(0.0, 1.0, 9)[1:]]
    states = sv.newton_continuation(start, schedule, f)
    assert np.abs(states[-1].profile.values - 1.0).max() < 1e-9
    for st in states:
        expect = (st.t + (1.0 - st.t) * n) ** ((n - 2.0) / 2.0)
        assert np.abs(st.profile.values - expect).max() < 1e-8


def test_manufactured_solution_discretization_order(rng):
    # residual of an injected exact solution decays spectrally: two orders
    # of magnitude from 6 to 8 nodes, and at rounding level by 12
    n, k = 4, 2
    f = CurvatureFunction.sigma_root(n, k)
    u, up, upp = trig_profile(rng, harmonics=2, amp=0.15)
    s = 0.8
    errs = []
    for num in (6, 8, 12):
        prof = sv.RadialProfile.make(n, num, values=u)
        th = prof.theta
        cot = np.zeros(num)
        cot[1:-1] = 1.0 / np.tan(th[1:-1])
        pole = prof.pole_mask()
        rad, tan = _kernels.radial_sphere_eigs(u(th), up(th), upp(th), cot,
                                               pole, n)
        lam = np.empty((num, n))
        lam[:, 0] = rad
        lam[:, 1:] = tan[:, None]
        psi_exact = f.value_batch(lam) * u(th) ** s
        res = sv.residual_Fs(prof, f, s, psi=psi_exact)
        errs.append(np.abs(res).max())
    assert errs[0] / errs[1] > 100.0
    assert errs[2] <= 1e-11


def test_linearized_spectrum_facts():
    for n in (3, 4):
        prof = sv.RadialProfile.make(n, 128)
        vals, vecs = sv.linearized_H0_spectrum(prof, 4, return_vectors=True)
        assert vals[0] == pytest.approx(-2.0, abs=1e-6)
        v0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        assert np.abs(v0 - v0.mean()).max() < 1e-8
        # next eigenvalue: first radial Laplacian eigenvalue = n
        assert vals[1] == pytest.approx(n, rel=5e-3)
        # only one nonpositive eigenvalue
        assert np.sum(np.asarray(vals) <= 1e-8) == 1


def _zonal_spectrum(n, m):
    # -Lap on radial functions of S^n: l(l + n - 1) with eigenfunction the
    # zonal harmonic of degree l; the cosine grid resolves l = 0..m-1
    ell = np.arange(m)
    return ell * (ell + n - 1.0)


@pytest.mark.parametrize("m", [3, 12, 24, 32, 48, 64])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cosine_laplacian_has_the_zonal_spectrum(n, m):
    # the whole spectrum of -L is l(l + n - 1), l = 0..m-1, with no spurious
    # mode (a Chebyshev D2 that ignores u'(0) = u'(pi) = 0 had eigenvalues
    # down to -1308 at 12 nodes, n = 3)
    prof = sv.RadialProfile.make(n, m)
    vals = np.linalg.eigvals(-prof.laplacian(np.eye(m)))
    exact = _zonal_spectrum(n, m)
    assert np.abs(vals.imag).max() <= 1e-9 * exact[-1]
    err = np.abs(np.sort(vals.real) - exact)
    assert np.all(err <= 1e-9 * np.maximum(1.0, exact))


@pytest.mark.parametrize("nodes", [12, 32])
def test_linearized_spectrum_on_the_cosine_grid_is_exact(nodes):
    # -2 with the constant eigenfunction, then the zonal spectrum l(l + n - 1)
    # from l = 1 on: the mean term of H_0 moves only the constant mode
    for n in (3, 4, 5, 6):
        prof = sv.RadialProfile.make(n, nodes)
        vals, vecs = sv.linearized_H0_spectrum(prof, nodes, return_vectors=True)
        want = np.concatenate([[-2.0], _zonal_spectrum(n, nodes)[1:]])
        assert np.all(np.abs(vals - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
        v0 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        assert np.abs(v0 - v0.mean()).max() < 1e-12


@pytest.mark.parametrize("m", [16, 17, 32, 64, 128])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cosine_quadrature_is_exact_on_the_cosine_basis(n, m):
    # the trapezoid rule missed |S^4| by 2.4e-5 relative at 16 nodes and
    # 4.7e-9 at 128 (sin^(n-1) is not smooth in the even extension for even n)
    from scipy.special import rgamma

    volume = unit_sphere_area(n + 1)
    prof = sv.RadialProfile.make(n, m)
    assert abs(prof.volume() / volume - 1.0) <= 1e-13
    for ell in range(m):
        # int_0^pi cos(l theta) sin^nu theta (Gradshteyn-Ryzhik 3.631.8)
        nu = n - 1
        moment = (math.pi * math.cos(0.5 * math.pi * ell) * math.gamma(nu + 1) / 2.0 ** nu
                  * rgamma(1 + 0.5 * (nu + ell)) * rgamma(1 + 0.5 * (nu - ell)))
        got = prof.integrate(np.cos(ell * prof.theta))
        assert abs(got - unit_sphere_area(n) * moment) <= 1e-13 * volume, ell


@pytest.mark.parametrize("m", [16, 32, 64])
def test_cosine_matrices_differentiate_smooth_even_profiles(m):
    # u = exp(0.3 cos(theta)) against its analytic derivatives
    prof = sv.RadialProfile.make(4, m, values=lambda th: np.exp(0.3 * np.cos(th)))
    th, u = prof.theta, prof.values
    up = -0.3 * np.sin(th) * u
    upp = (0.09 * np.sin(th) ** 2 - 0.3 * np.cos(th)) * u
    for got, want in ((prof.d1(), up), (prof.d2(), upp),
                      (prof.d1_matrix() @ u, up), (prof.d2_matrix() @ u, upp)):
        assert np.abs(got - want).max() <= 1e-10
    assert prof.d1()[0] == prof.d1()[-1] == 0.0


@pytest.mark.parametrize("m", [3, 4, 16, 17, 48, 64, 128])
def test_derivatives_are_exact_on_constants(m):
    # each diagonal of D1, D2 is minus its row's off-diagonal sum, so D 1 is
    # 0 to the rounding of that sum; the profile applies D to u - min(u), so
    # u', u'' and the Laplacian of a constant are 0 exactly
    prof = sv.RadialProfile.make(4, m)
    for d in (prof.d1_matrix(), prof.d2_matrix()):
        off = d.copy()
        np.fill_diagonal(off, 0.0)
        assert np.array_equal(np.diag(d), -off.sum(axis=1))
        assert np.abs(d @ np.ones(m)).max() <= 64.0 * np.finfo(float).eps * np.abs(d).max()
    for c in (1.0, 0.37, 1.7, 3.0, 1e6):
        u = np.full(m, c)
        for got in (prof.d1(u), prof.d2(u), prof.laplacian(u),
                    prof.d2(np.stack([u, 2.0 * u], axis=1))):
            assert not got.any()


# u(0) and u(pi) of the s = 1 solve below (n = 4, k = 2, psi = 1 + 0.1 cos)
# on the earlier 32-node Chebyshev-Lobatto grid; its 16-, 24- and 32-node
# solves agreed to 3.1e-12
LOBATTO_POLES = (1.0989866574323166, 0.900958887201896)


@pytest.mark.parametrize("m", [16, 24, 32, 64, 128])
def test_cosine_solve_matches_the_spectral_reference(m):
    # the Lobatto grid raised the resolution stop at 64 and 128 nodes
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, m)
    state = sv.newton_solve(prof, f, 1.0, psi=lambda th: 1.0 + 0.1 * np.cos(th))
    assert state.newton_iterations == 4 and state.residual_norm <= 1e-10
    poles = state.profile.values[[0, -1]]
    assert np.abs(poles - LOBATTO_POLES).max() <= 1e-9


# ---------------------------------------------------------------------------
# the Moebius family: exact nonconstant solutions on the round sphere
# ---------------------------------------------------------------------------

MOBIUS_PAIRS = [(3, 2), (4, 2), (5, 3), (6, 3)]


def _mobius(n, beta):
    # u_beta = (cosh beta + sinh beta cos theta)^(-(n-2)/2), the conformal
    # factor of a Moebius pullback of the round metric: its Schouten
    # eigenvalues relative to g_u are all 1/2, so f(lambda) = 1 for every
    # normalised sigma_k root, and its maximum e^(beta (n-2)/2) is at theta = pi
    def u(th):
        return (math.cosh(beta) + math.sinh(beta) * np.cos(th)) ** (-(n - 2.0) / 2.0)

    def tangent(th):
        # d u_beta / d beta
        base = math.cosh(beta) + math.sinh(beta) * np.cos(th)
        return (-(n - 2.0) / 2.0 * base ** (-(n - 2.0) / 2.0 - 1.0)
                * (math.sinh(beta) + math.cosh(beta) * np.cos(th)))
    return u, tangent


@pytest.mark.parametrize("n, k", MOBIUS_PAIRS)
def test_mobius_family_is_an_exact_discrete_solution_at_s0(n, k):
    # at s = 0, psi = 1 each u_beta solves the continuous problem, so the
    # discrete residual is the truncation error alone: it decays
    # geometrically in m and is at rounding level by 64 nodes (n = 4,
    # beta = 1: 9.8e-3, 8.7e-8 and 5.0e-12 at 16, 32 and 64 nodes); the exact
    # Jacobian maps the family's tangent to rounding level too (the
    # noncompact direction of the s = 0 problem)
    eps = np.finfo(np.float64).eps
    f = CurvatureFunction.sigma_root(n, k)
    for beta in (0.25, 0.5, 1.0):
        u, tangent = _mobius(n, beta)
        res = [np.abs(sv.residual_Fs(sv.RadialProfile.make(n, m, values=u), f, 0.0)).max()
               for m in (16, 32, 64)]
        assert res[2] <= 1e-9, (beta, res)
        if beta == 1.0:
            assert res[0] > 1e-3 and res[0] / res[1] > 1e4, res
        prof = sv.RadialProfile.make(n, 64, values=u)
        jac = _exact_jacobian(prof, f, 0.0, np.ones(64))(prof.values)
        t = tangent(prof.theta)
        assert np.abs(jac @ t).max() <= 64.0 * eps * (np.abs(jac) @ np.abs(t)).max()


@pytest.mark.parametrize("n, k", MOBIUS_PAIRS)
def test_newton_recovers_the_mobius_profile_with_psi_u_to_the_s(n, k):
    # with psi = u_beta^s and s = 1/(n-2) > 0, u_beta is the exact solution
    # of a nonconstant-psi problem with a regular Jacobian: Newton from
    # u_beta (1 + 0.02 cos 2 theta) returns u_beta to within the residual's
    # truncation error at u_beta (3.9e-6 at 32 nodes for n = 6, beta = 1,
    # where the state is 2.4e-9 off), or 1e-10 where that is at rounding
    f = CurvatureFunction.sigma_root(n, k)
    s = 1.0 / (n - 2.0)
    for beta in (0.5, 1.0):
        u, _ = _mobius(n, beta)
        psi = lambda th: u(th) ** s
        for m in (32, 64):
            prof = sv.RadialProfile.make(n, m, values=lambda th: u(th) * (1.0 + 0.02 * np.cos(2.0 * th)))
            exact = u(prof.theta)
            trunc = np.abs(sv.residual_Fs(prof, f, s, psi=psi, values=exact)).max()
            state = sv.newton_solve(prof, f, s, psi=psi)
            assert state.residual_norm <= 1e-10 and state.min_cone_margin > 0
            err = np.abs(state.profile.values - exact).max()
            assert err <= max(trunc, 1e-10), (beta, m, err, trunc)
            assert state.max_u == pytest.approx(math.exp(beta * (n - 2.0) / 2.0),
                                                abs=max(trunc, 1e-10))


@pytest.mark.parametrize("n, k", MOBIUS_PAIRS)
def test_mobius_family_is_noncompact_at_s0(n, k):
    # the paper's exclusion of the round sphere, stated on the grid: along
    # the family the maximum e^(beta (n-2)/2), taken at the node theta = pi,
    # grows without bound while every member stays a discrete solution at
    # s = 0 to truncation level (at most 2.6e-11 on 128 nodes for beta <= 1.5)
    f = CurvatureFunction.sigma_root(n, k)
    maxima = []
    for beta in (0.5, 1.0, 1.5):
        u, _ = _mobius(n, beta)
        prof = sv.RadialProfile.make(n, 128, values=u)
        maxima.append(float(prof.values.max()))
        assert maxima[-1] == pytest.approx(math.exp(beta * (n - 2.0) / 2.0), rel=1e-14)
        assert np.abs(sv.residual_Fs(prof, f, 0.0)).max() <= 1e-10, beta
    assert maxima[0] < maxima[1] < maxima[2]


def test_h_t_checkpoints_are_members_of_the_family():
    # g0_residual (ht_residual at t = 1) against the formula written out,
    # and the linearised spectrum (the exact H_t Jacobian at t = 0, u = 1)
    # against the operator -Lap - (2/Vol) Int assembled by hand
    for n in (3, 4, 6):
        prof = sv.RadialProfile.make(n, 48, values=lambda th: 1.0 + 0.2 * np.cos(th))
        v = prof.values
        cn = (n - 2.0) / (4.0 * (n - 1.0))
        direct = -prof.laplacian(v) + cn * n * (n - 1.0) * v - v ** (n / (n - 2.0))
        assert np.abs(sv.g0_residual(prof) - direct).max() <= 1e-13 * np.abs(direct).max()
        jac = sv._ht_jacobian(prof, 0.0, np.ones(48))
        w = prof.quad_weights()
        hand = -prof.laplacian(np.eye(48)) - (2.0 / prof.volume()) * np.tile(w, (48, 1))
        assert np.abs(jac - hand).max() <= 1e-12 * np.abs(hand).max()
        want = np.sort(np.linalg.eigvals(hand).real)[:4]
        assert np.allclose(sv.linearized_H0_spectrum(prof, 4), want, rtol=0, atol=1e-9)


def _hand_built_laplacian(prof):
    # D2 + (n-1) cot(theta) D1 from the derivative matrices, with the pole
    # rows n D2 (the limit of cot(theta) u' at a pole is u'')
    n, d1, d2 = prof.n, prof.d1_matrix(), prof.d2_matrix()
    lap = d2 + ((n - 1.0) * prof.cot_theta())[:, None] * d1
    lap[0, :] = n * d2[0, :]
    lap[-1, :] = n * d2[-1, :]
    return lap


@pytest.mark.parametrize("n", [3, 4, 6])
def test_laplacian_matrix_matches_hand_built_stencil(n):
    prof = sv.RadialProfile.make(n, 24)
    lap = _hand_built_laplacian(prof)
    # each column of the identity has minimum 0, so no shift moves it
    assert np.array_equal(prof.laplacian(np.eye(prof.num_nodes)), lap)
    # a single profile still maps to one column of the matrix
    u = 1.0 + 0.1 * np.cos(prof.theta)
    assert np.allclose(prof.laplacian(u), lap @ u, rtol=0, atol=1e-9)


def test_ht_laplacian_matrix_is_built_once_and_read_only(monkeypatch):
    # the H_t Jacobian reads the Laplacian's matrix from a read-only cache
    # per (m, n), bitwise the per-call build, instead of applying the
    # operator to the identity at every accepted iterate
    for m, n in ((16, 3), (24, 4), (64, 4), (64, 6)):
        prof = sv.RadialProfile.make(n, m, values=lambda th: 1.0 + 0.1 * np.cos(th))
        lap = sv._laplacian_matrix(m, n)
        assert lap is sv._laplacian_matrix(m, n)
        assert not lap.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lap[0, 0] = 0.0
        for fresh in (sv._laplacian_matrix.__wrapped__(m, n), _hand_built_laplacian(prof),
                      prof.laplacian(np.eye(m))):
            assert fresh.tobytes() == lap.tobytes()
        jac = sv._ht_jacobian(prof, 0.5, prof.values)
        assert jac.flags.writeable and not np.shares_memory(jac, lap)
    assert sv._laplacian_matrix(24, 4) is not sv._laplacian_matrix(24, 3)
    # a walk builds each matrix once, whatever its number of iterates
    sv._laplacian_matrix.cache_clear()
    sv.ht_continuation(sv.RadialProfile.make(4, 32), np.linspace(0.0, 1.0, 5))
    info = sv._laplacian_matrix.cache_info()
    assert info.misses == 1 and info.hits > 4


def test_mean_zero_modes_have_laplacian_spectrum():
    n = 4
    prof = sv.RadialProfile.make(n, 128)
    vals = sv.linearized_H0_spectrum(prof, 6)
    # all eigenvalues beyond the -2 mode sit at radial Laplacian values
    # l(l+n-1): n, 2(n+1), ...
    assert vals[2] == pytest.approx(2 * (n + 1), rel=2e-2)


def test_ht_family_facts():
    n = 4
    prof = sv.RadialProfile.make(n, 96)
    # (a) u = 1 solves H_0
    assert np.abs(sv.ht_residual(prof, 0.0)).max() < 1e-13
    # H_1 = G_0 nodewise
    vals = 1.0 + 0.3 * np.cos(prof.theta) ** 2
    prof_v = prof.with_values(vals)
    assert np.abs(sv.ht_residual(prof_v, 1.0)
                  - sv.g0_residual(prof_v)).max() < 1e-12
    # G_0 constant solution against a scalar root-find oracle
    cn = (n - 2.0) / (4.0 * (n - 1.0))
    root = brentq(lambda c: cn * n * (n - 1) * c - c ** (n / (n - 2.0)),
                  0.5, 10.0, xtol=1e-14)
    assert sv.g0_constant_solution(n) == pytest.approx(root, abs=1e-10)
    prof_c = prof.with_values(sv.g0_constant_solution(n) * np.ones(96))
    assert np.abs(sv.g0_residual(prof_c)).max() < 1e-12


def test_ht_continuation_band_stays_bounded():
    # the normalised quantity s^(1/(p_t-1)) u stays in a narrow band
    n = 3
    prof = sv.RadialProfile.make(n, 64)
    states = sv.ht_continuation(prof, np.linspace(0.0, 1.0, 9))
    los = [st.band_lo for st in states if st.band_lo is not None]
    his = [st.band_hi for st in states if st.band_hi is not None]
    assert los and max(his) / min(los) < 4.0
    assert states[-1].profile.values.mean() == pytest.approx(
        sv.g0_constant_solution(n), rel=1e-8)


def test_apriori_margins_reports_and_warns():
    n = 4
    prof = sv.RadialProfile.make(n, 48)
    f = CurvatureFunction.sigma_root(n, 2)
    state = sv.newton_solve(prof, f, 1.0)
    rep = sv.apriori_margins(state)
    assert rep.max_abs_log_u == 0.0
    assert rep.c1_log == 0.0 and rep.c2_log == 0.0
    assert not rep.warnings
    # raising the floor above the healthy margin flags a collapse
    rep2 = sv.apriori_margins(state, floor=1.0)
    assert any("blow-up" in w for w in rep2.warnings)
    # a profile hugging the cone boundary warns (amplitude 0.2 puts the
    # theta = pi eigenvalues of a 3-sphere profile on the boundary)
    prof3 = sv.RadialProfile.make(3, 48)
    f3 = CurvatureFunction.sigma_root(3, 2)
    spiky = sv.make_state(
        prof3.with_values(1.0 + 0.1999 * np.cos(prof3.theta)), f3, 2.0, 1.0)
    rep3 = sv.apriori_margins(spiky, floor=1e-2)
    assert any("blow-up" in w for w in rep3.warnings)


def test_continuation_step_budget_carries_last_state():
    n = 4
    prof = sv.RadialProfile.make(n, 32)
    f = CurvatureFunction.sigma_root(n, 2)
    start = sv.newton_solve(prof, f, 1.0)
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(start, [(0.9, 1.0), (0.8, 1.0)], f, max_steps=1)
    assert err.value.last_state is not None
    assert err.value.last_state.s == pytest.approx(0.9)


def test_nonconstant_psi_solve_and_obstructed_limit():
    # With a first-harmonic target curvature psi = 1 + 0.1 cos(theta) the
    # subcritical equation is solvable (nonconstant profile), but on the
    # round sphere the geometric endpoint s = 0 is obstructed: the branch
    # concentrates at the psi-maximum and the continuation must degenerate
    # rather than produce a solution.
    n, k, num = 4, 2, 64
    prof = sv.RadialProfile.make(n, num)
    f = CurvatureFunction.sigma_root(n, k)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    state = sv.newton_solve(prof, f, 1.0, psi=psi)
    assert state.residual_norm < 1e-10
    assert state.max_u > 1.05 and state.min_u < 0.95  # genuinely nonconstant
    amps = [state.max_u]
    cur = state
    for s_target in (0.5, 0.25, 0.12):
        cur = sv.newton_solve(cur.profile, f, s_target, psi=psi)
        amps.append(cur.max_u)
    assert all(b > a for a, b in zip(amps, amps[1:]))  # amplitude grows
    schedule = [(s, 1.0) for s in np.linspace(0.12, 0.0, 25)[1:]]
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(cur, schedule, f, psi=psi, max_steps=120)
    last = err.value.last_state
    assert last is not None and last.s > 0.0
    assert last.max_u > 2.0 * state.max_u  # blow-up under way
    # the end state of the branch, where the residual's resolution rho has
    # grown past tol with max u: a Newton step that jumps to another branch
    # moves it
    assert last.s == 0.0129095458984375
    assert last.max_u == pytest.approx(6.5727283656, rel=1e-8)


def test_continuation_step_underflow(monkeypatch):
    # a leg that keeps failing is bisected until the parameter gap underflows
    n = 4
    prof = sv.RadialProfile.make(n, 32)
    f = CurvatureFunction.sigma_root(n, 2)
    start = sv.newton_solve(prof, f, 1.0)

    def always_fail(*args, **kwargs):
        raise ContinuationError("synthetic failure")

    monkeypatch.setattr(sv, "newton_solve", always_fail)
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(start, [(0.5, 1.0)], f, min_step=1e-3)
    assert err.value.last_state is start


# ---------------------------------------------------------------------------
# the bisecting parameter walk
# ---------------------------------------------------------------------------

def _pending_list_continuation(start, schedule, solve, min_step, max_steps):
    """newton_continuation as its own pending-list loop, with ``solve`` as the leg."""
    states = [start]
    cur = start
    pending = list(schedule)
    attempts = 0
    while pending:
        target_s, target_t = pending[0]
        attempts += 1
        if attempts > max_steps:
            raise ContinuationError("continuation exceeded the step budget",
                                    last_state=cur)
        try:
            state = solve(cur.profile, None, target_s, target_t, 1.0, 1e-10)
            if state.min_cone_margin <= 0:
                raise ContinuationError("cone margin lost at accepted state")
        except (ContinuationError, ConeExitError, DomainError):
            gap = max(abs(target_s - cur.s), abs(target_t - cur.t))
            if gap < min_step:
                raise ContinuationError("continuation step underflow",
                                        last_state=cur)
            pending.insert(0, (0.5 * (cur.s + target_s), 0.5 * (cur.t + target_t)))
            continue
        states.append(state)
        cur = state
        pending.pop(0)
    return states


def _synthetic_solve(log):
    # a leg from (s0, t0), carried as the state's profile, to (s, t): legs
    # longer than 0.3 stall, s in (0.35, 0.45) leaves the cone, s below 0.1
    # leaves the domain and t in (0.5, 0.6) loses the cone margin
    def solve(profile, f, s, t, psi, tol):
        s0, t0 = profile
        log.append((s0, t0, s, t))
        if max(abs(s - s0), abs(t - t0)) > 0.3:
            raise ContinuationError("synthetic stall")
        if 0.35 < s < 0.45:
            raise ConeExitError("synthetic cone exit", node=3)
        if s < 0.1:
            raise DomainError("synthetic domain exit")
        margin = -1.0 if 0.5 < t < 0.6 else 1.0
        return SimpleNamespace(s=s, t=t, profile=(s, t), min_cone_margin=margin,
                               residual_norm=0.0)
    return solve


@pytest.mark.parametrize("schedule, min_step, max_steps", [
    ([(1.0, 0.0), (0.2, 1.0)], 1e-6, 400),
    ([(0.9, 0.2), (0.3, 0.4), (0.15, 1.0)], 1e-6, 400),
    ([(0.9, 0.2), (0.3, 0.4), (0.15, 1.0)], 1e-6, 8),
    ([(0.8, 0.45), (0.75, 0.55)], 1e-6, 400),
    ([(1.0, 0.1), (0.0, 0.1)], 1e-3, 400),
    ([(1.0, 0.1), (0.0, 0.1)], 1e-9, 400),
])
def test_continuation_walk_matches_pending_list_loop(monkeypatch, schedule,
                                                     min_step, max_steps):
    start = SimpleNamespace(s=1.0, t=0.0, profile=(1.0, 0.0), residual_norm=0.0)
    outcomes = []
    for walk in ("oracle", "walker"):
        log = []
        solve = _synthetic_solve(log)
        try:
            if walk == "oracle":
                states = _pending_list_continuation(start, schedule, solve,
                                                    min_step, max_steps)
            else:
                monkeypatch.setattr(sv, "newton_solve", solve)
                states = sv.newton_continuation(start, schedule, None,
                                                min_step=min_step,
                                                max_steps=max_steps)
            end = [(st.s, st.t) for st in states]
        except ContinuationError as exc:
            end = (str(exc), exc.last_state.s, exc.last_state.t)
        outcomes.append((log, end))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][0]) > 2 * len(schedule)  # the legs were bisected


def _counted_newton_runs(monkeypatch, fail=False):
    """Count the _damped_newton runs; with ``fail`` each run raises a
    synthetic stall instead."""
    runs = []
    real = sv._damped_newton

    def counting(*args):
        runs.append(1)
        if fail:
            raise ContinuationError("synthetic stall")
        return real(*args)

    monkeypatch.setattr(sv, "_damped_newton", counting)
    return runs


def test_rhs_sweep_failure_raises_without_state(monkeypatch):
    # a failing direct run is the whole solve: no fallback runs after it
    prof = sv.RadialProfile.make(4, 16)
    f = CurvatureFunction.sigma_root(4, 2)
    runs = _counted_newton_runs(monkeypatch, fail=True)
    with pytest.raises(ContinuationError, match="^synthetic stall$") as err:
        sv.newton_solve(prof, f, 1.0, psi=2.0)
    assert err.value.last_state is None
    assert len(runs) == 1


def test_resolution_error_names_the_direct_solve(monkeypatch):
    # tol 1e-14 lies below the residual's resolution on 64 nodes (rho about
    # 2.2e-12): the solve meets the resolution stop in its one Newton run,
    # and the error says so; its backward error eta says that the state is
    # converged to rounding
    f = CurvatureFunction.sigma_root(4, 2)
    runs = _counted_newton_runs(monkeypatch)
    prof = sv.RadialProfile.make(4, 64)
    with pytest.raises(ContinuationError) as err:
        sv.newton_solve(prof, f, 1.0, psi=lambda th: 1.0 + 0.1 * np.cos(th), tol=1e-14)
    assert str(err.value).startswith("tolerance 1e-14 lies below the resolution")
    eta = re.search(r"backward error eta = (\S+)\)$", str(err.value))
    assert eta is not None and float(eta.group(1)) < 1e-14
    assert err.value.last_state is None
    assert len(runs) == 1


def test_cold_sphere_start_at_s0_raises_and_the_walk_reaches_it(monkeypatch):
    # the round sphere at s = 0, psi = 1 (sigma_4 in n = 4): the solutions
    # form a noncompact conformal family, and a cold start off u = 1 stalls
    # in its one Newton run (at residual 0.72, far above tol); walking s down
    # from 1 reaches s = 0 at u = 1
    prof = sv.RadialProfile.make(4, 24, values=lambda th: 1.0 + 0.06 * np.cos(th))
    f = CurvatureFunction.sigma_root(4, 4)
    runs = _counted_newton_runs(monkeypatch)
    with pytest.raises(ContinuationError) as err:
        sv.newton_solve(prof, f, 0.0)
    assert err.value.last_state is None
    assert len(runs) == 1
    start = sv.newton_solve(prof, f, 1.0)
    end = sv.newton_continuation(start, [(0.0, 1.0)], f)[-1]
    assert end.s == 0.0 and end.residual_norm <= 1e-10
    assert np.abs(end.profile.values - 1.0).max() < 1e-12


def test_profile_derivatives_apply_the_jacobians_matrices(rng):
    # u', u'' of the residual are the D1, D2 its exact Jacobian is built
    # from, applied to u - min(u): bitwise that product, and D u to rounding
    u, _, _ = trig_profile(rng)
    for m in (16, 64):
        prof = sv.RadialProfile.make(4, m, values=u)
        v = prof.values
        w = v - v.min()
        assert prof.d1().tobytes() == (prof.d1_matrix() @ w).tobytes()
        assert prof.d2().tobytes() == (prof.d2_matrix() @ w).tobytes()
        stack = np.stack([v, 2.0 * v], axis=1)
        assert prof.d2(stack).tobytes() == (prof.d2_matrix() @ (stack - stack.min(axis=0))).tobytes()
        for got, d in ((prof.d1(), prof.d1_matrix()), (prof.d2(), prof.d2_matrix())):
            assert np.abs(got - d @ v).max() <= 1e-13 * np.abs(d).max()


def _fresh_cosine_matrices(num_nodes):
    # the periodic Fourier matrices of the 2(m-1)-point even extension as
    # Toeplitz matrices (Trefethen, Spectral Methods in MATLAB, ch. 3), times
    # the even-extension map of the m nodes, with zeroed pole rows in D1
    from scipy.linalg import toeplitz

    big, h = 2 * (num_nodes - 1), math.pi / (num_nodes - 1)
    k = np.arange(1, big)
    col1 = np.concatenate([[0.0], 0.5 * (-1.0) ** k / np.tan(0.5 * k * h)])
    col2 = np.concatenate([[-math.pi ** 2 / (3.0 * h ** 2) - 1.0 / 6.0],
                           -0.5 * (-1.0) ** k / np.sin(0.5 * k * h) ** 2])
    extend = np.zeros((big, num_nodes))
    extend[np.arange(big), np.minimum(np.arange(big), big - np.arange(big))] = 1.0
    d1, d2 = ((toeplitz(col, col[np.r_[0, big - 1:0:-1]]) @ extend)[:num_nodes]
              for col in (col1, col2))
    d1[[0, -1], :] = 0.0
    # each diagonal entry minus the sum of its row's off-diagonal entries
    for d in (d1, d2):
        d[np.diag_indices(num_nodes)] = 0.0
        d[np.diag_indices(num_nodes)] = -d.sum(axis=1)
    return d1, d2


def test_cosine_matrices_built_once_per_node_count(monkeypatch):
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, 40, values=lambda th: 1.0 + 0.05 * np.cos(th))
    builds = []
    real = sv._cosine_matrices
    monkeypatch.setattr(sv, "_cosine_matrices", lambda m: builds.append(m) or real(m))
    sv._grid.cache_clear()
    cached = sv.newton_solve(prof, f, 1.0)
    assert cached.newton_iterations > 0 and builds == [40]
    d1, d2 = prof.d1_matrix(), prof.d2_matrix()
    assert not d1.flags.writeable and not d2.flags.writeable
    fresh = _fresh_cosine_matrices(40)
    assert np.array_equal(d1, fresh[0]) and np.array_equal(d2, fresh[1])
    # the same solve with the grid built afresh at every call
    monkeypatch.setattr(sv, "_grid", sv._grid.__wrapped__)
    rebuilt = sv.newton_solve(prof, f, 1.0)
    assert np.array_equal(cached.profile.values, rebuilt.profile.values)
    assert cached.newton_iterations == rebuilt.newton_iterations


# ---------------------------------------------------------------------------
# exact Newton Jacobians against the dense one-column difference
# ---------------------------------------------------------------------------

def _fd_column(res_fn, u, r0, j, jac, step=None):
    """Difference column j: a central step of 1e-8 (1 + |u_j|) unless
    ``step`` is given, shrunk by 8 while a probe leaves the cone or the
    positive set, then one-sided.  Returns whether the column is central."""
    base = 1e-8 * (1.0 + abs(u[j])) if step is None else step
    for shrink in range(6):
        step = base / 8.0 ** shrink
        up = u.copy()
        um = u.copy()
        up[j] += step
        um[j] -= step
        try:
            rp = res_fn(up)
        except (DomainError, ConeExitError):
            rp = None
        try:
            rm = res_fn(um)
        except (DomainError, ConeExitError):
            rm = None
        if rp is not None and rm is not None:
            jac[:, j] = (rp - rm) / (2.0 * step)
            return shrink == 0
        if rp is not None:
            jac[:, j] = (rp - r0) / step
            return False
        if rm is not None:
            jac[:, j] = (r0 - rm) / step
            return False
    raise ContinuationError(f"cannot difference the residual at node {j}: cone boundary")


def _fd_jacobian(res_fn, u, step=None):
    """The dense one-column-at-a-time difference Jacobian (the oracle), and
    whether every column's probes stayed inside at the first step."""
    r0 = res_fn(u)
    jac = np.zeros((len(u), len(u)))
    central = [_fd_column(res_fn, u, r0, j, jac, step) for j in range(len(u))]
    return jac, all(central)


def _res_and_jac(evaluate):
    """The residual and the Jacobian of a Newton ``evaluate`` as functions of u."""
    return (lambda v: evaluate(v)[0]), (lambda v: evaluate(v)[1]())


def _exact_jacobian(prof, ft, s, weight):
    """u -> the exact residual Jacobian, from the Newton evaluation at u."""
    return _res_and_jac(sv._residual_evaluator(prof, ft, s, weight))[1]


def _assert_matches_oracle(res_fn, jac_fn, u, rtol=1e-6, step=None):
    exact = jac_fn(u)
    oracle, central = _fd_jacobian(res_fn, u, step)
    assert central  # every probe stayed inside the cone
    assert np.abs(exact - oracle).max() <= rtol * np.abs(exact).max()
    return exact


def _newton_runs(monkeypatch):
    """Replace _damped_newton by a stand-in that records each run's
    (evaluate, u0) and returns u0 unchanged."""
    runs = []

    def record(evaluate, u0, tol, max_iter):
        runs.append((evaluate, np.array(u0)))
        return np.array(u0), 0, 0.0

    monkeypatch.setattr(sv, "_damped_newton", record)
    return runs


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_jacobian_matches_fd_oracle(monkeypatch, n):
    # every k and t in {1, 0.5, 0}: the solve's Jacobian at s = 0.5 and at
    # s = 0, at a profile well inside the cone, where every probe of the
    # oracle stays inside
    runs = _newton_runs(monkeypatch)
    prof = sv.RadialProfile.make(n, 24, values=lambda th: (
        1.0 + 0.05 * np.cos(th) + 0.02 * np.cos(2.0 * th)))
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    for k in range(1, n + 1):
        f = CurvatureFunction.sigma_root(n, k)
        for t in (1.0, 0.5, 0.0):
            runs.clear()
            for s in (0.5, 0.0):
                sv.newton_solve(prof, f, s, t, psi)
            assert len(runs) == 2
            for evaluate, u in runs:
                _assert_matches_oracle(*_res_and_jac(evaluate), u)


def test_exact_ht_jacobian_matches_fd_oracle(monkeypatch):
    runs = _newton_runs(monkeypatch)
    prof = sv.RadialProfile.make(4, 24, values=lambda th: 1.0 + 0.1 * np.cos(th))
    sv.ht_continuation(prof, [0.0, 0.5, 1.0])
    assert len(runs) == 3
    for evaluate, u in runs:
        _assert_matches_oracle(*_res_and_jac(evaluate), u)


def _psi_branch_start(prof, f, psi):
    # the psi-branch workload's start: s = 1, 0.5, 0.25, 0.12 on 64 nodes,
    # and the schedule that walks on toward s = 0
    cur = sv.newton_solve(prof, f, 1.0, psi=psi)
    for s in (0.5, 0.25, 0.12):
        cur = sv.newton_solve(cur.profile, f, s, psi=psi)
    return cur, [(s, 1.0) for s in np.linspace(0.12, 0.0, 25)[1:]]


def test_exact_jacobian_matches_oracle_at_a_psi_state():
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    state = sv.newton_solve(prof, f, 1.0, psi=psi)
    assert state.max_u > 1.05  # nonconstant
    psi_arr = sv._psi_values(psi, prof)
    _assert_matches_oracle(
        lambda v: sv.residual_Fs(prof, f, 1.0, psi, values=v),
        _exact_jacobian(prof, f, 1.0, psi_arr),
        state.profile.values)


def test_exact_jacobian_matches_oracle_on_a_deformed_cone():
    prof = sv.RadialProfile.make(4, 48)
    ft = CurvatureFunction.sigma_root(4, 2).deform(0.5)
    u = 1.0 + 0.1 * np.cos(prof.theta) + 0.02 * np.cos(2.0 * prof.theta)
    _assert_matches_oracle(
        lambda v: sv.residual_Fs(prof, ft, 0.5, values=v),
        _exact_jacobian(prof, ft, 0.5, np.ones(48)), u)


def _checked_jacobians(monkeypatch, keep=None):
    """Wrap every Newton run's Jacobian thunk: with ``keep=None`` each
    Jacobian is compared with the oracle as it is formed, else only the last
    ``keep`` are recorded as (res_fn, jac_fn, u) for a later check.  Returns
    the record, whose first entry counts the Jacobians formed."""
    real = sv._damped_newton
    seen = [0]

    def checked(evaluate, u0, tol, max_iter):
        res_fn, jac_fn = _res_and_jac(evaluate)

        def evaluate_checked(v):
            r, jacobian = evaluate(v)

            def jacobian_checked():
                seen[0] += 1
                if keep is None:
                    exact = _assert_matches_oracle(res_fn, jac_fn, v)
                    assert np.array_equal(exact, jacobian())
                    return exact
                seen.append((res_fn, jac_fn, v.copy()))
                del seen[1:-keep]
                return jacobian()
            return r, jacobian_checked
        return real(evaluate_checked, u0, tol, max_iter)

    monkeypatch.setattr(sv, "_damped_newton", checked)
    return seen


def test_exact_jacobian_matches_oracle_along_the_psi_branch(monkeypatch):
    # the psi-branch benchmark workload: s = 1 ... 0.035 on 64 nodes
    seen = _checked_jacobians(monkeypatch)
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    cur, schedule = _psi_branch_start(prof, f, psi)
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(cur, schedule, f, psi=psi, max_steps=17)
    assert err.value.last_state.s == pytest.approx(0.035)
    # every Jacobian of the branch: one per Newton iteration (83 over the 21
    # runs), and one at each run's accepted point for its resolution
    assert seen[0] == 104


@pytest.mark.parametrize("m, t", [(64, 0.4), (96, 1.0), (96, 0.4), (128, 1.0)])
def test_exact_jacobian_matches_oracle_on_finer_grids_and_deformed_cones(m, t):
    prof = sv.RadialProfile.make(4, m)
    ft = CurvatureFunction.sigma_root(4, 2).deform(t)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    psi_arr = sv._psi_values(psi, prof)
    u = 1.0 + 0.1 * np.cos(prof.theta) + 0.02 * np.cos(2.0 * prof.theta)
    _assert_matches_oracle(lambda v: sv.residual_Fs(prof, ft, 0.5, psi, values=v),
                           _exact_jacobian(prof, ft, 0.5, psi_arr), u)


def test_exact_jacobian_matches_oracle_near_the_psi_branch_wall(monkeypatch):
    # the obstructed psi-branch walked past s = 0.035 to its end state, the
    # stretch where the coloured difference probes left the cone: the last
    # ten Jacobians, nearest the wall, match the oracle, whose one-column
    # probes all stay inside.  The walk ends at s = 0.0129 and max u 6.57,
    # where the default step 1e-8 (1 + |u_j|) is off by truncation by 1.1e-6
    # relative in the worst entry (u'' is largest where u ~ 0.14, near
    # theta = pi); the central step 1e-9 is off by 8e-9 there
    seen = _checked_jacobians(monkeypatch, keep=10)
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    cur, schedule = _psi_branch_start(prof, f, psi)
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(cur, schedule, f, psi=psi, max_steps=120)
    assert err.value.last_state.s == 0.0129095458984375
    assert len(seen) == 11
    for res_fn, jac_fn, u in seen[1:]:
        _assert_matches_oracle(res_fn, jac_fn, u, step=1e-9)


def test_fd_jacobian_near_the_wall_moves_toward_exact():
    # the psi-branch workload's last state (s = 0.035, max u four times its
    # s = 1 value): the oracle's step 1e-8 (1 + |u_j|) is off in its worst
    # entry by truncation, and a central step of 1e-9 moves that entry
    # toward the exact one
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    cur, schedule = _psi_branch_start(prof, f, psi)
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(cur, schedule, f, psi=psi, max_steps=17)
    state = err.value.last_state
    assert state.s == pytest.approx(0.035)
    u = state.profile.values

    def res_fn(v):
        return sv.residual_Fs(prof, f, state.s, psi, values=v)

    exact = _exact_jacobian(prof, f, state.s, sv._psi_values(psi, prof))(u)
    oracle, central = _fd_jacobian(res_fn, u)
    assert central
    i, j = np.unravel_index(np.abs(exact - oracle).argmax(), exact.shape)
    fine = np.zeros_like(oracle)
    assert _fd_column(res_fn, u, res_fn(u), j, fine, step=1e-9)
    assert abs(fine[i, j] - exact[i, j]) < abs(oracle[i, j] - exact[i, j])


def test_cosine_and_ht_jacobians_are_not_banded():
    # both couple nodes beyond the three-point band
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, 16, values=lambda th: 1.0 + 0.05 * np.cos(th))
    for jac in (_exact_jacobian(prof, f, 1.0, np.ones(16))(prof.values),
                sv._ht_jacobian(prof, 0.5, prof.values)):
        rows, cols = np.nonzero(jac)
        assert np.abs(rows - cols).max() > 1


def test_newton_jacobians_take_no_residual_calls(monkeypatch):
    # one newton_solve: each residual evaluation takes u', u'', the
    # eigenvalue pair and one closed-form pass over the pair, never the
    # (m, n) rows, membership or value passes of the generic path; its
    # Jacobian thunk reuses them (no derivative, eigenvalue or value pass)
    # and runs only at accepted iterates, so the rejected damping trial of
    # this cold start takes no partials
    calls = []
    for owner, name in ((sv.RadialProfile, "d1"), (sv.RadialProfile, "d2"),
                        (_kernels, "radial_sphere_eigs"),
                        (_kernels, "radial_sphere_eig_partials"),
                        (_kernels, "_elementary_symmetric_np"),
                        (sv, "schouten_eig_matrix"),
                        (ConeSpec, "contains_batch"), (CurvatureFunction, "value_batch"),
                        (CurvatureFunction, "pair_value")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **kw: (
            calls.append(_name) or _real(*a, **kw)))
    log = []
    real_newton = sv._damped_newton

    def traced(evaluate, u0, tol, max_iter):
        def evaluate_traced(v):
            calls.clear()
            r, jacobian = evaluate(v)
            log.append(("evaluate", sorted(calls)))

            def jacobian_traced():
                calls.clear()
                jac = jacobian()
                log.append(("jacobian", list(calls)))
                return jac
            return r, jacobian_traced
        return real_newton(evaluate_traced, u0, tol, max_iter)

    monkeypatch.setattr(sv, "_damped_newton", traced)
    prof = sv.RadialProfile.make(4, 32, values=lambda th: 1.0 + 0.3 * np.cos(th))
    state = sv.newton_solve(prof, CurvatureFunction.sigma_root(4, 4), 0.5,
                            psi=lambda th: 1.0 + 0.1 * np.cos(th))
    evaluations = [c for kind, c in log if kind == "evaluate"]
    jacobians = [c for kind, c in log if kind == "jacobian"]
    assert all(c == ["d1", "d2", "pair_value", "radial_sphere_eigs"] for c in evaluations)
    assert jacobians == [["radial_sphere_eig_partials"]] * len(jacobians)
    # one Jacobian per accepted iterate, the start included; one trial rejected
    assert len(jacobians) == state.newton_iterations + 1 == 7
    assert len(evaluations) == 8
    # the H_t Jacobian makes no residual call either
    calls.clear()
    sv._ht_jacobian(prof, 0.5, prof.values)
    assert not {"schouten_eig_matrix", "contains_batch", "value_batch", "pair_value"} & set(calls)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_jacobian_raises(bad):
    # the finiteness check is rho = eps || |J| |u| ||_inf, at the start and
    # at an accepted iterate alike
    def evaluate(u):
        def jacobian():
            jac = np.eye(4)
            if u[0] < 1.5:
                jac[2, 1] = bad
            return jac
        return u - 1.0, jacobian

    for u0 in (np.full(4, 1.0), np.full(4, 2.0)):
        with pytest.raises(ContinuationError, match="^non-finite Jacobian in Newton step$"):
            sv._damped_newton(evaluate, u0, 1e-10, 10)


def test_residual_checks_cone_membership_once(monkeypatch):
    # the residual decides membership once, in the closed-form pass over the
    # eigenvalue pair, and matches the generic value_batch oracle within a
    # few rounding units of the row scale; make_state keeps the generic
    # certificate, one contains_batch call
    eps = np.finfo(np.float64).eps
    prof = sv.RadialProfile.make(4, 32, values=lambda th: 1.0 + 0.1 * np.cos(th))
    f = CurvatureFunction.sigma_root(4, 2)
    lam = sv.schouten_eig_matrix(prof)
    expect = f.value_batch(lam) - prof.values ** -0.5
    calls = []
    for owner, name in ((ConeSpec, "contains_batch"), (CurvatureFunction, "pair_value")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name: (
            calls.append(_name) or _real(*a)))
    res = sv.residual_Fs(prof, f, 0.5)
    assert calls == ["pair_value"]
    assert np.all(np.abs(res - expect) <= 4.0 * eps * np.abs(lam).max(axis=1))
    calls.clear()
    sv.make_state(prof, f, 0.5, 1.0)
    assert calls == ["contains_batch"]


def test_residual_exits_at_the_first_node_outside():
    # a profile whose eigenvalue rows leave Gamma_2 at some nodes: the
    # residual raises ConeExitError at the first of them, as value_batch does
    prof = sv.RadialProfile.make(4, 32, values=lambda th: 1.0 + 0.9 * np.cos(3.0 * th))
    f = CurvatureFunction.sigma_root(4, 2)
    outside = ~f.cone.contains_batch(sv.schouten_eig_matrix(prof))
    assert outside.any() and not outside.all()
    with pytest.raises(ConeExitError) as err:
        sv.residual_Fs(prof, f, 0.5)
    assert err.value.node == int(np.argmax(outside))


def test_certificate_agrees_with_the_newton_loop(monkeypatch):
    # at every accepted state of the psi-branch walk and of a walk on the
    # deformed cone t = 0.5, make_state's generic residual (the (m, n) rows
    # and one value_batch pass) and the closed form the Newton loop reads
    # agree within a few rounding units of the row scale, taken through the
    # gradient of f_t (at t = 0, f_t = f(e) sigma_1 is n f(e) times the scale)
    eps = np.finfo(np.float64).eps
    made = []
    real_make_state = sv.make_state
    monkeypatch.setattr(sv, "make_state", lambda *a, **kw: (
        made.append(real_make_state(*a, **kw)) or made[-1]))
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    f4 = CurvatureFunction.sigma_root(4, 2)
    cur, schedule = _psi_branch_start(sv.RadialProfile.make(4, 64), f4, psi)
    with pytest.raises(ContinuationError):
        sv.newton_continuation(cur, schedule, f4, psi=psi, max_steps=17)
    psi_branch = list(made)
    made.clear()
    # from the t = 0 solution near the constant 4 up to t = 0.5, then down in s
    start = sv.newton_solve(sv.RadialProfile.make(4, 48, values=np.full(48, 4.0)), f4, 1.0,
                            t=0.0, psi=psi)
    sv.newton_continuation(start, [(1.0, 0.25), (1.0, 0.5), (0.7, 0.5), (0.4, 0.5)], f4,
                           psi=psi)
    for states in (psi_branch, list(made)):
        accepted = [st for st in states if st.min_cone_margin > 0]
        assert len(accepted) >= 5
        for st in accepted:
            ft = f4.deform(st.t) if st.t != 1.0 else f4
            u, weight = st.profile.values, sv._psi_values(psi, st.profile)
            lam = sv.schouten_eig_matrix(st.profile)
            generic = ft.value_batch(lam) - weight * u ** (-st.s)
            closed = sv._residual_evaluator(st.profile, ft, st.s, weight)(u)[0]
            # one rounding unit of the row scale in every entry, to first order
            g_b, g_a = ft.pair_value(lam[:, 0], lam[:, 1])[1]()
            scale = np.abs(lam).max(axis=1) * (np.abs(g_b) + np.abs(g_a))
            assert np.all(np.abs(closed - generic) <= 8.0 * eps * scale), (st.s, st.t)
            assert st.residual_norm == float(np.abs(generic).max())


# ---------------------------------------------------------------------------
# the resolution stop
# ---------------------------------------------------------------------------

NODE_COUNTS = [32, 40, 48, 64, 96, 128]


@pytest.mark.parametrize("m", NODE_COUNTS)
def test_resolution_matches_one_ulp_probes(m):
    # rho = eps || |J| |u| ||_inf against the largest change of the residual
    # under 20 random relative perturbations of u by one rounding unit
    rng = np.random.default_rng(m)
    eps = np.finfo(np.float64).eps
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, m)
    for u in (np.full(m, 1.05), 1.0 + 0.1 * np.cos(prof.theta)):
        r0 = sv.residual_Fs(prof, f, 1.0, values=u)
        probes = max(float(np.abs(sv.residual_Fs(
            prof, f, 1.0, values=u * (1.0 + eps * rng.choice([-1.0, 1.0], m))) - r0).max())
            for _ in range(20))
        rho = sv._resolution(_exact_jacobian(prof, f, 1.0, np.ones(m))(u), u)
        assert 0.5 <= rho / probes <= 2.0


@pytest.mark.parametrize("m", NODE_COUNTS)
def test_newton_stops_at_resolution(m):
    # every node count converges at tol 1e-10 (rho grows like m^2; a
    # Chebyshev D2, whose rho grew like m^4, raised from 40 nodes on); at
    # tol 1e-14, below rho, each raises promptly an error that names rho and tol
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, m)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    state = sv.newton_solve(prof, f, 1.0, psi=psi)
    assert state.residual_norm <= 1e-10 and state.max_u > 1.05
    t0 = time.perf_counter()
    with pytest.raises(ContinuationError,
                       match=r"tolerance 1e-14 lies below the resolution rho = "):
        sv.newton_solve(prof, f, 1.0, psi=psi, tol=1e-14)
    assert time.perf_counter() - t0 < 0.5


# ---------------------------------------------------------------------------
# the backward-error acceptance
# ---------------------------------------------------------------------------

def test_newton_refuses_the_collapsed_scale():
    # the one-leg homotopy from the t = 0 constant n^((n-2)/2) = 4 at
    # s = 2/(n-2) = 1 (n = 4, k = 2, 96 nodes): Newton reaches residual
    # 5.6e-11 < tol at max u ~1.8e10 and cone margin ~1e-21; rho shrinks with
    # the state, so only the backward error eta = ||r|| / || |J| |u| || (~1
    # there) tells this state from a solution
    f = CurvatureFunction.sigma_root(4, 2)
    start = sv.make_state(sv.RadialProfile.make(4, 96, values=np.full(96, 4.0)), f, 1.0, 0.0)
    with pytest.raises(ContinuationError, match=r"^collapsed scale: backward error eta = ") \
            as err:
        sv.newton_solve(start.profile, f, 1.0, t=1.0)
    eta = float(re.search(r"eta = (\S+) exceeds", str(err.value)).group(1))
    assert eta > sv._ETA_MAX
    assert err.value.last_state is None
    states = sv.newton_continuation(start, [(1.0, 1.0)], f)
    assert [st.t for st in states] == [0.0, 0.5, 0.75, 1.0]
    assert np.abs(states[-1].profile.values - 1.0).max() < 1e-10


def test_lu_is_read_from_scipy_linalg_at_call_time(monkeypatch):
    # the benchmark's tracer counts factorisations by wrapping
    # solver.sla.lu_factor / lu_solve; a solver that bound the LU when it
    # loaded would quietly zero those counts
    from scipy import linalg

    assert sv.sla is linalg
    calls = {"lu_factor": 0, "lu_solve": 0}
    for name, original in [(k, getattr(linalg, k)) for k in calls]:
        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)
    prof = sv.RadialProfile.make(4, 32)
    f = CurvatureFunction.sigma_root(4, 2)
    state = sv.newton_solve(prof, f, 1.0, psi=lambda th: 1.0 + 0.1 * np.cos(th))
    assert state.newton_iterations > 0
    assert calls["lu_factor"] == state.newton_iterations
    # one solve for the step, one per damping trial that evaluates
    assert calls["lu_solve"] >= 2 * state.newton_iterations

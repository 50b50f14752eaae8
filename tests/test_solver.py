import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from schouten import _kernels
from schouten import conformal as cf
from schouten import solver as sv
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
    with pytest.raises(ValueError):
        sv.RadialProfile.make(4, 32, grid="nope")


@pytest.mark.parametrize("grid", ["uniform", "lobatto"])
def test_profile_rejects_bad_dimension_grid_and_lengths(grid):
    # each used to get through and fail later: n = 2 with a bare
    # ZeroDivisionError in the eigenvalues, one node with an IndexError and
    # unequal lengths with a broadcast error
    with pytest.raises(DomainError, match="n >= 3"):
        sv.RadialProfile.make(2, 16, grid=grid)
    for nodes in (1, 2):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            sv.RadialProfile.make(4, nodes, grid=grid)
    theta = sv.RadialProfile.make(4, 16, grid=grid).theta
    with pytest.raises(ValueError, match="16 nodes but values has 15"):
        sv.RadialProfile(4, theta, np.ones(15), grid=grid)
    sv.RadialProfile.make(3, 3, grid=grid)  # the least accepted


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


def test_radial_eigs_lobatto_grid_matches_exact(rng):
    # spectral differentiation reproduces the analytic profile derivatives
    n = 4
    u, up, upp = trig_profile(rng)
    prof = sv.RadialProfile.make(n, 96, values=u, grid="lobatto")
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
    # residual of an injected exact solution decays at second order
    n, k = 4, 2
    f = CurvatureFunction.sigma_root(n, k)
    u, up, upp = trig_profile(rng, harmonics=2, amp=0.15)
    s = 0.8
    errs = []
    for num in (48, 96, 192):
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
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


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


@pytest.mark.parametrize("grid", ["uniform", "lobatto"])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_laplacian_matrix_matches_hand_built_stencil(n, grid):
    # oracle: D2 + (n-1) cot(theta) D1 from the derivative matrices, with the
    # pole rows n D2 (the limit of cot(theta) u' at a pole is u'')
    prof = sv.RadialProfile.make(n, 24, grid=grid)
    d1, d2 = prof.d1_matrix(), prof.d2_matrix()
    lap = d2 + ((n - 1.0) * prof.cot_theta())[:, None] * d1
    lap[0, :] = n * d2[0, :]
    lap[-1, :] = n * d2[-1, :]
    assert np.array_equal(prof.laplacian(np.eye(prof.num_nodes)), lap)
    # a single profile still maps to one column of the matrix
    u = 1.0 + 0.1 * np.cos(prof.theta)
    assert np.allclose(prof.laplacian(u), lap @ u, rtol=0, atol=1e-9)


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
    # the end state of the branch: a Newton step that jumps to another
    # branch moves it
    assert last.s == 0.03175659179687498
    assert last.max_u == pytest.approx(5.626801539, rel=1e-8)


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
    # at the default tolerance the Lobatto solves from 40 nodes on meet the
    # resolution stop in their one Newton run, and the error says so
    f = CurvatureFunction.sigma_root(4, 2)
    runs = _counted_newton_runs(monkeypatch)
    for m in (40, 48, 64):
        runs.clear()
        prof = sv.RadialProfile.make(4, m, grid="lobatto")
        with pytest.raises(ContinuationError) as err:
            sv.newton_solve(prof, f, 1.0, psi=lambda th: 1.0 + 0.1 * np.cos(th), tol=1e-10)
        assert str(err.value).startswith("tolerance 1e-10 lies below the resolution")
        assert err.value.last_state is None
        assert len(runs) == 1


def test_cold_sphere_start_at_s0_raises_and_the_walk_reaches_it(monkeypatch):
    # the round sphere at s = 0, psi = 1 (sigma_4 in n = 4): the solutions
    # form a noncompact conformal family, and a cold start off u = 1 stalls
    # in its one Newton run; walking s down from 1 reaches s = 0 at u = 1
    prof = sv.RadialProfile.make(4, 24, grid="lobatto",
                                 values=lambda th: 1.0 + 0.06 * np.cos(th))
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


def test_uniform_stencil_matrices_are_the_three_point_stencils():
    sv._uniform_matrices.cache_clear()
    for m in (5, 33, 64, 128):
        prof = sv.RadialProfile.make(4, m)
        h = prof.theta[1] - prof.theta[0]
        d1 = np.zeros((m, m))
        d2 = np.zeros((m, m))
        for j in range(1, m - 1):
            d1[j, j - 1], d1[j, j + 1] = -0.5 / h, 0.5 / h
            d2[j, j - 1], d2[j, j], d2[j, j + 1] = 1.0 / h ** 2, -2.0 / h ** 2, 1.0 / h ** 2
        d2[0, 0], d2[0, 1] = -2.0 / h ** 2, 2.0 / h ** 2
        d2[-1, -1], d2[-1, -2] = -2.0 / h ** 2, 2.0 / h ** 2
        for got, want in ((prof.d1_matrix(), d1), (prof.d2_matrix(), d2)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert not got.flags.writeable
        # built once per (node count, spacing), shared by every profile
        other = sv.RadialProfile.make(3, m, values=lambda th: 2.0 + np.cos(th))
        assert other.d1_matrix() is prof.d1_matrix()
        assert other.d2_matrix() is prof.d2_matrix()
    assert sv._uniform_matrices.cache_info().misses == 4


def _fresh_lobatto_matrices(num_nodes):
    # the per-call build: d2 squares the full first-derivative matrix, whose
    # pole rows are then zeroed for d1
    dc, _ = sv._cheb_matrix(num_nodes - 1)
    d = -(2.0 / math.pi) * dc
    d1 = d.copy()
    d1[0, :] = 0.0
    d1[-1, :] = 0.0
    return d1, d @ d


def test_lobatto_matrices_built_once_per_node_count(monkeypatch):
    # tol 1e-9 lies above the residual's resolution on 40 Lobatto nodes
    # (about 1.7e-10), which the default 1e-10 does not
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, 40, values=lambda th: 1.0 + 0.05 * np.cos(th),
                                 grid="lobatto")
    builds = []
    real = sv._cheb_matrix
    monkeypatch.setattr(sv, "_cheb_matrix", lambda m: builds.append(m) or real(m))
    sv._lobatto_matrices.cache_clear()
    cached = sv.newton_solve(prof, f, 1.0, tol=1e-9)
    assert cached.newton_iterations > 0 and builds == [39]
    d1, d2 = prof.d1_matrix(), prof.d2_matrix()
    assert not d1.flags.writeable and not d2.flags.writeable
    fresh = _fresh_lobatto_matrices(40)
    assert np.array_equal(d1, fresh[0]) and np.array_equal(d2, fresh[1])
    # the same solve with both matrices built afresh at every call
    monkeypatch.setattr(sv, "_lobatto_matrices", _fresh_lobatto_matrices)
    rebuilt = sv.newton_solve(prof, f, 1.0, tol=1e-9)
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


def _assert_matches_oracle(res_fn, jac_fn, u, rtol=1e-6):
    exact = jac_fn(u)
    oracle, central = _fd_jacobian(res_fn, u)
    assert central  # every probe stayed inside the cone
    assert np.abs(exact - oracle).max() <= rtol * np.abs(exact).max()
    return exact


def _assert_tridiagonal(jac):
    rows, cols = np.nonzero(jac)
    assert np.abs(rows - cols).max() <= 1


def _newton_runs(monkeypatch):
    """Replace _damped_newton by a stand-in that records each run's
    (evaluate, u0) and returns u0 unchanged."""
    runs = []

    def record(evaluate, u0, tol, max_iter):
        runs.append((evaluate, np.array(u0)))
        return np.array(u0), 0, 0.0

    monkeypatch.setattr(sv, "_damped_newton", record)
    return runs


@pytest.mark.parametrize("grid", ["uniform", "lobatto"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_jacobian_matches_fd_oracle(monkeypatch, n, grid):
    # every k and t in {1, 0.5, 0}: the solve's Jacobian at s = 0.5 and at
    # s = 0, at a profile well inside the cone, where every probe of the
    # oracle stays inside
    runs = _newton_runs(monkeypatch)
    prof = sv.RadialProfile.make(n, 24, grid=grid, values=lambda th: (
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
                exact = _assert_matches_oracle(*_res_and_jac(evaluate), u)
                if grid == "uniform":
                    _assert_tridiagonal(exact)


def test_exact_ht_jacobian_matches_fd_oracle(monkeypatch):
    runs = _newton_runs(monkeypatch)
    prof = sv.RadialProfile.make(4, 24, values=lambda th: 1.0 + 0.1 * np.cos(th))
    sv.ht_continuation(prof, [0.0, 0.5, 1.0])
    assert len(runs) == 3
    for evaluate, u in runs:
        _assert_matches_oracle(*_res_and_jac(evaluate), u)


# The tests below are named for the coloured, stacked difference Jacobian
# that the solver formed before it had exact Jacobians, and keep those names;
# each now checks the exact Jacobian at the same states against the dense
# one-column oracle.

def _psi_branch_start(prof, f, psi):
    # the psi-branch workload's start: s = 1, 0.5, 0.25, 0.12 on 64 nodes,
    # and the schedule that walks on toward s = 0
    cur = sv.newton_solve(prof, f, 1.0, psi=psi)
    for s in (0.5, 0.25, 0.12):
        cur = sv.newton_solve(cur.profile, f, s, psi=psi)
    return cur, [(s, 1.0) for s in np.linspace(0.12, 0.0, 25)[1:]]


def test_coloured_jacobian_bitwise_at_psi_state():
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    state = sv.newton_solve(prof, f, 1.0, psi=psi)
    assert state.max_u > 1.05  # nonconstant
    psi_arr = sv._psi_values(psi, prof)
    exact = _assert_matches_oracle(
        lambda v: sv.residual_Fs(prof, f, 1.0, psi, values=v),
        _exact_jacobian(prof, f, 1.0, psi_arr),
        state.profile.values)
    _assert_tridiagonal(exact)


def test_coloured_jacobian_bitwise_on_deformed_cone():
    prof = sv.RadialProfile.make(4, 48)
    ft = CurvatureFunction.sigma_root(4, 2).deform(0.5)
    u = 1.0 + 0.1 * np.cos(prof.theta) + 0.02 * np.cos(2.0 * prof.theta)
    exact = _assert_matches_oracle(
        lambda v: sv.residual_Fs(prof, ft, 0.5, values=v),
        _exact_jacobian(prof, ft, 0.5, np.ones(48)), u)
    _assert_tridiagonal(exact)


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


def test_stacked_jacobian_bitwise_along_the_psi_branch(monkeypatch):
    # the psi-branch benchmark workload: s = 1 ... 0.035 on 64 nodes
    seen = _checked_jacobians(monkeypatch)
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    cur, schedule = _psi_branch_start(prof, f, psi)
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(cur, schedule, f, psi=psi, max_steps=17)
    assert err.value.last_state.s == pytest.approx(0.035)
    # every Jacobian of the branch: one per Newton iteration, and one at
    # each run's accepted point for its resolution
    assert seen[0] == 108


@pytest.mark.parametrize("m, t", [(64, 0.4), (96, 1.0), (96, 0.4), (128, 1.0)])
def test_stacked_jacobian_bitwise_on_finer_grids_and_deformed_cones(m, t):
    prof = sv.RadialProfile.make(4, m)
    ft = CurvatureFunction.sigma_root(4, 2).deform(t)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    psi_arr = sv._psi_values(psi, prof)
    u = 1.0 + 0.1 * np.cos(prof.theta) + 0.02 * np.cos(2.0 * prof.theta)
    _assert_matches_oracle(lambda v: sv.residual_Fs(prof, ft, 0.5, psi, values=v),
                           _exact_jacobian(prof, ft, 0.5, psi_arr), u)


def test_stacked_jacobian_bitwise_where_probes_leave_the_cone(monkeypatch):
    # the obstructed psi-branch walked past s = 0.035 to its end state, the
    # stretch where the coloured difference probes left the cone: the last
    # ten Jacobians, nearest the wall, match the oracle, whose one-column
    # probes all stay inside
    seen = _checked_jacobians(monkeypatch, keep=10)
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    cur, schedule = _psi_branch_start(prof, f, psi)
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(cur, schedule, f, psi=psi, max_steps=120)
    assert err.value.last_state.s == 0.03175659179687498
    assert len(seen) == 11
    for res_fn, jac_fn, u in seen[1:]:
        _assert_matches_oracle(res_fn, jac_fn, u)


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


def test_lobatto_and_ht_jacobians_are_not_banded():
    # both couple nodes beyond the three-point band
    f = CurvatureFunction.sigma_root(4, 2)
    lob = sv.RadialProfile.make(4, 16, values=lambda th: 1.0 + 0.05 * np.cos(th),
                                grid="lobatto")
    uni = sv.RadialProfile.make(4, 16, values=lambda th: 1.0 + 0.05 * np.cos(th))
    for jac in (_exact_jacobian(lob, f, 1.0, np.ones(16))(lob.values),
                sv._ht_jacobian(uni, 0.5, uni.values)):
        rows, cols = np.nonzero(jac)
        assert np.abs(rows - cols).max() > 1


def test_newton_jacobians_take_no_residual_calls(monkeypatch):
    # one newton_solve: each residual evaluation takes u', u'' and the
    # eigenvalue pair once; its Jacobian thunk reuses them (no derivative,
    # eigenvalue matrix, membership or value pass) and runs only at accepted
    # iterates, so the rejected damping trial of this cold start takes no
    # partials
    calls = []
    for owner, name in ((sv.RadialProfile, "d1"), (sv.RadialProfile, "d2"),
                        (_kernels, "radial_sphere_eigs"),
                        (_kernels, "radial_sphere_eig_partials"),
                        (sv, "schouten_eig_matrix"), (ConeSpec, "contains_batch"),
                        (CurvatureFunction, "value_batch")):
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
    assert all(c == ["contains_batch", "d1", "d2", "radial_sphere_eigs", "value_batch"]
               for c in evaluations)
    assert jacobians == [["radial_sphere_eig_partials"]] * len(jacobians)
    # one Jacobian per accepted iterate, the start included; one trial rejected
    assert len(jacobians) == state.newton_iterations + 1 == 7
    assert len(evaluations) == 8
    # the H_t Jacobian makes no residual call either
    calls.clear()
    sv._ht_jacobian(prof, 0.5, prof.values)
    assert not {"schouten_eig_matrix", "contains_batch", "value_batch"} & set(calls)


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
    prof = sv.RadialProfile.make(4, 32, values=lambda th: 1.0 + 0.1 * np.cos(th))
    f = CurvatureFunction.sigma_root(4, 2)
    expect = f.value_batch(sv.schouten_eig_matrix(prof)) - prof.values ** -0.5
    calls = []
    real = ConeSpec.contains_batch

    def counted(self, lams):
        calls.append(1)
        return real(self, lams)

    monkeypatch.setattr(ConeSpec, "contains_batch", counted)
    res = sv.residual_Fs(prof, f, 0.5)
    assert len(calls) == 1
    assert np.array_equal(res, expect)
    calls.clear()
    sv.make_state(prof, f, 0.5, 1.0)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the resolution stop
# ---------------------------------------------------------------------------

GRIDS = [("lobatto", 32), ("lobatto", 40), ("lobatto", 48), ("lobatto", 64),
         ("uniform", 64), ("uniform", 128)]


@pytest.mark.parametrize("grid, m", GRIDS)
def test_resolution_matches_one_ulp_probes(grid, m):
    # rho = eps || |J| |u| ||_inf against the largest change of the residual
    # under 20 random relative perturbations of u by one rounding unit
    rng = np.random.default_rng(m)
    eps = np.finfo(np.float64).eps
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, m, grid=grid)
    for u in (np.full(m, 1.05), 1.0 + 0.1 * np.cos(prof.theta)):
        r0 = sv.residual_Fs(prof, f, 1.0, values=u)
        probes = max(float(np.abs(sv.residual_Fs(
            prof, f, 1.0, values=u * (1.0 + eps * rng.choice([-1.0, 1.0], m))) - r0).max())
            for _ in range(20))
        rho = sv._resolution(_exact_jacobian(prof, f, 1.0, np.ones(m))(u), u)
        assert 0.5 <= rho / probes <= 2.0


@pytest.mark.parametrize("grid, m", GRIDS)
def test_newton_stops_at_resolution(grid, m):
    # at tol 1e-10 the Lobatto grids from 40 nodes on raise an error that
    # names rho and tol; Lobatto 32 and the uniform grids converge
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, m, grid=grid)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    if grid == "lobatto" and m >= 40:
        t0 = time.perf_counter()
        with pytest.raises(ContinuationError,
                           match=r"tolerance 1e-10 lies below the resolution rho = "):
            sv.newton_solve(prof, f, 1.0, psi=psi)
        assert time.perf_counter() - t0 < 0.5
    else:
        state = sv.newton_solve(prof, f, 1.0, psi=psi)
        assert state.residual_norm <= 1e-10 and state.max_u > 1.05

import math
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
    assert err.value.node is not None


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


def _tau_recording_newton(visits, fail, error=ContinuationError):
    # Stands in for _damped_newton in the right-hand-side sweep and reads
    # tau off the start residual: at u = 1 with psi = 2 the blended residual
    # f(e/2) - tau * 2 - (1 - tau) * f(e/2) is -tau up to rounding.  Raises
    # ``error`` on the first visit of each tau in ``fail`` and keeps u.
    def newton(res_fn, u0, tol, max_iter, bandwidth=None, r0=None):
        tau = -float(res_fn(u0)[0])
        visits.append(tau)
        for bad in fail:
            if abs(tau - bad) < 1e-12:
                fail.remove(bad)
                raise error("synthetic stall")
        return u0.copy(), 1, 0.0
    return newton


def test_rhs_sweep_visits_schedule_in_order_and_stops_at_first_failed_leg(monkeypatch):
    prof = sv.RadialProfile.make(4, 16)
    f = CurvatureFunction.sigma_root(4, 2)
    visits = []
    monkeypatch.setattr(sv, "_damped_newton", _tau_recording_newton(visits, []))
    u, iters = sv._rhs_homotopy_solve(prof, f, 1.0, 2.0, 1e-10)
    assert visits == pytest.approx([0.125, 0.375, 0.625, 0.875, 1.0], abs=1e-12)
    assert iters == 5  # one per leg
    assert np.array_equal(u, prof.values)
    # a stalled leg, or one leaving the domain, ends the sweep: no bisection
    for error, bad in ((ContinuationError, 0.375), (DomainError, 0.625)):
        visits.clear()
        monkeypatch.setattr(sv, "_damped_newton",
                            _tau_recording_newton(visits, [bad], error))
        with pytest.raises(ContinuationError,
                           match=f"right-hand-side sweep at tau = {bad}: synthetic stall"
                           ) as err:
            sv._rhs_homotopy_solve(prof, f, 1.0, 2.0, 1e-10)
        assert type(err.value.__cause__) is error
        assert err.value.last_state is None
        expect = [tau for tau in (0.125, 0.375, 0.625) if tau <= bad]
        assert visits == pytest.approx(expect, abs=1e-12)


def test_rhs_sweep_failure_raises_without_state(monkeypatch):
    prof = sv.RadialProfile.make(4, 16)
    f = CurvatureFunction.sigma_root(4, 2)
    visits = []
    newton = _tau_recording_newton(visits, [])

    def never(res_fn, u0, *args, **kwargs):
        newton(res_fn, u0, *args, **kwargs)
        raise ContinuationError("synthetic stall")

    monkeypatch.setattr(sv, "_damped_newton", never)
    with pytest.raises(ContinuationError, match="right-hand-side sweep at tau = 0.125") as err:
        sv.newton_solve(prof, f, 1.0, psi=2.0)
    assert err.value.last_state is None
    # the direct attempt at tau = 1, then the first leg only
    assert visits == pytest.approx([1.0, 0.125], abs=1e-12)


def test_failed_lobatto_solve_runs_each_sweep_leg_at_most_once(monkeypatch):
    # the 64-node Lobatto solve that neither direct Newton nor the sweep can
    # certify: it fails after the direct attempt and at most one Newton run
    # per blend weight
    prof = sv.RadialProfile.make(4, 64, grid="lobatto")
    f = CurvatureFunction.sigma_root(4, 2)
    runs = []
    real = sv._damped_newton

    def counting(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sv, "_damped_newton", counting)
    with pytest.raises(ContinuationError, match=r"right-hand-side sweep at tau = ") as err:
        sv.newton_solve(prof, f, 1.0, psi=lambda th: 1.0 + 0.1 * np.cos(th))
    assert err.value.last_state is None
    assert 2 <= len(runs) <= 6


def test_uniform_stencil_matrices_are_the_three_point_stencils():
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
    f = CurvatureFunction.sigma_root(4, 2)
    prof = sv.RadialProfile.make(4, 40, values=lambda th: 1.0 + 0.05 * np.cos(th),
                                 grid="lobatto")
    builds = []
    real = sv._cheb_matrix
    monkeypatch.setattr(sv, "_cheb_matrix", lambda m: builds.append(m) or real(m))
    sv._lobatto_matrices.cache_clear()
    cached = sv.newton_solve(prof, f, 1.0)
    assert cached.newton_iterations > 0 and builds == [39]
    d1, d2 = prof.d1_matrix(), prof.d2_matrix()
    assert not d1.flags.writeable and not d2.flags.writeable
    fresh = _fresh_lobatto_matrices(40)
    assert np.array_equal(d1, fresh[0]) and np.array_equal(d2, fresh[1])
    # the same solve with both matrices built afresh at every call
    monkeypatch.setattr(sv, "_lobatto_matrices", _fresh_lobatto_matrices)
    rebuilt = sv.newton_solve(prof, f, 1.0)
    assert np.array_equal(cached.profile.values, rebuilt.profile.values)
    assert cached.newton_iterations == rebuilt.newton_iterations


# ---------------------------------------------------------------------------
# coloured Jacobian against the dense one-column-at-a-time oracle
# ---------------------------------------------------------------------------

def _jacobian_pair(res_fn, u):
    r0 = res_fn(u)
    return sv._fd_jacobian(res_fn, u, r0), sv._fd_jacobian(res_fn, u, r0, bandwidth=1)


def _assert_tridiagonal(jac):
    rows, cols = np.nonzero(jac)
    assert np.abs(rows - cols).max() <= 1


def test_coloured_jacobian_bitwise_at_psi_state():
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    state = sv.newton_solve(prof, f, 1.0, psi=psi)
    assert state.max_u > 1.05  # nonconstant

    def res_fn(u):
        return sv.residual_Fs(prof, f, 1.0, psi, values=u)

    dense, coloured = _jacobian_pair(res_fn, state.profile.values)
    assert np.array_equal(dense, coloured)
    _assert_tridiagonal(dense)


def test_coloured_jacobian_bitwise_on_deformed_cone():
    prof = sv.RadialProfile.make(4, 48)
    ft = CurvatureFunction.sigma_root(4, 2).deform(0.5)
    u = 1.0 + 0.1 * np.cos(prof.theta) + 0.02 * np.cos(2.0 * prof.theta)

    def res_fn(v):
        return sv.residual_Fs(prof, ft, 0.5, values=v)

    dense, coloured = _jacobian_pair(res_fn, u)
    assert np.array_equal(dense, coloured)


def _walled_residual(u, walls, domain=False):
    # a tridiagonal residual that also takes a (B, m) stack.  Raising u[w]
    # for a wall w leaves the admissible set: by default through the cone at
    # node w + 1 (a stack has NaN there, one profile raises ConeExitError
    # naming its first such node), with ``domain`` by a DomainError for the
    # whole call; ``calls`` records the shape of every call
    calls = []
    walls = np.asarray(walls)

    def res_fn(v):
        calls.append(np.shape(v))
        blocked = v[..., walls] > u[walls]
        if np.any(blocked) and domain:
            raise DomainError("outside the domain")
        if np.any(blocked) and np.ndim(v) == 1:
            node = int(walls[blocked][0]) + 1
            raise ConeExitError(f"left the cone at node {node}", node=node)
        out = v ** 3 - 2.0 * v
        out[..., 1:] += np.sin(v[..., :-1])
        out[..., :-1] += 0.5 * v[..., 1:] ** 2
        if np.ndim(v) == 2:
            for w in walls:
                out[v[:, w] > u[w], w + 1] = np.nan
        return out

    return res_fn, calls


STACK, ONE = (6, 20), (20,)


# the ids of the first and last cases are those of the earlier single-wall
# cases (an exception and its call count), kept so each case keeps its name
@pytest.mark.parametrize("walls, domain, expect", [
    # colour 1's raised probe has NaN at node 8: column 7, whose band holds
    # it, is differenced alone (2 calls); the other 19 fill from the stack
    pytest.param([7], False, [STACK, ONE, ONE], id="exc0-9"),
    # NaN in two colours: each hands one column to the single-column path
    pytest.param([7, 11], False, [STACK] + [ONE] * 4, id="two-colours"),
    # two walls in one colour: two NaN rows in one probe, two columns alone
    pytest.param([7, 10], False, [STACK] + [ONE] * 4, id="two-walls-one-colour"),
    # a probe leaves the positive set: every column is differenced alone
    pytest.param([7], True, [STACK] + [ONE] * 40, id="exc1-19"),
])
def test_coloured_jacobian_fallback_matches_dense(walls, domain, expect):
    u = np.linspace(0.8, 1.4, 20)
    res_fn, calls = _walled_residual(u, walls, domain)
    r0 = res_fn(u)
    dense = sv._fd_jacobian(res_fn, u, r0)
    calls.clear()
    coloured = sv._fd_jacobian(res_fn, u, r0, bandwidth=1)
    assert calls == expect
    assert np.array_equal(dense, coloured)
    _assert_tridiagonal(coloured)
    # a wall column is the backward difference, the rest are central
    for wall in walls:
        step = 1e-8 * (1.0 + u[wall])
        um = u.copy()
        um[wall] -= step
        assert np.array_equal(coloured[:, wall], (r0 - res_fn(um)) / step)


def _walled_stack_residual(u, wall, exc):
    # a tridiagonal residual with a quadratic coupling that also takes a
    # (B, m) stack; raising u[wall] leaves the admissible set: one profile
    # raises ``exc``, a stack has NaN at exc.node in its rows outside the
    # cone, or raises a DomainError for the whole stack as for one profile
    calls = []

    def res_fn(v):
        calls.append(np.shape(v))
        blocked = v[..., wall] > u[wall]
        if np.any(blocked) and (np.ndim(v) == 1 or not isinstance(exc, ConeExitError)):
            raise exc
        out = v ** 3 - 2.0 * v
        out[..., 1:] += 0.3 * v[..., :-1] ** 2
        out[..., :-1] += 0.5 * v[..., 1:] ** 2
        if np.any(blocked):
            out[blocked, exc.node] = np.nan
        return out

    return res_fn, calls


@pytest.mark.parametrize("exc, after_stack", [
    # colour 1's raised probe has NaN at node 8: column 7, whose band holds
    # it, is differenced alone (2 calls); the rest fill from the stack
    pytest.param(ConeExitError("left the cone at node 8", node=8), [ONE, ONE],
                 id="exc0-5"),
    # a probe leaves the positive set: every column is differenced alone
    pytest.param(DomainError("outside the domain"), [ONE] * 40, id="exc1-19"),
])
def test_stacked_jacobian_fallback_matches_dense(exc, after_stack):
    # the ids are those of the earlier parametrisation (an exception and its
    # call count), kept so each case keeps its name
    u = np.linspace(0.8, 1.4, 20)
    res_fn, calls = _walled_stack_residual(u, 7, exc)
    r0 = res_fn(u)
    dense = sv._fd_jacobian(res_fn, u, r0)
    calls.clear()
    stacked = sv._fd_jacobian(res_fn, u, r0, bandwidth=1)
    assert calls == [STACK] + after_stack
    assert np.array_equal(stacked, dense)
    _assert_tridiagonal(stacked)


def test_coloured_jacobian_both_sides_blocked_raises():
    u = np.linspace(0.8, 1.4, 20)

    def res_fn(v):
        moved = v[..., 5] != u[5]
        if np.ndim(v) == 1 and moved:
            raise ConeExitError("pinned at node 5", node=5)
        out = v ** 2
        out[moved, 5] = np.nan
        return out

    with pytest.raises(ContinuationError, match="node 5"):
        sv._fd_jacobian(res_fn, u, res_fn(u), bandwidth=1)


def test_coloured_jacobian_makes_six_residual_calls():
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    u = 1.0 + 0.1 * np.cos(prof.theta)
    calls = []

    def res_fn(v):
        calls.append(len(np.atleast_2d(v)))
        return sv.residual_Fs(prof, f, 1.0, values=v)

    r0 = res_fn(u)
    calls.clear()
    sv._fd_jacobian(res_fn, u, r0, bandwidth=1)
    assert calls == [6]  # the six colour probes, in one stacked call


def test_only_uniform_newton_uses_the_coloured_jacobian(monkeypatch):
    f = CurvatureFunction.sigma_root(4, 2)
    seen = []
    real = sv._fd_jacobian

    def spy(res_fn, u, r0, bandwidth=None):
        seen.append(bandwidth)
        return real(res_fn, u, r0, bandwidth)

    monkeypatch.setattr(sv, "_fd_jacobian", spy)
    for grid, expect in (("uniform", 1), ("lobatto", None)):
        prof = sv.RadialProfile.make(4, 24, values=lambda th: 1.0 + 0.05 * np.cos(th),
                                     grid=grid)
        seen.clear()
        state = sv.newton_solve(prof, f, 1.0)
        assert state.residual_norm <= 1e-10
        assert seen and set(seen) == {expect}
    seen.clear()
    prof = sv.RadialProfile.make(4, 24, values=lambda th: 1.0 + 0.05 * np.cos(th))
    sv._rhs_homotopy_solve(prof, f, 1.0, 1.0, 1e-10)
    assert seen and set(seen) == {1}
    seen.clear()
    sv.ht_continuation(sv.RadialProfile.make(4, 24), [0.5])
    assert seen and set(seen) == {None}


def test_lobatto_and_ht_jacobians_are_not_banded():
    # why they stay dense: both couple nodes beyond the three-point band
    f = CurvatureFunction.sigma_root(4, 2)
    lob = sv.RadialProfile.make(4, 16, values=lambda th: 1.0 + 0.05 * np.cos(th),
                                grid="lobatto")
    uni = sv.RadialProfile.make(4, 16, values=lambda th: 1.0 + 0.05 * np.cos(th))
    for res_fn, u in (
            (lambda v: sv.residual_Fs(lob, f, 1.0, values=v), lob.values),
            (lambda v: sv.ht_residual(uni, 0.5, values=v), uni.values)):
        jac = sv._fd_jacobian(res_fn, u, res_fn(u))
        rows, cols = np.nonzero(jac)
        assert np.abs(rows - cols).max() > 1


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
# stacked residuals and the coloured Jacobian along the solver's paths
# ---------------------------------------------------------------------------

def test_stacked_eigs_and_residual_match_each_profile():
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    f = CurvatureFunction.sigma_root(4, 2)
    for grid in ("uniform", "lobatto"):
        prof = sv.RadialProfile.make(4, 24, grid=grid)
        stack = np.stack([1.0 + a * np.cos(prof.theta) for a in (0.0, 0.1, 0.2, 0.9)]
                         + [1.0 + 0.6 * np.cos(2.0 * prof.theta)])
        lam = sv.schouten_eig_matrix(prof, stack)
        res = sv.residual_Fs(prof, f, 0.5, psi, values=stack)
        assert lam.shape == (5, 24, 4) and res.shape == (5, 24)
        inside = np.array([f.cone.contains_batch(rows) for rows in lam])
        # NaN in exactly the rows each profile's own membership pass rejects
        assert np.array_equal(np.isnan(res), ~inside)
        assert inside.all(axis=1).tolist() == [True, True, True, False, False]
        # on the Lobatto grid D @ V is not D @ v bit for bit
        tol = 0.0 if grid == "uniform" else 1e-9
        rhs = sv._psi_values(psi, prof) * stack ** -0.5
        for b, v in enumerate(stack):
            assert np.allclose(lam[b], sv.schouten_eig_matrix(prof, v), rtol=0.0, atol=tol)
            if inside[b].all():
                want = sv.residual_Fs(prof, f, 0.5, psi, values=v)
                assert np.allclose(res[b], want, rtol=0.0, atol=tol)
            else:
                # the profile alone names its first NaN row; its rows inside
                # the cone keep their values
                with pytest.raises(ConeExitError) as err:
                    sv.residual_Fs(prof, f, 0.5, psi, values=v)
                assert np.argmin(inside[b]) == err.value.node
                ok = inside[b]
                assert np.array_equal(res[b][ok], f.value_batch(lam[b][ok]) - rhs[b][ok])
    with pytest.raises(DomainError):
        sv.schouten_eig_matrix(prof, np.stack([prof.values, -prof.values]))


def test_stacked_residual_checks_each_profile_once(monkeypatch):
    # one m-row membership call per profile, as for a single profile, and the
    # rows outside the cone are NaN rather than values
    prof = sv.RadialProfile.make(4, 32)
    f = CurvatureFunction.sigma_root(4, 2)
    stack = np.stack([1.0 + a * np.cos(prof.theta) for a in (0.1, 0.9, 0.2)])
    rows = []
    real = ConeSpec.contains_batch

    def counted(self, lams):
        rows.append(len(lams))
        return real(self, lams)

    monkeypatch.setattr(ConeSpec, "contains_batch", counted)
    res = sv.residual_Fs(prof, f, 0.5, values=stack)
    assert rows == [32, 32, 32]
    inside = np.array([real(f.cone, lam) for lam in sv.schouten_eig_matrix(prof, stack)])
    assert np.array_equal(np.isnan(res), ~inside)
    assert inside.all(axis=1).tolist() == [True, False, True]
    assert inside[1].any()  # the outside profile keeps its rows inside


def _checked_jacobians(monkeypatch):
    # every banded Jacobian the solver forms is compared with the dense
    # one-column oracle at the same point; returns the sizes seen
    real = sv._fd_jacobian
    seen = []

    def check(res_fn, u, r0, bandwidth=None):
        jac = real(res_fn, u, r0, bandwidth)
        if bandwidth is not None:
            assert np.array_equal(jac, real(res_fn, u, r0))
            seen.append(len(u))
        return jac

    monkeypatch.setattr(sv, "_fd_jacobian", check)
    return seen


def test_stacked_jacobian_bitwise_along_the_psi_branch(monkeypatch):
    # the psi-branch benchmark workload: s = 1 ... 0.035 on 64 nodes
    seen = _checked_jacobians(monkeypatch)
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    cur = sv.newton_solve(prof, f, 1.0, psi=psi)
    for s in (0.5, 0.25, 0.12):
        cur = sv.newton_solve(cur.profile, f, s, psi=psi)
    schedule = [(s, 1.0) for s in np.linspace(0.12, 0.0, 25)[1:]]
    with pytest.raises(ContinuationError) as err:
        sv.newton_continuation(cur, schedule, f, psi=psi, max_steps=17)
    assert err.value.last_state.s == pytest.approx(0.035)
    assert len(seen) == 89  # every Jacobian of the branch


@pytest.mark.parametrize("m, t", [(64, 0.4), (96, 1.0), (96, 0.4), (128, 1.0)])
def test_stacked_jacobian_bitwise_on_finer_grids_and_deformed_cones(m, t):
    prof = sv.RadialProfile.make(4, m)
    ft = CurvatureFunction.sigma_root(4, 2).deform(t)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    u = 1.0 + 0.1 * np.cos(prof.theta) + 0.02 * np.cos(2.0 * prof.theta)
    calls = []

    def res_fn(v):
        calls.append(np.ndim(v))
        return sv.residual_Fs(prof, ft, 0.5, psi, values=v)

    r0 = res_fn(u)
    dense = sv._fd_jacobian(res_fn, u, r0)
    calls.clear()
    coloured = sv._fd_jacobian(res_fn, u, r0, bandwidth=1)
    assert calls == [2]  # the interior path: one stacked residual call
    assert np.array_equal(coloured, dense)


def test_stacked_jacobian_bitwise_on_the_rhs_sweep(monkeypatch):
    seen = _checked_jacobians(monkeypatch)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    state = sv.newton_solve(sv.RadialProfile.make(4, 64), f, 1.0, psi=psi)
    u, iters = sv._rhs_homotopy_solve(state.profile, f, 0.5, psi, 1e-10)
    assert len(seen) >= iters > 0  # failed legs form Jacobians too
    assert float(np.abs(sv.residual_Fs(state.profile, f, 0.5, psi, values=u)).max()) <= 1e-10


def test_stacked_jacobian_colour_leaving_the_cone_falls_back():
    # u = 1 + a cos(theta) with a just inside the cone: two colours leave it
    # in one Jacobian, colour 0 raised and colour 1 lowered, both at the pole
    # node 31; each hands the column whose band holds it (30, 31) to the
    # single-column difference, and the other 30 fill from the stacked call
    prof = sv.RadialProfile.make(4, 32)
    f = CurvatureFunction.sigma_root(4, 2)

    def margin(a):
        lam = sv.schouten_eig_matrix(prof, 1.0 + a * np.cos(prof.theta))
        return float(f.cone.margin_batch(lam).min())

    lo, hi = 0.0, 0.9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(mid) > 0 else (lo, mid)
    u = 1.0 + lo * np.cos(prof.theta)
    calls = []

    def res_fn(v):
        calls.append(np.shape(v))
        return sv.residual_Fs(prof, f, 1.0, values=v)

    r0 = res_fn(u)
    dense = sv._fd_jacobian(res_fn, u, r0)
    calls.clear()
    coloured = sv._fd_jacobian(res_fn, u, r0, bandwidth=1)
    assert calls == [(6, 32)] + [(32,)] * 4
    assert np.array_equal(coloured, dense)


class _EnoughJacobians(Exception):
    pass


def test_stacked_jacobian_bitwise_where_probes_leave_the_cone(monkeypatch):
    # the obstructed psi-branch walked toward s = 0 past s = 0.035, where
    # colour probes first leave the cone: the first ten banded Jacobians that
    # hand columns to _fd_column equal the dense oracle bit for bit
    real_jac, real_col = sv._fd_jacobian, sv._fd_column
    alone, checked = [], []

    def column(res_fn, u, r0, j, jac):
        alone.append(j)
        return real_col(res_fn, u, r0, j, jac)

    def check(res_fn, u, r0, bandwidth=None):
        alone.clear()
        jac = real_jac(res_fn, u, r0, bandwidth)
        if bandwidth is not None and alone:
            checked.append(len(alone))
            assert np.array_equal(jac, real_jac(res_fn, u, r0))
            if len(checked) == 10:
                raise _EnoughJacobians
        return jac

    monkeypatch.setattr(sv, "_fd_column", column)
    monkeypatch.setattr(sv, "_fd_jacobian", check)
    prof = sv.RadialProfile.make(4, 64)
    f = CurvatureFunction.sigma_root(4, 2)
    psi = lambda th: 1.0 + 0.1 * np.cos(th)
    cur = sv.newton_solve(prof, f, 1.0, psi=psi)
    for s in (0.5, 0.25, 0.12):
        cur = sv.newton_solve(cur.profile, f, s, psi=psi)
    schedule = [(s, 1.0) for s in np.linspace(0.12, 0.0, 25)[1:]]
    with pytest.raises(_EnoughJacobians):
        sv.newton_continuation(cur, schedule, f, psi=psi, max_steps=120)
    assert len(checked) == 10 and max(checked) < 64  # not the all-columns path

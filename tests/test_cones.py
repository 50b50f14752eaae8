import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schouten.cones import (ConeSpec, CurvatureFunction, cone_margin, f_eval,
                            gamma_k_member, homotopy_ft, mu_plus, sigma_k)
from schouten.errors import DomainError


def brute_sigma(lam, k):
    return sum(math.prod(c) for c in itertools.combinations(lam, k))


def test_sigma_k_trivial_values():
    assert sigma_k([1.0, 1.0, 1.0], 2) == pytest.approx(3.0)
    assert sigma_k([1.0, 2.0, 3.0], 3) == pytest.approx(6.0)


def test_sigma_k_against_enumeration_oracle(rng):
    lam = [2.0, -1.0, 4.0, 0.5]
    assert sigma_k(lam, 2) == pytest.approx(brute_sigma(lam, 2), rel=1e-14)
    for _ in range(50):
        n = rng.integers(2, 9)
        lam = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        assert sigma_k(lam, k) == pytest.approx(brute_sigma(lam, k), rel=1e-11, abs=1e-12)


def test_sigma_k_argument_errors():
    with pytest.raises(ValueError):
        sigma_k([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        sigma_k([1.0, 2.0], 0)


def test_gamma_k_membership_basics():
    for n in (3, 5, 8):
        for k in range(1, n + 1):
            assert gamma_k_member(np.ones(n), k)
    # vertex is not in the open cone
    assert not gamma_k_member(np.zeros(4), 2)
    # (-mu, 1, ..., 1) with mu > (n-k)/k is outside
    n, k = 5, 2
    lam = np.ones(n)
    lam[0] = -((n - k) / k + 0.2)
    assert not gamma_k_member(lam, k)
    lam[0] = -((n - k) / k - 0.2)
    assert gamma_k_member(lam, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_membership_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    k = int(rng.integers(1, n + 1))
    lam = rng.standard_normal(n) + 0.5
    cone = ConeSpec.gamma(n, k)
    base = cone.contains(lam)
    for _ in range(3):
        assert cone.contains(rng.permutation(lam)) == base


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 100.0))
def test_margin_positive_homogeneity(seed, t):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    k = int(rng.integers(1, n + 1))
    lam = rng.standard_normal(n)
    cone = ConeSpec.gamma(n, k)
    m = cone.margin(lam)
    mt = cone.margin(t * lam)
    assert mt == pytest.approx(t * m, rel=1e-9, abs=1e-10 * max(1.0, t))


def test_cone_is_a_cone_and_convex(rng):
    cone = ConeSpec.gamma(5, 3)
    inside = []
    while len(inside) < 60:
        lam = rng.standard_normal(5) + 1.2
        if cone.contains(lam):
            inside.append(lam)
    for lam in inside[:20]:
        for t in (0.3, 2.0, 17.0):
            assert cone.contains(t * np.asarray(lam))
    for a, b in zip(inside[::2], inside[1::2]):
        assert cone.contains(0.5 * (np.asarray(a) + np.asarray(b)))


def test_sandwich_condition(rng):
    # positive orthant inside; everything in the cone has sigma_1 > 0
    for n, k in [(4, 2), (6, 4)]:
        cone = ConeSpec.gamma(n, k)
        for _ in range(200):
            lam = rng.uniform(0.01, 3.0, n)
            assert cone.contains(lam)
            lam = rng.standard_normal(n)
            if cone.contains(lam):
                assert lam.sum() > 0


def test_cone_margin_examples():
    n = 4
    cone_n = ConeSpec.gamma(n, n)
    assert cone_n.margin(np.ones(n)) == pytest.approx(1.0, abs=1e-11)
    # sigma_1(lam - t e) = 5 - 3 t for lam = (3, 1, 1)
    cone_1 = ConeSpec.gamma(3, 1)
    assert cone_margin([3.0, 1.0, 1.0], cone_1) == pytest.approx(5.0 / 3.0,
                                                                 abs=1e-10)
    # boundary point has |margin| ~ 0
    lam = np.ones(5)
    lam[0] = -1.5  # mu_plus(Gamma_2, n=5) = 1.5
    assert abs(ConeSpec.gamma(5, 2).margin(lam)) <= 1e-10


def test_margin_sign_matches_membership(rng):
    cone = ConeSpec.gamma(4, 2)
    lams = rng.standard_normal((500, 4))
    margins = cone.margin_batch(lams)
    members = cone.contains_batch(lams)
    assert np.all((margins > 0) == members)


def test_mu_plus_closed_form():
    for n in range(3, 11):
        for k in range(1, n + 1):
            assert mu_plus(ConeSpec.gamma(n, k)) == pytest.approx(
                (n - k) / k, abs=1e-9)


def test_mu_plus_decreasing_in_k():
    for n in (3, 6, 10):
        vals = [ConeSpec.gamma(n, k).mu_plus() for k in range(1, n + 1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mu_plus_homotopy_cone_against_ray_scan():
    cone = ConeSpec.homotopy(5, 3, 0.35)
    mp = cone.mu_plus()
    # dense scan oracle: membership flips exactly at mu_plus
    mus = np.linspace(0.0, 4.0, 40001)
    lam = np.ones((len(mus), 5))
    lam[:, 0] = -mus
    inside = cone.contains_batch(lam)
    flip = mus[np.argmin(inside)]
    assert mp == pytest.approx(flip, abs=2e-4)
    lam_in = np.ones(5)
    lam_in[0] = -(mp - 1e-6)
    lam_out = np.ones(5)
    lam_out[0] = -(mp + 1e-6)
    assert cone.contains(lam_in) and not cone.contains(lam_out)


def test_f_eval_normalisation_and_homogeneity(rng):
    for n, k in [(3, 2), (4, 2), (5, 3), (6, 6)]:
        f = CurvatureFunction.sigma_root(n, k)
        assert f.value(0.5 * np.ones(n)) == pytest.approx(1.0, rel=1e-14)
        for _ in range(20):
            lam = rng.uniform(0.1, 2.0, n)
            t = rng.uniform(0.1, 10.0)
            assert f.value(t * lam) == pytest.approx(t * f.value(lam), rel=1e-12)


def test_f_eval_unnormalised_reference_value():
    # sigma_2^(1/2) at (1/2,...,1/2) for n = 4: sqrt(C(4,2)/4) = sqrt(1.5)
    lam = 0.5 * np.ones(4)
    assert sigma_k(lam, 2) ** 0.5 == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert f_eval(CurvatureFunction.sigma_root(4, 2), lam) == pytest.approx(1.0)


def test_f_eval_outside_cone_raises():
    f = CurvatureFunction.sigma_root(4, 2)
    with pytest.raises(DomainError):
        f.value(np.array([-3.0, 1.0, 1.0, 1.0]))


def test_f_positive_inside_zero_on_boundary():
    for n, k in [(4, 2), (5, 3)]:
        f = CurvatureFunction.sigma_root(n, k)
        lam = np.ones(n)
        lam[0] = -((n - k) / k - 1e-9)  # just inside along the boundary ray
        # f scales like (boundary distance)^(1/k) along the ray
        assert 0 < f.value(lam) < 1e-2


def test_f_concavity_sampled(rng):
    f = CurvatureFunction.sigma_root(5, 2)
    cone = f.cone
    pool = rng.uniform(0.05, 3.0, (40000, 5))
    pool = pool[cone.contains_batch(pool)]
    a, b = pool[:10000], pool[10000:20000]
    mid = f.value_batch(0.5 * (a + b))
    avg = 0.5 * (f.value_batch(a) + f.value_batch(b))
    assert np.all(mid >= avg - 1e-12)


def test_f_monotone_in_each_entry(rng):
    f = CurvatureFunction.sigma_root(4, 3)
    for _ in range(50):
        lam = rng.uniform(0.1, 2.0, 4)
        i = rng.integers(4)
        bumped = lam.copy()
        bumped[i] += rng.uniform(0.01, 1.0)
        assert f.value(bumped) > f.value(lam)


def test_homotopy_function_endpoints(rng):
    f = CurvatureFunction.sigma_root(4, 2)
    lam = np.array([2.0, 1.0, 0.5, 1.5])
    assert homotopy_ft(f, 1.0, lam) == pytest.approx(f.value(lam), rel=1e-14)
    # t = 0: sigma_1(lam) * f(e)
    fe = f.value(np.ones(4))
    assert homotopy_ft(f, 0.0, lam) == pytest.approx(lam.sum() * fe, rel=1e-13)
    # direct substitution oracle at t = 1/2
    lam = np.array([1.0, 0.0, 0.0, 0.0])
    expect = f.value(0.5 * lam + 0.5 * lam.sum() * np.ones(4))
    assert homotopy_ft(f, 0.5, lam) == pytest.approx(expect, rel=1e-14)


def test_homotopy_cone_endpoints_batch(rng):
    base = ConeSpec.gamma(5, 3)
    lams = rng.standard_normal((10000, 5))
    t1 = ConeSpec.homotopy(5, 3, 1.0)
    assert np.array_equal(t1.contains_batch(lams), base.contains_batch(lams))
    t0 = ConeSpec.homotopy(5, 3, 0.0)
    assert np.array_equal(t0.contains_batch(lams), lams.sum(axis=1) > 0)


def test_homotopy_margin_scaling(rng):
    cone = ConeSpec.homotopy(4, 2, 0.3)
    lam = np.array([1.0, 0.7, 0.2, 0.9])
    m = cone.margin(lam)
    # shifting by c along e moves the margin by exactly c
    for c in (0.05, 0.2):
        assert cone.margin(lam - c) == pytest.approx(m - c, abs=1e-9)


def test_power_value_matches_value_inside(rng):
    f = CurvatureFunction.sigma_root(5, 2)
    lams = rng.uniform(0.05, 2.0, (200, 5))
    vals = f.value_batch(lams)
    assert np.allclose(f.power_value_batch(lams), vals ** 2, rtol=1e-12)


def test_mu_plus_flags_broken_cone(monkeypatch):
    from schouten.errors import BrokenConeError
    cone = ConeSpec.gamma(4, 2)
    # a membership oracle that accepts everything breaks the sigma_1 sandwich
    monkeypatch.setattr(ConeSpec, "contains", lambda self, lam: True)
    with pytest.raises(BrokenConeError):
        cone.mu_plus()
    # one that rejects even the positive orthant is equally broken
    monkeypatch.setattr(ConeSpec, "contains", lambda self, lam: False)
    with pytest.raises(BrokenConeError):
        cone.mu_plus()


def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec.gamma(2, 1)
    with pytest.raises(ValueError):
        ConeSpec.gamma(4, 5)
    with pytest.raises(ValueError):
        ConeSpec.homotopy(4, 2, 1.5)


def _scalar_mu_plus(cone, tol=1e-10):
    """mu_plus as one single-ray membership call per bisection step."""
    n = cone.n

    def member(mu, cone=cone):
        lam = np.ones(n)
        lam[0] = -mu
        return cone.contains(lam)

    # the sigma_1 = 0 edge ray is tested on the base cone, as in ConeSpec.mu_plus
    if member(n - 1.0, cone.deform(1.0)):
        return "sandwich violated"
    if not member(0.0):
        return 0.0 if member(-1e-9) else "orthant outside"
    lo, hi = 0.0, n - 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_mu_plus_bit_equal_to_scalar_bisection():
    from schouten.errors import BrokenConeError
    for n in range(3, 11):
        for k in range(1, n + 1):
            for t in (1.0, 0.95, 0.7, 0.3):
                for tol in (1e-10, 1e-3):
                    cone = ConeSpec.homotopy(n, k, t)
                    want = _scalar_mu_plus(cone, tol)
                    if isinstance(want, str):
                        with pytest.raises(BrokenConeError, match=want.split()[0]):
                            cone.mu_plus(tol)
                    else:
                        got = cone.mu_plus(tol)
                        assert type(got) is float and got == want, (n, k, t, tol)


@pytest.mark.parametrize("n", range(4, 11))
@pytest.mark.parametrize("t", (0.95, 0.7, 0.3))
def test_mu_plus_of_deformed_gamma_1_is_n_minus_1(n, t):
    # T_t rounds the boundary ray (-(n-1), 1, ..., 1) of Gamma_1 to a positive
    # sigma_1; the sandwich check used to read it as inside and raise
    assert ConeSpec.homotopy(n, 1, t).mu_plus() == pytest.approx(n - 1.0, abs=1e-10)


def test_mu_plus_batches_its_membership_calls(monkeypatch):
    calls = []
    batch = ConeSpec.contains_batch

    def counted(self, lams):
        calls.append(np.atleast_2d(lams).shape[0])
        return batch(self, lams)

    monkeypatch.setattr(ConeSpec, "contains_batch", counted)
    ConeSpec.gamma(10, 3).mu_plus()
    # two edge rays, then 6 bisection levels per call over 37 levels
    assert len(calls) == 2 + 7
    assert max(calls) == 63


def _bisection_margin(cone, lams, rtol=1e-12):
    """ConeSpec.margin_batch by bisection of the mapped rows, and its tolerance."""
    from schouten import _kernels
    mapped = cone._map(np.atleast_2d(lams))
    scale = np.abs(mapped).max(axis=1)
    tol = rtol * scale
    m = _kernels._bisect_margin(mapped, cone.k, mapped.min(axis=1) - scale,
                                mapped.max(axis=1), tol)
    factor = cone.t + (1.0 - cone.t) * cone.n
    return m / factor, tol / factor


def test_margin_batch_matches_bisection_on_homotopy_cones(rng):
    for n in (3, 4, 6, 9):
        for k in range(1, n + 1):
            for t in (1.0, 0.95, 0.7, 0.3, 0.0):
                cone = ConeSpec.homotopy(n, k, t)
                lams = np.concatenate([
                    rng.standard_normal((40, n)),                    # mostly outside
                    rng.uniform(0.05, 2.0, (20, n)),                 # inside
                    1e-10 * rng.standard_normal((20, n)),            # tiny scale
                    0.5 + 1e-6 * rng.standard_normal((20, n)),       # near the round sphere
                    np.zeros((2, n)),
                ])
                want, tol = _bisection_margin(cone, lams)
                got = cone.margin_batch(lams)
                assert np.all(np.abs(got - want) <= tol), (n, k, t)
                assert np.all(got[-2:] == 0.0)
                decided = np.abs(got) > tol
                assert np.array_equal((got > 0)[decided], cone.contains_batch(lams)[decided])



def _pair_rows(b, a, n):
    return np.concatenate([b[:, None], np.repeat(a[:, None], n - 1, axis=1)], axis=1)


def test_pair_margin_matches_margin_batch(rng):
    # two-valued rows (b; a, ..., a): the closed form against the Laguerre
    # margin, per row within 1e-12 of max|lambda|; off the boundary its sign
    # is membership, and on the boundary it is zero within a few ulps
    eps = np.finfo(np.float64).eps
    rows = 0
    for n in range(3, 11):
        for k in range(1, n + 1):
            for t in (1.0, 0.7, 0.2, 0.0):
                cone = ConeSpec.homotopy(n, k, t)
                # mu with (-mu, 1, ..., 1) on the boundary: k B + (n-k) A = 0
                # for the mapped pair (B, A); gamma_mu_plus at t = 1
                mu = (t * (n - k) + n * (1.0 - t) * (n - 1.0)) / (k * t + n * (1.0 - t))
                a_edge = rng.uniform(0.1, 2.0, 50)
                b_parts = [rng.uniform(-2.0, 2.0, 800), -mu * a_edge, [-mu]]
                a_parts = [rng.uniform(-0.5, 1.5, 800), a_edge, [1.0]]
                if k >= 2:
                    # A = 0 with B > 0: (b; 0, ..., 0) with b > 0 at t = 1
                    if t < 1.0:
                        a_zero = -rng.uniform(0.1, 2.0, 50)
                        b_zero = -(t + (1.0 - t) * (n - 1.0)) * a_zero / (1.0 - t)
                    else:
                        a_zero, b_zero = np.zeros(50), rng.uniform(0.1, 2.0, 50)
                    b_parts.append(b_zero)
                    a_parts.append(a_zero)
                b0, a0 = np.concatenate(b_parts), np.concatenate(a_parts)
                boundary = np.arange(b0.size) >= 800
                for mag in (1.0, math.exp(5.0), math.exp(-5.0)):
                    b, a = mag * b0, mag * a0
                    lams = _pair_rows(b, a, n)
                    scale = np.abs(lams).max(axis=1)
                    got = cone.pair_margin(b, a)
                    want = cone.margin_batch(lams)
                    assert np.all(np.abs(got - want) <= 1e-12 * scale), (n, k, t, mag)
                    assert np.all(np.abs(got[boundary]) <= 8.0 * eps * scale[boundary]), \
                        (n, k, t, mag)
                    decided = ~boundary & (np.abs(got) > 1e-12 * scale)
                    assert decided.sum() >= 790
                    assert np.array_equal((got > 0)[decided], cone.contains_batch(lams)[decided])
                    rows += b.size
    assert rows > 300_000


def test_pair_margin_non_finite_rows():
    cone = ConeSpec.homotopy(5, 3, 0.7)
    b = np.array([np.nan, np.inf, 1.0, -np.inf, 1.0])
    a = np.array([1.0, 1.0, np.inf, 1.0, 0.5])
    got = cone.pair_margin(b, a)
    assert np.array_equal(got, cone.margin_batch(_pair_rows(b, a, 5)))
    assert np.all(got[:4] == -np.inf) and got[4] > 0

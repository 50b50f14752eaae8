import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from schouten import comparison as cp
from schouten.errors import DomainError


def test_hawking_values():
    assert cp.hawking_bound(0.0, 2.0) == 0.5
    assert cp.hawking_bound(1.0, 2.0) == pytest.approx(math.log(3.0) / 2.0,
                                                       abs=1e-15)
    with pytest.raises(DomainError):
        cp.hawking_bound(2.0, 1.0)
    with pytest.raises(DomainError):
        cp.hawking_bound(1.0, 1.0)


def test_hawking_continuous_at_alpha_zero():
    c0 = 1.7
    base = cp.hawking_bound(0.0, c0)
    for alpha in (1e-3, 1e-5):
        assert cp.hawking_bound(alpha, c0) == pytest.approx(base, abs=1e-5)


def test_hawking_euclidean_equality_model():
    # ball of radius rho: boundary mean curvature (n-1)/rho, bound = rho,
    # attained at the center
    for rho in (0.25, 1.0, 3.0):
        assert cp.hawking_bound(0.0, 1.0 / rho) == pytest.approx(rho, abs=1e-12)


def test_hawking_monotonicity(rng):
    for _ in range(200):
        alpha = rng.uniform(0.0, 3.0)
        c0 = alpha + rng.uniform(0.05, 2.0)
        assert cp.hawking_bound(alpha, c0 + 0.3) < cp.hawking_bound(alpha, c0)
    for _ in range(200):
        c0 = rng.uniform(1.0, 4.0)
        a1 = rng.uniform(0.0, c0 - 0.2)
        a2 = rng.uniform(a1 + 1e-3, c0 - 0.1)
        assert cp.hawking_bound(a2, c0) > cp.hawking_bound(a1, c0)


def test_model_volume_flat_and_limit():
    m0 = cp.ModelSpace(n=4, alpha=0.0)
    assert cp.model_ball_volume(m0, 1.3) == pytest.approx(
        cp.unit_ball_volume(4) * 1.3 ** 4, rel=1e-15)
    # alpha -> 0 at fixed r: relative deviation O(alpha^2)
    r = 0.8
    flat = cp.model_ball_volume(m0, r)
    devs = []
    for alpha in (0.2, 0.1, 0.05):
        v = cp.model_ball_volume(cp.ModelSpace(n=4, alpha=alpha), r)
        devs.append(abs(v - flat) / flat)
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.15)
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.15)


def test_model_volume_hyperbolic_closed_form():
    # n = 3, alpha = 1, r = 1: 4 pi int_0^1 sinh^2 = pi (sinh 2 - 2)
    v = cp.model_ball_volume(cp.ModelSpace(n=3, alpha=1.0), 1.0)
    assert v == pytest.approx(math.pi * (math.sinh(2.0) - 2.0), abs=1e-10)


def test_model_volume_monotone(rng):
    for _ in range(100):
        n = int(rng.integers(3, 6))
        alpha = rng.uniform(0.0, 2.0)
        r = rng.uniform(0.1, 2.0)
        m = cp.ModelSpace(n=n, alpha=alpha)
        assert cp.model_ball_volume(m, r + 0.1) > cp.model_ball_volume(m, r)
        if alpha > 0.05:
            bigger = cp.ModelSpace(n=n, alpha=alpha + 0.3)
            assert cp.model_ball_volume(bigger, r) > cp.model_ball_volume(m, r)


def test_sphere_ball_volume_total():
    # full sphere: Vol(S^n) = 2 pi^((n+1)/2) / Gamma((n+1)/2)
    for n in (3, 4, 5):
        total = cp.sphere_ball_volume(n, math.pi)
        expect = 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
        assert total == pytest.approx(expect, rel=1e-10)


def _quad(f, r):
    return quad(f, 0.0, r, epsabs=1e-13, epsrel=1e-12)[0]


@pytest.mark.parametrize("n", range(2, 13))
def test_ball_volumes_match_quad_oracle(n):
    # the panelled Gauss-Legendre rule against adaptive quadrature
    for r in np.linspace(0.0, math.pi, 41)[1:]:
        expect = cp.unit_sphere_area(n) * _quad(lambda t: math.sin(t) ** (n - 1), r)
        assert cp.sphere_ball_volume(n, r) == pytest.approx(expect, rel=1e-12, abs=0)
    for alpha in (0.1, 1.0, 5.0):
        for r in np.linspace(0.0, 60.0, 41)[1:] / alpha:
            expect = n * cp.unit_ball_volume(n) * _quad(
                lambda t: (math.sinh(alpha * t) / alpha) ** (n - 1), r)
            got = cp.model_ball_volume(cp.ModelSpace(n=n, alpha=alpha), r)
            assert got == pytest.approx(expect, rel=1e-12, abs=0)


@pytest.mark.parametrize("n, alpha, r", [(3, 1.0, 400.0), (12, 5.0, 20.0),
                                         (3, 1.0, 1e12), (4, 1e-3, 1e6),
                                         # flat: r ** n overflows, or c_n r ** n does
                                         (4, 0.0, 1e100), (2, 0.0, 1e154)])
def test_model_volume_overflow_is_domain_error(n, alpha, r):
    with pytest.raises(DomainError, match=re.escape(f"n={n}, alpha={alpha}, r={r}")):
        cp.model_ball_volume(cp.ModelSpace(n=n, alpha=alpha), r)


def test_unit_ball_volume_overflow_edge():
    # Gamma(n/2 + 1) is finite up to n = 341; from 342 on it overflows
    for n in (3, 100, 341):
        assert cp.unit_ball_volume(n) == math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    assert cp.unit_ball_volume(341) > 0.0
    for n in (342, 400, 5000):
        with pytest.raises(DomainError, match=f"n={n}$"):
            cp.unit_ball_volume(n)


def test_flat_model_volume_is_the_closed_form():
    # finite flat volumes are c_n r^n, computed as before, bit for bit
    for n in (2, 3, 4, 12):
        for r in (1e-3, 0.7, 1.0, 3.5, 1e20, 1e300 ** (1.0 / n)):
            want = cp.unit_ball_volume(n) * r ** n
            assert cp.model_ball_volume(cp.ModelSpace(n=n), r) == want


def test_bg_ratio_flat_is_one():
    n = 4
    model = cp.ModelSpace(n=n, alpha=0.0)
    radii = np.geomspace(1e-3, 2.0, 40)
    res = cp.bg_ratio(lambda r: cp.unit_ball_volume(n) * r ** n, model, radii)
    assert np.abs(res.ratios - 1.0).max() <= 1e-12
    assert res.nonincreasing


def test_bg_ratio_sphere_strictly_decreasing():
    for n in (3, 4, 5):
        model = cp.ModelSpace(n=n, alpha=0.0)
        radii = np.geomspace(1e-3, 3.0, 48)
        res = cp.bg_ratio(lambda r: cp.sphere_ball_volume(n, r), model, radii)
        assert res.nonincreasing
        assert np.all(np.diff(res.ratios) < 0)
        assert abs(res.ratios[0] - 1.0) <= 1e-6


def test_bg_ratio_negative_control():
    model = cp.ModelSpace(n=3, alpha=0.0)
    radii = np.linspace(0.5, 2.0, 10)
    # synthetic input with an increasing ratio
    res = cp.bg_ratio(lambda r: cp.unit_ball_volume(3) * r ** 3.5, model, radii)
    assert not res.nonincreasing
    assert res.max_increase > 1e-8


def test_bg_ratio_input_validation():
    model = cp.ModelSpace(n=3, alpha=0.0)
    with pytest.raises(ValueError):
        cp.bg_ratio(lambda r: -r, model, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        cp.bg_ratio(lambda r: r ** 3, model, np.array([1.0, 0.5]))


def test_isoperimetric_ratio():
    # Euclidean ball attains n^(n/(n-1)) c(n)^(1/(n-1))
    for n in (3, 5):
        rho = 0.9
        area = cp.unit_sphere_area(n) * rho ** (n - 1)
        vol = cp.unit_ball_volume(n) * rho ** n
        got = cp.isoperimetric_ratio(n, area, vol)
        expect = n ** (n / (n - 1)) * cp.unit_ball_volume(n) ** (1 / (n - 1))
        assert got == pytest.approx(expect, rel=1e-12)
        # scaling invariance
        t = 2.7
        assert cp.isoperimetric_ratio(n, t ** (n - 1) * area, t ** n * vol) \
            == pytest.approx(got, rel=1e-12)
    with pytest.raises(DomainError):
        cp.isoperimetric_ratio(3, -1.0, 1.0)


def test_thin_annulus_ratio_degenerates():
    # a thin annulus has area ~ const while volume -> 0; the diagnostic of
    # the complementary region area^(n/(n-1)) / volume grows, and the ratio
    # with the roles of a shrinking shell reversed tends to zero
    n = 3
    vals = []
    for eps in (0.5, 0.1, 0.02):
        area = eps ** (n - 1)  # small cap area
        vol = 1.0
        vals.append(cp.isoperimetric_ratio(n, area, vol))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-3


def test_model_space_validation():
    with pytest.raises(ValueError):
        cp.ModelSpace(n=3, alpha=-1.0)
    for r in (-1.0, math.nan, math.inf):
        for alpha in (0.0, 1.0):
            with pytest.raises(DomainError, match="radius"):
                cp.model_ball_volume(cp.ModelSpace(n=3, alpha=alpha), r)

"""The numpy cone kernels: one implementation each, and the certified margin
against its bisection oracle."""

import numpy as np
import pytest

from schouten import _kernels


def test_public_kernels_are_the_numpy_definitions():
    # the e_k passes inside membership and margin call the private name, so
    # the public names must be that very function, not a wrapper around it
    assert _kernels.BACKEND == "numpy"
    assert _kernels.elementary_symmetric is _kernels._elementary_symmetric_np
    assert _kernels.gamma_member is _kernels._gamma_member_np
    assert _kernels.gamma_margin is _kernels._gamma_margin_np
    assert _kernels.radial_sphere_eigs is _kernels._radial_sphere_eigs_np


def _esym_double_loop(lam, kmax):
    # rows first, one (rows,) update per (entry, prefix), prefixes descending:
    # the bitwise oracle of the rows-last kernel
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    nrow, n = lam.shape
    e = np.zeros((nrow, kmax + 1))
    e[:, 0] = 1.0
    for i in range(n):
        x = lam[:, i]
        for j in range(min(i + 1, kmax), 0, -1):
            e[:, j] += x * e[:, j - 1]
    return e


@pytest.mark.parametrize("nrow", [1, 512])
def test_elementary_symmetric_bitwise_against_the_double_loop(rng, nrow):
    # every entry gets the same operations in the same order: equal bits,
    # signed zeros and NaNs included, for n = 1..10, kmax = 0..n + 1, rows
    # with NaN and +-inf entries, and strided input
    bad = [np.nan, np.inf, -np.inf]
    for n in range(1, 11):
        for kmax in range(n + 2):
            lam = rng.standard_normal((nrow, n)) * np.exp(rng.uniform(-5.0, 5.0, (nrow, 1)))
            lam[rng.random((nrow, n)) < 0.1] = 0.0
            if nrow > 1:
                rows = rng.choice(nrow, 12, replace=False)
                lam[rows, rng.integers(0, n, 12)] = np.repeat(bad, 4)
            cases = [lam, lam[::-1], np.asfortranarray(lam)]
            if nrow == 1:
                cases += [np.full((1, n), x) for x in bad]
            for case in cases:
                with np.errstate(invalid="ignore", over="ignore"):
                    got = _kernels.elementary_symmetric(case, kmax)
                    want = _esym_double_loop(case, kmax)
                assert got.shape == want.shape == (nrow, kmax + 1)
                assert np.array_equal(got, want, equal_nan=True), (n, kmax)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (n, kmax)


def test_margin_zero_vector_is_boundary():
    lam = np.zeros((1, 4))
    assert _kernels.gamma_margin(lam, 2)[0] == 0.0


def test_margin_scale_invariance_small_vectors():
    lam = np.array([[3.0, 1.0, 1.0]])
    base = _kernels.gamma_margin(lam, 1)[0]
    tiny = _kernels.gamma_margin(1e-9 * lam, 1)[0]
    assert tiny == pytest.approx(1e-9 * base, rel=1e-9)


# the fallback of gamma_margin, bound here so that spies on it see only the kernel's calls
_bisect = _kernels._bisect_margin


def _oracle(lam, k, rtol=1e-12):
    """Bisection on [min lam - scale, max lam]: inside and outside for every nonzero row."""
    scale = np.abs(lam).max(axis=1)
    return _bisect(lam, k, lam.min(axis=1) - scale, lam.max(axis=1), rtol * scale)


def _families(rng, n, rows=60):
    return {
        "uniform": rng.uniform(-1.0, 1.0, (rows, n)),
        "wide": rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3, 3, (rows, 1)),
        "positive": rng.uniform(0.05, 2.0, (rows, n)),
        "clustered": 0.5 + 1e-3 * rng.standard_normal((rows, n)),
        "round-sphere": 0.5 + 1e-9 * rng.standard_normal((rows, n)),
        "proportional": np.outer(rng.uniform(-3.0, 3.0, rows), np.ones(n)),
        "tiny": 1e-9 * rng.standard_normal((rows, n)),
    }


@pytest.fixture
def fallback_rows(monkeypatch):
    """Counts the rows ``gamma_margin`` hands to its bisection fallback."""
    seen = []

    def spy(lam, k, lo, hi, tol):
        seen.append(len(lam))
        return _bisect(lam, k, lo, hi, tol)

    monkeypatch.setattr(_kernels, "_bisect_margin", spy)
    return seen


def test_margin_matches_bisection_oracle_every_n_k(rng, fallback_rows):
    for n in range(1, 11):
        for k in range(1, n + 1):
            for name, lam in _families(rng, n).items():
                want = _oracle(lam, k)
                got = _kernels.gamma_margin(lam, k)
                scale = np.abs(lam).max(axis=1)
                err = np.abs(got - want) / scale
                assert err.max() <= 1e-12, (n, k, name, err.max())
    # the certificate accepted every Laguerre root: the fallback never ran
    assert fallback_rows == []


def test_margin_root_at_repeated_minimum(rng, fallback_rows):
    # with min lam repeated n-k+1 times, sigma_k(lam - min(lam) e) = 0 and the
    # margin is min lam itself
    for n in range(2, 11):
        for k in range(1, n + 1):
            lam = rng.uniform(0.5, 2.0, (20, n))
            lam[:, : n - k + 1] = rng.uniform(-1.0, 0.4, (20, 1))
            got = _kernels.gamma_margin(lam, k)
            tol = 1e-12 * np.abs(lam).max(axis=1)
            assert np.all(np.abs(got - lam.min(axis=1)) <= 0.5 * tol), (n, k)
            assert np.all(np.abs(got - _oracle(lam, k)) <= tol), (n, k)
    assert fallback_rows == []


def test_margin_proportional_rows_exact():
    for n in range(1, 11):
        c = np.array([-2.5, -1e-7, 0.5, 3.0, 1e-200, 1e200])
        lam = np.outer(c, np.ones(n))
        for k in range(1, n + 1):
            assert np.array_equal(_kernels.gamma_margin(lam, k), c), (n, k)


def test_margin_extreme_scales_are_homogeneous():
    lam = np.array([[3.0, 1.0, -0.5, 2.0], [0.2, -1.0, 4.0, 1.5]])
    for k in range(1, 5):
        base = _kernels.gamma_margin(lam, k)
        for s in (2.0 ** -900, 2.0 ** -60, 2.0 ** 60, 2.0 ** 900):
            # power-of-two scaling is exact, so the margin scales exactly
            assert np.array_equal(_kernels.gamma_margin(s * lam, k), s * base), (k, s)


def test_margin_non_finite_rows_are_minus_inf():
    lam = np.array([[1.0, 2.0, 3.0],
                    [np.nan, 1.0, 1.0],
                    [np.inf, 1.0, 1.0],
                    [1.0, -np.inf, 1.0],
                    [0.0, 0.0, 0.0],
                    [-1.0, 2.0, 0.5]])
    for k in (1, 2, 3):
        got = _kernels.gamma_margin(lam, k)
        assert np.all(got[1:4] == -np.inf)
        assert got[4] == 0.0
        finite = lam[[0, 5]]
        assert np.array_equal(got[[0, 5]], _kernels.gamma_margin(finite, k))


@pytest.mark.parametrize("offset", [-1e-3, 1e-3, -10.0, 10.0])
def test_certificate_failure_reaches_fallback(rng, monkeypatch, fallback_rows, offset):
    # a root candidate off by more than the tolerance, on either side, fails
    # the certificate and is bisected on the bracket the certificate left
    root = _kernels._laguerre_root
    monkeypatch.setattr(_kernels, "_laguerre_root",
                        lambda lam, k, tol: root(lam, k, tol) + offset)
    for n, k in [(3, 1), (4, 2), (6, 3), (8, 8)]:
        lam = rng.standard_normal((40, n))
        want = _oracle(lam, k)
        got = _kernels.gamma_margin(lam, k)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(lam).max(axis=1)), (n, k)
    assert sum(fallback_rows) == 4 * 40


def test_margin_uses_few_esym_passes(rng, monkeypatch):
    # 64 x 4 positive rows (the psi-branch shape): two Laguerre steps and one
    # stacked certificate pass, against about 50 passes of a bisection
    calls = []
    esym = _kernels._elementary_symmetric_np

    def counted(lam, kmax):
        calls.append(len(lam))
        return esym(lam, kmax)

    monkeypatch.setattr(_kernels, "_elementary_symmetric_np", counted)
    _kernels.gamma_margin(rng.uniform(0.05, 2.0, (64, 4)), 2)
    assert len(calls) <= 4

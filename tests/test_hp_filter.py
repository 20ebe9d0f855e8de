"""Unit tests for the pentadiagonal HP trend filter."""
import numpy as np
import pytest

from repro.core.hp_filter import (_hp_factor, _ldl_solve, _pentadiagonal_ldl,
                                  hp_filter, hp_lambda_for_cutoff)


def _reference_ldl(d0, d1, d2):
    """The LDLᵀ factor with rows 0 and 1 special-cased, row i at index i."""
    n = d0.size
    d = np.empty(n)
    l1 = np.zeros(max(n - 1, 0))
    l2 = np.zeros(max(n - 2, 0))
    d[0] = d0[0]
    if n > 1:
        l1[0] = d1[0] / d[0]
        if n > 2:
            l2[0] = d2[0] / d[0]
        d[1] = d0[1] - l1[0] ** 2 * d[0]
        if n > 2:
            l1[1] = (d1[1] - l2[0] * l1[0] * d[0]) / d[1]
            if n > 3:
                l2[1] = d2[1] / d[1]
    for i in range(2, n):
        d[i] = d0[i] - l1[i - 1] ** 2 * d[i - 1] - l2[i - 2] ** 2 * d[i - 2]
        if i < n - 1:
            l1[i] = (d1[i] - l2[i - 1] * l1[i - 1] * d[i - 1]) / d[i]
        if i < n - 2:
            l2[i] = d2[i] / d[i]
    return d, l1, l2


def _reference_solve(factor, y):
    """``_ldl_solve`` with the first and last two rows special-cased."""
    d, l1, l2 = factor
    n = d.size
    z = np.empty(n)
    z[0] = y[0]
    if n > 1:
        z[1] = y[1] - l1[0] * z[0]
    for i in range(2, n):
        z[i] = y[i] - l1[i - 1] * z[i - 1] - l2[i - 2] * z[i - 2]
    z /= d
    x = np.empty(n)
    x[n - 1] = z[n - 1]
    if n > 1:
        x[n - 2] = z[n - 2] - l1[n - 2] * x[n - 1]
    for i in range(n - 3, -1, -1):
        x[i] = z[i] - l1[i] * x[i + 1] - l2[i] * x[i + 2]
    return x


def _hp_diagonals(n, lamb):
    """Diagonals of ``I + 2λ·DᵀD``."""
    c = 2.0 * lamb
    d0 = np.full(n, 1.0 + 6.0 * c)
    d0[0] = d0[-1] = 1.0 + 1.0 * c
    d0[1] = d0[-2] = 1.0 + 5.0 * c
    d1 = np.full(n - 1, -4.0 * c)
    d1[0] = d1[-1] = -2.0 * c
    return d0, d1, np.full(n - 2, 1.0 * c)


def _dense_hp(y, lamb):
    n = y.size
    D = np.zeros((n - 2, n))
    for i in range(n - 2):
        D[i, i:i + 3] = [1.0, -2.0, 1.0]
    A = np.eye(n) + 2.0 * lamb * D.T @ D
    return np.linalg.solve(A, y)


class TestPentadiagonalSolver:
    @pytest.mark.parametrize("n", [4, 5, 7, 20, 101])
    def test_matches_dense_solver(self, n):
        rng = np.random.default_rng(n)
        y = rng.normal(0, 1, n)
        lamb = 10.0
        np.testing.assert_allclose(_ldl_solve(_hp_factor(n, lamb), y),
                                   _dense_hp(y, lamb), rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 500, 2001, 7200])
    def test_bit_identical_to_special_cased_reference(self, n):
        rng = np.random.default_rng(n)
        lamb = hp_lambda_for_cutoff(n / 2.0)
        factor = _pentadiagonal_ldl(*_hp_diagonals(n, lamb))
        ref = _reference_ldl(*_hp_diagonals(n, lamb))
        d, l1, l2 = factor
        for got, want in ((d[2:], ref[0]), (l1[2:n + 1], ref[1]),
                          (l2[2:n], ref[2])):
            np.testing.assert_array_equal(got, want)
        sentinels = np.concatenate([d[:2], l1[:2], l1[n + 1:], l2[:2],
                                    l2[n:]])
        np.testing.assert_array_equal(sentinels, 0.0)
        y = rng.normal(0, 1, n)
        np.testing.assert_array_equal(_ldl_solve(factor, y),
                                      _reference_solve(ref, y))
        np.testing.assert_array_equal(hp_filter(y), _reference_solve(ref, y))

    def test_identity_system(self):
        # d1=d2=0 → A=diag(d0); solve is y/d0.
        y = np.array([2.0, 4.0, 6.0, 8.0])
        x = _ldl_solve(_pentadiagonal_ldl(np.full(4, 2.0), np.zeros(3),
                                          np.zeros(2)), y)
        np.testing.assert_allclose(x, y / 2.0)

    def test_random_spd_system(self):
        rng = np.random.default_rng(9)
        n = 50
        d0 = np.full(n, 10.0) + rng.random(n)
        d1 = rng.random(n - 1)
        d2 = rng.random(n - 2)
        A = np.diag(d0) + np.diag(d1, 1) + np.diag(d1, -1) \
            + np.diag(d2, 2) + np.diag(d2, -2)
        y = rng.normal(0, 1, n)
        x = _ldl_solve(_pentadiagonal_ldl(d0, d1, d2), y)
        np.testing.assert_allclose(x, np.linalg.solve(A, y), rtol=1e-9)


class TestHPFilter:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 500, 1000, 2001])
    def test_cached_factor_bit_identical(self, n):
        rng = np.random.default_rng(n)
        lamb = hp_lambda_for_cutoff(n / 2.0)
        uncached = _hp_factor.__wrapped__(n, lamb)
        for _ in range(2):          # first call fills the cache, then hits it
            y = rng.normal(0, 1, n)
            np.testing.assert_array_equal(hp_filter(y),
                                          _ldl_solve(uncached, y))
        with pytest.raises(ValueError):
            _hp_factor(n, lamb)[0][0] = 0.0

    def test_linear_trend_in_nullspace(self):
        # Second differences of a line are 0 → the line is untouched
        # (up to the identity part): τ̂ of a pure line IS the line.
        t = np.arange(200, dtype=float)
        y = 3.0 + 0.5 * t
        np.testing.assert_allclose(_ldl_solve(_hp_factor(200, 1e6), y), y,
                                   rtol=1e-6)

    def test_removes_slow_trend_keeps_fast_sinusoid(self):
        t = np.arange(1000)
        trend = 10 * np.abs(2 * t / 999 - 1)
        season = np.sin(2 * np.pi * t / 50)
        tau = hp_filter(trend + season)
        resid = (trend + season) - tau
        # Trend mostly gone, seasonal mostly kept.
        assert np.abs(resid - season).std() < 0.3 * season.std()

    def test_lambda_zero_returns_input(self):
        y = np.random.default_rng(1).normal(0, 1, 64)
        np.testing.assert_allclose(_ldl_solve(_hp_factor(64, 0.0), y), y,
                                   atol=1e-12)

    def test_large_lambda_approaches_line(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 300)
        tau = _ldl_solve(_hp_factor(300, 1e12), y)
        # Second difference of the limit is ~0 (a straight line).
        assert np.max(np.abs(np.diff(tau, 2))) < 1e-6

    def test_short_series_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(hp_filter(y), np.full(3, 2.0))

    def test_empty(self):
        assert hp_filter(np.array([])).size == 0

    def test_preserves_mean(self):
        rng = np.random.default_rng(3)
        y = rng.normal(5, 1, 500)
        assert hp_filter(y).mean() == pytest.approx(y.mean(), abs=0.05)


class TestLambdaCutoff:
    def test_monotone_in_cutoff(self):
        assert hp_lambda_for_cutoff(100) < hp_lambda_for_cutoff(200) \
            < hp_lambda_for_cutoff(400)

    def test_trivial_cutoff_zero(self):
        assert hp_lambda_for_cutoff(2) == 0.0

    def test_half_power_at_cutoff(self):
        # Smoother gain 1/(1+8λ(1−cos ω_c)²) must be 1/2 at the cutoff.
        p_c = 64.0
        lam = hp_lambda_for_cutoff(p_c)
        w = 2 * np.pi / p_c
        gain = 1.0 / (1.0 + 8.0 * lam * (1 - np.cos(w)) ** 2)
        assert gain == pytest.approx(0.5, rel=1e-6)

    def test_half_power_empirical(self):
        # Feed a pure sinusoid at the cutoff period: the trend estimate
        # should carry about half its amplitude.
        n, p_c = 4096, 64.0
        lam = hp_lambda_for_cutoff(p_c)
        t = np.arange(n)
        y = np.sin(2 * np.pi * t / p_c)
        tau = _ldl_solve(_hp_factor(n, lam), y)
        core = slice(500, n - 500)  # avoid boundary effects
        amp = np.max(np.abs(tau[core]))
        assert amp == pytest.approx(0.5, abs=0.05)

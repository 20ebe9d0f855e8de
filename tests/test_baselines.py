"""Tests for the six baseline algorithms.

Each baseline is checked on data it should handle (clean/lightly noisy)
and, where the paper documents a characteristic failure mode, that the
failure mode is present (e.g. findFrequency breaking under outliers —
§4.2.1 attributes its 0 precision to the AR fit).
"""
import numpy as np
import pytest

from repro.baselines import (autoperiod, find_frequency, sazed, siegel,
                             wavelet_fisher)
from repro.baselines.find_frequency import N_FREQ, ar_spectrum
from repro.datasets import synthetic_series


def _sin(n, T, amp=1.0):
    return amp * np.sin(2 * np.pi * np.arange(n) / T)


def _near(found, T, tol=0.05):
    return any(abs(f - T) <= max(1, tol * T) for f in found)


def _reference_ar_order(x):
    """AIC-best (coefficients, variance) with the Levinson–Durbin recursion
    re-run from order 0 for every candidate order."""
    n = x.size
    max_order = int(min(n - 1, 10 * np.log10(n)))
    acov = find_frequency._autocovariance(x, max_order)
    best = (np.inf, None, None)
    for p in range(max_order + 1):
        a = np.zeros(p + 1)
        a[0] = 1.0
        e = acov[0]
        for k in range(1, p + 1):
            if e <= 0:
                break
            lam = -(acov[1:k + 1][::-1] @ a[:k]) / e
            a[1:k + 1] = a[1:k + 1] + lam * a[:k][::-1]
            e *= (1.0 - lam**2)
        aic = n * np.log(max(e, 1e-12)) + 2 * (p + 1)
        if aic < best[0]:
            best = (aic, a, max(e, 1e-12))
    return best[1:]


class TestFindFrequency:
    @pytest.mark.parametrize("T", [10, 25, 40])
    def test_clean_sinusoid(self, T):
        y = _sin(600, T)
        assert find_frequency.find_frequency(y) == pytest.approx(T, abs=1)

    def test_light_noise(self):
        rng = np.random.default_rng(0)
        y = _sin(600, 40) + rng.normal(0, 0.2, 600)
        assert find_frequency.find_frequency(y) == pytest.approx(40, abs=2)

    def test_white_noise_returns_one(self):
        rng = np.random.default_rng(1)
        hits = sum(find_frequency.find_frequency(rng.normal(0, 1, 400)) > 1
                   for _ in range(10))
        assert hits <= 4

    def test_breaks_under_outliers(self):
        # The paper's documented failure mode (Table 1: precision 0).
        wrong = 0
        for seed in range(8):
            y = synthetic_series(periods=(100,), noise_var=0.1,
                                 outlier_ratio=0.01, seed=seed)
            p = find_frequency.find_frequency(y)
            wrong += not (98 <= p <= 102)
        assert wrong >= 5

    def test_detect_interface(self):
        assert find_frequency.detect(_sin(600, 30)) == [30]

    def test_ar_spectrum_shapes(self):
        f, d = ar_spectrum(_sin(256, 16))
        assert f.shape == (N_FREQ,) and d.shape == (N_FREQ,)
        assert np.all(d >= 0)

    @pytest.mark.parametrize("n", [8, 40, 600])
    def test_ar_spectrum_matches_per_order_reference(self, n):
        rng = np.random.default_rng(n)
        for y in (_sin(n, 5) + rng.normal(0, 0.5, n), rng.normal(0, 1, n),
                  np.cumsum(rng.normal(0, 1, n))):
            x = find_frequency.detrend_normalize(y)
            a, e = _reference_ar_order(x)
            f, d = ar_spectrum(x)
            z = np.exp(-2j * np.pi * np.outer(f, np.arange(a.size)))
            np.testing.assert_array_equal(
                d, e / np.maximum(np.abs(z @ a) ** 2, 1e-12))

    def test_ar_spectrum_peak_location(self):
        f, d = ar_spectrum(_sin(512, 32))
        assert 1.0 / f[np.argmax(d)] == pytest.approx(32, rel=0.1)


class TestSAZED:
    @pytest.mark.parametrize("T", [12, 24, 40])
    def test_maj_clean(self, T):
        assert sazed.sazed_maj(_sin(480, T)) == pytest.approx(T, abs=1)

    @pytest.mark.parametrize("T", [12, 24, 40])
    def test_opt_clean(self, T):
        assert sazed.sazed_opt(_sin(480, T)) == pytest.approx(T, abs=1)

    def test_opt_light_noise(self):
        rng = np.random.default_rng(2)
        y = _sin(480, 40) + rng.normal(0, 0.3, 480)
        assert sazed.sazed_opt(y) == pytest.approx(40, abs=2)

    def test_opt_beats_maj_under_contamination(self):
        # Aggregate comparison matching the paper's SAZED_opt > SAZED_maj.
        ok_opt = ok_maj = 0
        for seed in range(10):
            y = synthetic_series(periods=(100,), noise_var=0.1,
                                 outlier_ratio=0.01, seed=seed)
            ok_opt += abs(sazed.sazed_opt(y) - 100) <= 2
            ok_maj += abs(sazed.sazed_maj(y) - 100) <= 2
        assert ok_opt >= ok_maj

    def test_components_bounded(self):
        from repro.baselines.sazed import sazed_components
        comps = sazed_components(_sin(480, 40))
        assert all(2 <= c <= 240 for c in comps)

    def test_detect_interfaces(self):
        assert sazed.detect_maj(_sin(480, 24)) == [24]
        assert sazed.detect_opt(_sin(480, 24)) == [24]

    def test_constant_series(self):
        y = np.full(100, 3.0)
        assert sazed.detect_maj(y) == [] and sazed.detect_opt(y) == []

    def test_all_nan_series(self):
        y = np.full(100, np.nan)
        assert sazed.detect_maj(y) == [] and sazed.detect_opt(y) == []


class TestSiegel:
    def test_two_clean_periods(self):
        t = np.arange(1000)
        y = np.sin(2 * np.pi * t / 20) + np.sin(2 * np.pi * t / 100)
        found = siegel.detect(y)
        assert _near(found, 20, 0.02) and _near(found, 100, 0.02)

    def test_emits_extras_on_contaminated_data(self):
        # Siegel's documented behavior: spurious periods alongside true
        # ones (Table 4 rows like "(655, 769, …)").
        y = synthetic_series(periods=(20, 50, 100), noise_var=1.0,
                             outlier_ratio=0.1, seed=3)
        found = siegel.detect(y)
        assert len(found) >= 3

    def test_short_series(self):
        assert siegel.detect(np.ones(8)) == []


class TestAutoperiod:
    def test_single_clean_period(self):
        y = _sin(800, 80) + np.random.default_rng(4).normal(0, 0.1, 800)
        assert _near(autoperiod.detect(y), 80, 0.05)

    def test_deterministic_given_seed(self):
        y = synthetic_series(periods=(50,), seed=5)
        assert autoperiod.detect(y) == autoperiod.detect(y)

    def test_misses_interlaced_middle_period(self):
        # §4.3.2: "AUTOPERIOD cannot detect the period of 50 as the
        # vanilla ACF does not have peak near 50".
        missing_50 = 0
        for seed in range(6):
            y = synthetic_series(periods=(20, 50, 100), noise_var=0.1,
                                 outlier_ratio=0.01, seed=seed)
            found = autoperiod.detect(y)
            missing_50 += not _near(found, 50, 0.05)
        assert missing_50 >= 3

    def test_white_noise_mostly_empty(self):
        rng = np.random.default_rng(6)
        fp = sum(len(autoperiod.detect(rng.normal(0, 1, 400)))
                 for _ in range(5))
        assert fp <= 3

    def test_short_series(self):
        assert autoperiod.detect(np.ones(8)) == []


class TestWaveletFisher:
    def test_single_clean_period(self):
        y = _sin(1024, 64)
        assert _near(wavelet_fisher.detect(y), 64, 0.1)

    def test_multi_period_partial_detection(self):
        y = synthetic_series(periods=(20, 50, 100), noise_var=0.1,
                             outlier_ratio=0.01, seed=7)
        found = wavelet_fisher.detect(y)
        # Finds at least one true period (paper F1 ≈ 0.5–0.75: partial).
        assert any(_near(found, T, 0.1) for T in (20, 50, 100))

    def test_periods_within_range(self):
        y = synthetic_series(periods=(20, 50, 100), seed=8)
        assert all(2 <= p <= 500 for p in wavelet_fisher.detect(y))

    def test_short_series(self):
        assert wavelet_fisher.detect(np.ones(16)) == []

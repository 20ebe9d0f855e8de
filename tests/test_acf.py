"""Unit tests for classic ACF, Huber-ACF (Wiener–Khinchin), peak
detection and Huber-ACF-Med validation."""
import numpy as np
import pytest

from repro.core import acf
from repro.core.acf import (acf_med_period, classic_acf, detect_peaks,
                            huber_acf, resolution_interval)
from repro.core.huber_periodogram import (huber_periodogram,
                                          ordinary_periodogram, zero_pad)


def _sin(n, T, amp=1.0):
    return amp * np.sin(2 * np.pi * np.arange(n) / T)


def _reference_peaks(a):
    """``detect_peaks`` as a per-lag loop."""
    s = a.copy()
    s[1:-1] = (a[:-2] + a[1:-1] + a[2:]) / 3.0
    cand = [t for t in range(acf.PEAK_MIN_LAG, int(a.size * 0.9) - 1)
            if s[t] >= s[t - 1] and s[t] > s[t + 1]]
    if not cand:
        return np.array([], dtype=int)
    thr = max(acf.PEAK_MIN_HEIGHT,
              acf.PEAK_HEIGHT_FRAC * max(s[t] for t in cand))
    return np.array([t for t in cand if s[t] >= thr], dtype=int)


class TestClassicACF:
    def test_lag_zero_is_one(self):
        x = np.random.default_rng(0).normal(0, 1, 200)
        assert classic_acf(x)[0] == pytest.approx(1.0)

    def test_periodic_peak_at_period(self):
        a = classic_acf(_sin(400, 40))
        assert a[40] == pytest.approx(1.0, abs=0.05)

    def test_white_noise_small_at_lags(self):
        a = classic_acf(np.random.default_rng(1).normal(0, 1, 2000))
        assert np.max(np.abs(a[1:1000])) < 0.2

    def test_biased_smaller_than_unbiased(self):
        x = _sin(300, 30)
        ab = classic_acf(x, unbiased=False)
        au = classic_acf(x, unbiased=True)
        assert abs(ab[150]) <= abs(au[150]) + 1e-12

    def test_constant_series(self):
        np.testing.assert_allclose(classic_acf(np.full(64, 3.0)), 0.0)


class TestWienerKhinchin:
    def test_matches_direct_autocovariance(self):
        # Wiener–Khinchin on the zero-padded series: huber_acf of the
        # ordinary periodogram = the unbiased linear autocorrelation.
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, 64)
        n = w.size
        a = huber_acf(ordinary_periodogram(zero_pad(w)))
        direct = np.array([n * np.dot(w[:n - t], w[t:])
                           / ((n - t) * np.dot(w, w)) for t in range(n)])
        np.testing.assert_allclose(a, direct, atol=1e-10)

    def test_huber_acf_lag0_is_one(self):
        w = _sin(128, 16)
        P = huber_periodogram(w)
        a = huber_acf(P)
        assert a[0] == pytest.approx(1.0)

    def test_huber_acf_matches_classic_on_clean_data(self):
        w = _sin(256, 32) + np.random.default_rng(3).normal(0, 0.05, 256)
        P = huber_periodogram(w)
        ah = huber_acf(P)
        ac = classic_acf(w)
        np.testing.assert_allclose(ah[:128], ac[:128], atol=0.12)

    def test_huber_acf_peak_at_period(self):
        w = _sin(300, 50)
        P = huber_periodogram(w)
        a = huber_acf(P)
        assert int(np.argmax(a[30:80])) + 30 == pytest.approx(50, abs=1)

    def test_huber_acf_robust_to_outliers(self):
        w = _sin(300, 50)
        wc = w.copy()
        rng = np.random.default_rng(4)
        idx = rng.choice(300, 15, replace=False)
        wc[idx] += rng.uniform(5, 15, 15) * rng.choice([-1, 1], 15)
        P = huber_periodogram(wc)
        ah = huber_acf(P)
        ac = classic_acf(w)
        # Huber-ACF of the contaminated series stays close to the clean ACF.
        assert np.corrcoef(ah[:150], ac[:150])[0, 1] > 0.9


class TestPeakDetection:
    def test_finds_periodic_peaks(self):
        a = classic_acf(_sin(400, 40))
        peaks = detect_peaks(a)
        diffs = np.diff(peaks)
        assert np.median(diffs) == pytest.approx(40, abs=1)

    def test_empty_on_short_input(self):
        assert detect_peaks(np.zeros(4)).size == 0

    def test_threshold_filters_low_peaks(self):
        a = np.zeros(100)
        a[20] = 1.0
        a[60] = 0.05  # below min_height
        peaks = detect_peaks(a)
        # (smoothing may shift an isolated spike by one lag)
        assert 60 not in peaks and any(p in (19, 20, 21) for p in peaks)

    def test_flat_signal_no_peaks(self):
        assert detect_peaks(np.ones(100)).size == 0

    @pytest.mark.parametrize("n", [0, 3, 5, 6, 64, 1000])
    def test_matches_loop_reference(self, n):
        rng = np.random.default_rng(n)
        decay = np.exp(-np.arange(n) / 300)
        # Integer steps make ties between neighbours (the ``≥`` side).
        for a in (_sin(n, 7) * decay + rng.normal(0, 0.1, n),
                  rng.integers(0, 3, n).astype(float), np.zeros(n)):
            peaks = detect_peaks(a)
            ref = _reference_peaks(a)
            assert peaks.dtype == ref.dtype
            np.testing.assert_array_equal(peaks, ref)


class TestResolutionInterval:
    def test_contains_candidate(self):
        for k in (2, 10, 40):
            lo, hi = resolution_interval(k, 2000)
            assert lo < 2000 / k < hi

    def test_k1_upper_bound(self):
        lo, hi = resolution_interval(1, 2000)
        assert hi == 2000


class TestAcfMedPeriod:
    def test_validates_correct_candidate(self):
        n, T = 400, 40
        w = _sin(n, T)
        P = huber_periodogram(w)
        k_star = 2 * n // T
        a = huber_acf(P)
        assert acf_med_period(a, k_star) == pytest.approx(T, abs=1)

    def test_rejects_wrong_candidate(self):
        n, T = 400, 40
        w = _sin(n, T)
        P = huber_periodogram(w)
        a = huber_acf(P)
        # Claim the period is ~100 (k=8): ACF says 40 → rejected.
        assert acf_med_period(a, 8) == 0

    def test_no_peaks_returns_zero(self):
        assert acf_med_period(np.zeros(100), 10) == 0

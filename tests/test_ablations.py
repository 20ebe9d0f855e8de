"""Tests for the Table 5 ablation variants."""
import numpy as np

from repro.core.ablations import (huber_fisher, huber_siegel_acf,
                                  nr_robust_period)
from repro.core.acf import acf_hill_valid, classic_acf
from repro.datasets import synthetic_series


def _sin(n, T):
    return np.sin(2 * np.pi * np.arange(n) / T)


class TestAcfHillValid:
    def test_valid_on_true_period(self):
        n, T = 400, 40
        a = classic_acf(_sin(n, T))
        ok, refined = acf_hill_valid(a, 2 * n // T)
        assert ok and abs(refined - T) <= 1

    def test_invalid_on_wrong_candidate(self):
        n, T = 400, 40
        a = classic_acf(_sin(n, T))
        # Claim period ≈ 57 (k=14): no hill there.
        ok, _ = acf_hill_valid(a, 14)
        assert not ok

    def test_degenerate_interval(self):
        ok, refined = acf_hill_valid(np.zeros(50), 40)
        assert not ok and refined == 0


class TestHuberFisher:
    def test_single_period_clean(self):
        assert huber_fisher(_sin(600, 50) * 2) == [50]

    def test_multi_period_returns_at_most_one(self):
        y = synthetic_series(periods=(20, 50, 100), seed=1)
        assert len(huber_fisher(y)) <= 1

    def test_white_noise_usually_empty(self):
        rng = np.random.default_rng(0)
        fp = sum(len(huber_fisher(rng.normal(0, 1, 400))) for _ in range(5))
        assert fp <= 2

    def test_short_series_empty(self):
        assert huber_fisher(np.ones(10)) == []


class TestHuberSiegelACF:
    def test_detects_dominant_period(self):
        y = synthetic_series(periods=(20, 100), seed=2)
        found = huber_siegel_acf(y)
        assert any(abs(p - 100) <= 2 or abs(p - 20) <= 1 for p in found)

    def test_short_series_empty(self):
        assert huber_siegel_acf(np.ones(10)) == []


class TestNRRobustPeriod:
    def test_clean_multi_period(self):
        y = synthetic_series(periods=(20, 50, 100), noise_var=0.1,
                             outlier_ratio=0.0, seed=3)
        found = nr_robust_period(y)
        for T in (20, 50, 100):
            assert any(abs(f - T) <= max(1, 0.02 * T) for f in found)

    def test_degrades_under_outliers_relative_to_robust(self):
        # Aggregate over seeds: the robust pipeline should recall at least
        # as many true periods as the non-robust one under severe
        # contamination (the Table 5 claim).
        from repro.core.robust_period import detect
        def recall(fn):
            tp = 0
            for seed in range(6):
                y = synthetic_series(periods=(20, 50, 100), noise_var=2.0,
                                     outlier_ratio=0.2, seed=100 + seed)
                found = fn(y)
                tp += sum(any(abs(f - T) <= max(1, 0.02 * T) for f in found)
                          for T in (20, 50, 100))
            return tp
        assert recall(detect) >= recall(nr_robust_period)

"""Unit tests for Fisher's g-test and Siegel's extension."""
import numpy as np
import pytest

from repro.core import fisher
from repro.core.fisher import (fisher_g_critical, fisher_g_statistic,
                               fisher_pvalue, fisher_test, siegel_candidates)
from repro.core.huber_periodogram import ordinary_periodogram


class TestGStatistic:
    def test_uniform_spectrum(self):
        g, k = fisher_g_statistic(np.ones(10))
        assert g == pytest.approx(0.1)

    def test_single_spike(self):
        P = np.zeros(10)
        P[3] = 5.0
        g, k = fisher_g_statistic(P)
        assert g == 1.0 and k == 3

    def test_zero_spectrum(self):
        g, k = fisher_g_statistic(np.zeros(5))
        assert g == 0.0


class TestPValue:
    def test_bounds(self):
        assert fisher_pvalue(0.5, 100) <= 1.0
        assert fisher_pvalue(0.5, 100) >= 0.0

    def test_monotone_decreasing_in_g(self):
        ps = [fisher_pvalue(g, 50) for g in (0.1, 0.2, 0.4, 0.8)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_small_g_insignificant(self):
        assert fisher_pvalue(0.011, 100) > 0.5

    def test_large_g_significant(self):
        assert fisher_pvalue(0.5, 100) < 1e-10

    def test_exact_first_term_regime(self):
        # Single-term regime (g > 1/2): p = M(1−g)^{M−1} exactly.
        m, g = 20, 0.6
        assert fisher_pvalue(g, m) == pytest.approx(m * (1 - g) ** (m - 1),
                                                    rel=1e-9)

    def test_matches_monte_carlo_null(self):
        # Under white noise, P(g ≥ g0) from simulation ≈ analytic.
        rng = np.random.default_rng(0)
        m_trials, n = 400, 128
        g0 = 0.08
        count = 0
        for _ in range(m_trials):
            x = rng.normal(0, 1, n)
            P = ordinary_periodogram(x)[1:n // 2]
            g, _ = fisher_g_statistic(P)
            count += g >= g0
        emp = count / m_trials
        ana = fisher_pvalue(g0, n // 2 - 1)
        assert emp == pytest.approx(ana, abs=0.07)

    def test_edge_cases(self):
        assert fisher_pvalue(0.0, 100) == 1.0
        assert fisher_pvalue(1.0, 100) == 0.0
        assert fisher_pvalue(0.5, 1) == 1.0


class TestCriticalValue:
    @pytest.mark.parametrize("alpha,m", [(0.05, 50), (0.01, 100), (0.01, 500)])
    def test_roundtrip(self, alpha, m):
        g = fisher_g_critical(alpha, m)
        assert fisher_pvalue(g, m) == pytest.approx(alpha, rel=0.02)

    @pytest.mark.parametrize("alpha,m", [(0.01, 499), (0.01, 999), (0.05, 50)])
    def test_cached_equals_fresh_bisection(self, alpha, m):
        fresh = fisher_g_critical.__wrapped__(alpha, m)
        assert fisher_g_critical(alpha, m) == fresh
        assert fisher_g_critical(alpha, m) == fresh   # served from the cache

    def test_stricter_alpha_larger_critical(self):
        assert fisher_g_critical(0.01, 100) > fisher_g_critical(0.05, 100)


class TestFisherTest:
    def test_detects_sinusoid(self):
        x = np.sin(2 * np.pi * np.arange(256) / 16)
        P = ordinary_periodogram(x)
        sig, k, p = fisher_test(P)
        assert sig and k == 16 and p < 1e-10

    def test_white_noise_mostly_insignificant(self):
        rng = np.random.default_rng(1)
        hits = sum(fisher_test(ordinary_periodogram(rng.normal(0, 1, 256)))[0]
                   for _ in range(100))
        assert hits <= 5

    def test_short_input(self):
        assert fisher_test(np.array([1.0, 2.0]))[0] is False


class TestSiegel:
    def test_finds_two_periods(self):
        t = np.arange(512)
        x = np.sin(2 * np.pi * t / 16) + np.sin(2 * np.pi * t / 64)
        P = ordinary_periodogram(x)
        ks = siegel_candidates(P)
        assert 32 in ks and 8 in ks

    def test_white_noise_rarely_fires(self):
        rng = np.random.default_rng(2)
        # λ=0.6 deliberately under-thresholds (that is Siegel's tradeoff:
        # recall on compound periods at the cost of some false alarms), so
        # allow up to ~0.5 spurious ordinates per white-noise series.
        n_extra = sum(len(siegel_candidates(
            ordinary_periodogram(rng.normal(0, 1, 256)))) for _ in range(50))
        assert n_extra <= 25

    def test_contiguous_cluster_collapses(self, monkeypatch):
        monkeypatch.setattr(fisher, "ALPHA", 0.05)
        P = np.zeros(100)
        P[30:33] = [5.0, 9.0, 5.0]  # one spectral peak spread over 3 bins
        ks = siegel_candidates(P)
        assert ks == [31]

    def test_zero_spectrum(self):
        assert siegel_candidates(np.zeros(64)) == []

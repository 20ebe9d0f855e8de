"""Micro-benchmarks of the algorithmic kernels (no Spark).

The per-series `detect` timings at lengths 500/1000/2000 are the direct
analogue of the paper's Table 7 single-core numbers (MacBook i5: 0.142 /
0.146 / 0.300 s for RobustPeriod).
"""
import numpy as np
import pytest

from repro.baselines import autoperiod, siegel, wavelet_fisher
from repro.core.hp_filter import hp_filter
from repro.core.huber_periodogram import huber_periodogram, zero_pad
from repro.core.robust_period import detect
from repro.core.wavelets import modwt
from repro.datasets import synthetic_series


def _series(n):
    scale = n / 1000.0
    periods = tuple(max(4, int(round(p * scale))) for p in (20, 50, 100))
    return synthetic_series(periods=periods, n=n, noise_var=0.1,
                            outlier_ratio=0.01, seed=42)


@pytest.mark.benchmark(group="kernel")
def test_bench_hp_filter(benchmark):
    y = _series(2000)
    benchmark(hp_filter, y)


@pytest.mark.benchmark(group="kernel")
def test_bench_modwt(benchmark):
    y = _series(2000)
    benchmark(modwt, y, "db10", 8)


@pytest.mark.benchmark(group="kernel")
def test_bench_huber_periodogram(benchmark):
    y = _series(1000)
    xp = zero_pad(y - y.mean())
    benchmark(huber_periodogram, xp, exact_band=(20, 60), n_data=1000)


@pytest.mark.benchmark(group="kernel")
def test_bench_huber_periodogram_level1(benchmark):
    # White noise selects wavelet level 1, whose band is half the spectrum:
    # the worst case of the exact robust solve (K ≈ N/2 bins).
    xp = zero_pad(np.random.default_rng(42).normal(0, 1, 1000))
    benchmark(huber_periodogram, xp, exact_band=(500, 999), n_data=1000)


@pytest.mark.parametrize("n", [500, 1000, 2000])
@pytest.mark.benchmark(group="detect-robust_period")
def test_bench_detect_robust_period(benchmark, n):
    y = _series(n)
    benchmark.pedantic(detect, args=(y,), rounds=3, iterations=1)


@pytest.mark.parametrize("n", [500, 1000, 2000])
@pytest.mark.benchmark(group="detect-siegel")
def test_bench_detect_siegel(benchmark, n):
    y = _series(n)
    benchmark.pedantic(siegel.detect, args=(y,), rounds=3, iterations=1)


@pytest.mark.parametrize("n", [500, 1000, 2000])
@pytest.mark.benchmark(group="detect-autoperiod")
def test_bench_detect_autoperiod(benchmark, n):
    y = _series(n)
    benchmark.pedantic(autoperiod.detect, args=(y,), rounds=3, iterations=1)


@pytest.mark.parametrize("n", [500, 1000, 2000])
@pytest.mark.benchmark(group="detect-wavelet_fisher")
def test_bench_detect_wavelet_fisher(benchmark, n):
    y = _series(n)
    benchmark.pedantic(wavelet_fisher.detect, args=(y,), rounds=3,
                       iterations=1)

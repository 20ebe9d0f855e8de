"""Pinned outputs: every registered algorithm on six short fixed-seed series.

The expected lists are what the code returned when they were captured, not
ground truth: several miss or add periods.  A refactor that claims
unchanged behaviour must leave every list as it is; a change that moves
one must say why and update it here.
"""
import numpy as np
import pytest

from repro.datasets import synthetic_series
from repro.sparkrun.detect import ALGOS


def _series() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2021)
    t = np.arange(600)
    cloud = 50 + 8 * np.sin(2 * np.pi * t / 48) + 0.02 * t \
        + rng.normal(0, 1.0, 600)
    cloud[rng.choice(600, 6, replace=False)] += 40.0
    cloud[200:230] = np.nan
    shift = rng.normal(0, 1.0, 500)
    shift[230:] += 4.0
    return {
        "sine": synthetic_series(periods=(20, 50, 100), n=600, seed=7),
        "sine_single": 3 * np.sin(2 * np.pi * np.arange(400) / 25),
        "square": synthetic_series(kind="square", periods=(20, 50), n=500,
                                   seed=8),
        "cloud_nan": cloud,
        "white_noise": rng.normal(0, 1.0, 400),
        "level_shift": shift,
    }


EXPECTED = {
    "sine": {
        "robust_period": [20, 50, 100], "find_frequency": [67],
        "sazed_maj": [20], "sazed_opt": [20], "siegel": [20, 50, 100],
        "autoperiod": [18, 99], "wavelet_fisher": [20, 82, 96],
        "huber_fisher": [20], "huber_siegel_acf": [19, 100],
        "nr_robust_period": [20, 50, 100]},
    "sine_single": {
        "robust_period": [25], "find_frequency": [25], "sazed_maj": [25],
        "sazed_opt": [25], "siegel": [23, 25, 28], "autoperiod": [25],
        "wavelet_fisher": [26, 43], "huber_fisher": [25],
        "huber_siegel_acf": [25], "nr_robust_period": [25]},
    "square": {
        "robust_period": [7, 20, 50], "find_frequency": [19],
        "sazed_maj": [20], "sazed_opt": [100], "siegel": [7, 20, 50],
        "autoperiod": [20], "wavelet_fisher": [4, 10, 20, 80],
        "huber_fisher": [20], "huber_siegel_acf": [20],
        "nr_robust_period": [7, 20, 50]},
    "cloud_nan": {
        "robust_period": [], "find_frequency": [48], "sazed_maj": [2],
        "sazed_opt": [50], "siegel": [43, 48, 55], "autoperiod": [48],
        "wavelet_fisher": [48, 96, 192], "huber_fisher": [48],
        "huber_siegel_acf": [48], "nr_robust_period": []},
    "white_noise": {
        "robust_period": [], "find_frequency": [2], "sazed_maj": [2],
        "sazed_opt": [118], "siegel": [2, 3], "autoperiod": [],
        "wavelet_fisher": [], "huber_fisher": [], "huber_siegel_acf": [],
        "nr_robust_period": []},
    "level_shift": {
        "robust_period": [111], "find_frequency": [2], "sazed_maj": [2],
        "sazed_opt": [167], "siegel": [143], "autoperiod": [],
        "wavelet_fisher": [], "huber_fisher": [143],
        "huber_siegel_acf": [9], "nr_robust_period": [119]},
}

SERIES = _series()


def test_every_algorithm_is_pinned():
    assert all(set(v) == set(ALGOS) for v in EXPECTED.values())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pinned(name):
    y = SERIES[name]
    got = {a: sorted(int(p) for p in fn(y.copy())) for a, fn in ALGOS.items()}
    assert got == EXPECTED[name]

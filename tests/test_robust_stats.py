"""Unit tests for robust location/scale/variance estimators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.robust_stats import (MAD_TO_SIGMA, biweight_midvariance,
                                     huber_weights, mad, median, psi_clip,
                                     robust_scale)


class TestMedianMad:
    def test_median_odd(self):
        assert median(np.array([3.0, 1.0, 2.0])) == 2.0

    def test_median_even(self):
        assert median(np.array([1.0, 2.0, 3.0, 4.0])) == 2.5

    def test_median_ignores_nan(self):
        assert median(np.array([1.0, np.nan, 3.0])) == 2.0

    def test_mad_symmetric(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert mad(x) == 1.0

    def test_mad_with_center(self):
        x = np.array([0.0, 1.0, 2.0])
        assert mad(x, center=0.0) == 1.0

    def test_mad_constant_is_zero(self):
        assert mad(np.full(10, 3.0)) == 0.0

    def test_mad_robust_to_outlier(self):
        x = np.concatenate([np.arange(100.0), [1e9]])
        assert mad(x) < 100

    def test_robust_scale_gaussian_consistent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 2.0, 200_000)
        assert robust_scale(x) == pytest.approx(2.0, rel=0.02)

    def test_robust_scale_falls_back_on_degenerate_mad(self):
        # >50% identical values: MAD = 0, std fallback.
        x = np.array([0.0] * 60 + [1.0] * 40)
        assert robust_scale(x) == pytest.approx(np.std(x))

    def test_mad_to_sigma_constant(self):
        assert MAD_TO_SIGMA == pytest.approx(1.4826)


class TestBiweightMidvariance:
    def test_gaussian_close_to_variance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 3.0, 100_000)
        assert biweight_midvariance(x) == pytest.approx(9.0, rel=0.05)

    def test_robust_to_outliers(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1.0, 10_000)
        xc = x.copy()
        xc[:100] += 1000.0
        assert biweight_midvariance(xc) == pytest.approx(
            biweight_midvariance(x), rel=0.15)
        # while the classical variance explodes
        assert np.var(xc) > 100 * biweight_midvariance(xc)

    def test_constant_series_zero(self):
        assert biweight_midvariance(np.full(50, 7.0)) == 0.0

    def test_empty(self):
        assert biweight_midvariance(np.array([])) == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1.0, 5000)
        assert biweight_midvariance(5 * x) == pytest.approx(
            25 * biweight_midvariance(x), rel=1e-6)

    def test_location_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1.0, 5000)
        assert biweight_midvariance(x + 100) == pytest.approx(
            biweight_midvariance(x), rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_mad_does_not_warn(self):
        # MAD = 5e-324, so d / (c·MAD) overflows for the large entries;
        # they lie beyond c MADs and get zero weight.
        x = np.array([0, 0, 0, 5e-324, 5e-324, 1e6, 1])
        v = biweight_midvariance(x)
        assert np.isfinite(v) and v >= 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_always_nonnegative_finite(self, xs):
        v = biweight_midvariance(np.array(xs))
        assert np.isfinite(v) and v >= 0.0


class TestHuberWeights:
    def test_inside_threshold_unit(self):
        r = np.array([-1.0, 0.0, 0.5, 1.3])
        assert np.all(huber_weights(r, 1.345) == 1.0)

    def test_outside_threshold_shrinks(self):
        w = huber_weights(np.array([10.0]), 1.345)
        assert w[0] == pytest.approx(0.1345)

    def test_zero_residual_safe(self):
        assert huber_weights(np.array([0.0]), 1.0)[0] == 1.0

    def test_weights_bounded(self):
        rng = np.random.default_rng(5)
        w = huber_weights(rng.normal(0, 100, 1000), 1.345)
        assert np.all((0 < w) & (w <= 1.0))

    def test_nonfinite_and_in_place(self):
        # NaN → 1, ±inf → 0, |r| = ζ → exactly 1; ``out=r`` overwrites r.
        r = np.array([np.nan, np.inf, -np.inf, 0.0, 1.345, -2.69])
        w = huber_weights(r, 1.345, out=r)
        assert w is r
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0, 1.0, 1.0, 0.5])


class TestPsiClip:
    def test_clips_to_c(self):
        x = np.array([-10.0, -1.0, 0.0, 1.0, 10.0])
        np.testing.assert_allclose(psi_clip(x, 3.0),
                                   [-3.0, -1.0, 0.0, 1.0, 3.0])

    def test_identity_inside(self):
        x = np.linspace(-2.9, 2.9, 11)
        np.testing.assert_allclose(psi_clip(x, 3.0), x)

    @given(st.floats(-1e9, 1e9), st.floats(0.1, 100))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_c(self, v, c):
        assert abs(psi_clip(np.array([v]), c)[0]) <= c

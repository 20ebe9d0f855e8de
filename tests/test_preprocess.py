"""Unit tests for §3.2 preprocessing."""
import numpy as np
import pytest

from repro.core.preprocess import (PSI_CLIP_C, detrend_normalize,
                                   interpolate_missing, preprocess)


class TestInterpolateMissing:
    def test_no_nan_passthrough(self):
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(interpolate_missing(y), y)

    def test_interior_nan_linear(self):
        y = np.array([0.0, np.nan, 2.0])
        np.testing.assert_allclose(interpolate_missing(y), [0.0, 1.0, 2.0])

    def test_block_nan(self):
        y = np.array([0.0, np.nan, np.nan, np.nan, 4.0])
        np.testing.assert_allclose(interpolate_missing(y),
                                   [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_edge_nan_nearest(self):
        y = np.array([np.nan, 1.0, 2.0, np.nan])
        np.testing.assert_allclose(interpolate_missing(y),
                                   [1.0, 1.0, 2.0, 2.0])

    def test_all_nan_zeros(self):
        np.testing.assert_allclose(interpolate_missing(np.full(4, np.nan)),
                                   np.zeros(4))

    def test_does_not_mutate_input(self):
        y = np.array([1.0, np.nan, 3.0])
        interpolate_missing(y)
        assert np.isnan(y[1])


class TestPreprocess:
    def test_output_bounded_by_c(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, 500)
        y[10] = 1e6
        out = preprocess(y)
        assert np.max(np.abs(out)) <= PSI_CLIP_C == 3.0

    def test_removes_trend(self):
        t = np.arange(1000)
        y = 100 + 0.5 * t + np.sin(2 * np.pi * t / 50)
        out = preprocess(y)
        # After detrend + normalization, no drift: halves have equal medians.
        assert abs(np.median(out[:500]) - np.median(out[500:])) < 0.5

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        y = np.sin(2 * np.pi * np.arange(400) / 40) + rng.normal(0, 0.2, 400)
        np.testing.assert_allclose(preprocess(y), preprocess(1000 * y),
                                   atol=1e-8)

    def test_offset_invariance(self):
        rng = np.random.default_rng(2)
        y = np.sin(2 * np.pi * np.arange(400) / 40) + rng.normal(0, 0.2, 400)
        np.testing.assert_allclose(preprocess(y), preprocess(y + 1e5),
                                   atol=1e-3)

    def test_constant_series_zeros(self):
        np.testing.assert_allclose(preprocess(np.full(100, 7.0)),
                                   np.zeros(100))

    def test_handles_missing(self):
        y = np.sin(2 * np.pi * np.arange(300) / 30)
        y[50:60] = np.nan
        out = preprocess(y)
        assert np.all(np.isfinite(out))


class TestDetrendNormalize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        y = rng.normal(5, 3, 1000)
        out = detrend_normalize(y)
        assert abs(out.mean()) < 1e-8
        assert out.std() == pytest.approx(1.0)

    def test_no_clipping_applied(self):
        y = np.zeros(500)
        y[250] = 1000.0
        out = detrend_normalize(y)
        # The spike survives (z-score ≫ 3) — this variant must NOT clip.
        assert np.max(np.abs(out)) > 5.0

    def test_constant_series(self):
        np.testing.assert_allclose(detrend_normalize(np.full(50, 2.0)),
                                   np.zeros(50))

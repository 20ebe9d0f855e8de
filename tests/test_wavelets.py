"""Unit tests for Daubechies filters, MODWT/DWT, and wavelet variance.

The time-domain pyramid algorithms below are the references the
frequency-domain ``modwt``/``dwt`` are checked against."""
import numpy as np
import pytest

from repro.core.robust_stats import biweight_midvariance
from repro.core.wavelets import (daubechies_scaling, daubechies_wavelet,
                                 dwt, filter_width, max_usable_level, modwt,
                                 robust_wavelet_variance)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 10]


def _pyramid_modwt(x, wavelet, level):
    """Circular MODWT by the pyramid algorithm, one loop over filter taps."""
    p = int(wavelet[2:])
    g = daubechies_scaling(p) / np.sqrt(2)
    h = daubechies_wavelet(p) / np.sqrt(2)
    n = x.size
    W = np.empty((level, n))
    v = x.copy()
    t = np.arange(n)
    for j in range(1, level + 1):
        stride = 2 ** (j - 1)
        wj = np.zeros(n)
        vj = np.zeros(n)
        for l in range(g.size):
            vl = v[(t - stride * l) % n]
            wj += h[l] * vl
            vj += g[l] * vl
        W[j - 1] = wj
        v = vj
    return W, v


def _pyramid_dwt(x, wavelet, level):
    """Decimated circular DWT by the pyramid algorithm (input truncated to a
    multiple of 2^level)."""
    p = int(wavelet[2:])
    g, h = daubechies_scaling(p), daubechies_wavelet(p)
    n = (x.size // 2**level) * 2**level
    v = x[:n].copy()
    details = []
    for _ in range(level):
        m = v.size
        t2 = 2 * np.arange(m // 2) + 1
        d = np.zeros(m // 2)
        a = np.zeros(m // 2)
        for l in range(g.size):
            vl = v[(t2 - l) % m]
            d += h[l] * vl
            a += g[l] * vl
        details.append(d)
        v = a
    return details, v


class TestDaubechiesFilters:
    @pytest.mark.parametrize("p", ORDERS)
    def test_scaling_sum_sqrt2(self, p):
        g = daubechies_scaling(p)
        assert g.sum() == pytest.approx(np.sqrt(2), abs=1e-10)

    @pytest.mark.parametrize("p", ORDERS)
    def test_unit_energy(self, p):
        g = daubechies_scaling(p)
        assert (g * g).sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", ORDERS)
    def test_length_2p(self, p):
        assert daubechies_scaling(p).size == 2 * p

    @pytest.mark.parametrize("p", ORDERS)
    def test_even_shift_orthonormality(self, p):
        g = daubechies_scaling(p)
        for m in range(1, p):
            assert abs(np.dot(g[:-2 * m], g[2 * m:])) < 1e-9

    @pytest.mark.parametrize("p", ORDERS)
    def test_wavelet_zero_sum(self, p):
        h = daubechies_wavelet(p)
        assert abs(h.sum()) < 1e-9

    @pytest.mark.parametrize("p", ORDERS)
    def test_wavelet_scaling_orthogonal(self, p):
        g, h = daubechies_scaling(p), daubechies_wavelet(p)
        assert abs(np.dot(g, h)) < 1e-9

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_vanishing_moments(self, p):
        # Σ l^m h_l = 0 for m < p (the defining property of db-p).
        h = daubechies_wavelet(p)
        l = np.arange(h.size, dtype=float)
        for m in range(p):
            assert abs(np.sum(l**m * h)) < 1e-6

    def test_db1_is_haar(self):
        np.testing.assert_allclose(daubechies_scaling(1),
                                   [1 / np.sqrt(2)] * 2)

    def test_db2_closed_form(self):
        g = daubechies_scaling(2)
        expect = np.array([1 + np.sqrt(3), 3 + np.sqrt(3),
                           3 - np.sqrt(3), 1 - np.sqrt(3)]) / (4 * np.sqrt(2))
        np.testing.assert_allclose(g, expect, atol=1e-12)

    def test_db4_matches_published_values(self):
        # Reference values (PyWavelets db4 dec_lo reversed = extremal
        # phase h0), 6 decimals.
        g = np.sort(np.abs(daubechies_scaling(4)))
        ref = np.sort(np.abs([0.230377813309, 0.714846570553, 0.630880767930,
                              -0.027983769417, -0.187034811719, 0.030841381836,
                              0.032883011667, -0.010597401785]))
        np.testing.assert_allclose(g, ref, atol=1e-9)

    def test_invalid_wavelet_name(self):
        with pytest.raises(ValueError):
            modwt(np.zeros(32), "sym4", 2)


class TestMODWT:
    # N = 16..19 are shorter than db10 (L = 20), so the filter wraps.
    @pytest.mark.parametrize("wav", ["db1", "db2", "db4", "db10"])
    @pytest.mark.parametrize("n", [16, 17, 19, 100, 500, 2001, 7200])
    @pytest.mark.parametrize("level", [1, 4, 12])
    def test_matches_pyramid(self, wav, n, level):
        rng = np.random.default_rng(n + level)
        x = rng.normal(0, 1, n) + 3 * np.sin(2 * np.pi * np.arange(n) / 24)
        W, v = modwt(x, wav, level)
        W_ref, v_ref = _pyramid_modwt(x, wav, level)
        atol = 1e-12 * np.max(np.abs(x))
        np.testing.assert_allclose(W, W_ref, rtol=0, atol=atol)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("wav,level", [("db1", 4), ("db2", 5),
                                           ("db4", 4), ("db10", 3)])
    def test_energy_preservation(self, wav, level):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, 512)
        W, v = modwt(x, wav, level)
        assert (x**2).sum() == pytest.approx((W**2).sum() + (v**2).sum(),
                                             rel=1e-10)

    def test_shape(self):
        x = np.zeros(100)
        W, v = modwt(x, "db2", 3)
        assert W.shape == (3, 100) and v.shape == (100,)

    def test_constant_series_zero_details(self):
        W, v = modwt(np.full(128, 5.0), "db4", 4)
        assert np.max(np.abs(W)) < 1e-9
        np.testing.assert_allclose(v, 5.0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(0, 1, (2, 256))
        Wx, vx = modwt(x, "db2", 3)
        Wy, vy = modwt(y, "db2", 3)
        Wxy, vxy = modwt(2 * x + y, "db2", 3)
        np.testing.assert_allclose(Wxy, 2 * Wx + Wy, atol=1e-10)
        np.testing.assert_allclose(vxy, 2 * vx + vy, atol=1e-10)

    def test_circular_shift_equivariance(self):
        # MODWT is shift-equivariant under circular shifts.
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 128)
        W1, _ = modwt(x, "db2", 3)
        W2, _ = modwt(np.roll(x, 7), "db2", 3)
        np.testing.assert_allclose(np.roll(W1, 7, axis=1), W2, atol=1e-10)

    @pytest.mark.parametrize("T,expected_level", [(8, 3), (16, 4),
                                                  (32, 5), (64, 6)])
    def test_band_isolation_of_sinusoid(self, T, expected_level):
        # A period-T sinusoid's energy concentrates at level ≈ log2(T)
        # (band [2^j, 2^{j+1}] means T=2^j sits at the j-th level edge).
        t = np.arange(1024)
        x = np.sin(2 * np.pi * t / T)
        W, _ = modwt(x, "db10", 7)
        energies = (W**2).sum(axis=1)
        best = int(np.argmax(energies)) + 1
        assert best in (expected_level, expected_level - 1)


class TestDWT:
    # Energy preservation cannot see a subsampling phase error; this can.
    @pytest.mark.parametrize("wav", ["db2", "db4"])
    @pytest.mark.parametrize("n,level", [(32, 2), (100, 2), (257, 5),
                                         (2000, 4), (2001, 8), (7200, 8)])
    def test_matches_decimated_pyramid(self, wav, n, level):
        x = np.random.default_rng(n).normal(0, 1, n)
        details, approx = dwt(x, wav, level)
        ref_details, ref_approx = _pyramid_dwt(x, wav, level)
        atol = 1e-12 * np.max(np.abs(x))
        assert len(details) == level
        for d, ref in zip(details + [approx], ref_details + [ref_approx]):
            np.testing.assert_allclose(d, ref, rtol=0, atol=atol)

    def test_halving_lengths(self):
        details, approx = dwt(np.random.default_rng(0).normal(0, 1, 256),
                              "db2", 4)
        assert [d.size for d in details] == [128, 64, 32, 16]
        assert approx.size == 16

    def test_energy_preservation(self):
        x = np.random.default_rng(1).normal(0, 1, 256)
        details, approx = dwt(x, "db2", 4)
        total = sum((d**2).sum() for d in details) + (approx**2).sum()
        assert total == pytest.approx((x**2).sum(), rel=1e-10)

    def test_truncates_to_multiple(self):
        details, _ = dwt(np.zeros(100), "db2", 2)
        assert details[0].size == 50


class TestLevelsAndVariance:
    def test_filter_width(self):
        assert filter_width(1, 4) == 4
        assert filter_width(3, 4) == 22
        assert filter_width(8, 20) == 255 * 19 + 1

    def test_max_usable_level_caps_by_length(self):
        assert max_usable_level(1000, 8) == 7
        assert max_usable_level(100, 8) == 4
        assert max_usable_level(16, 8) == 2

    def test_max_usable_level_respects_request(self):
        assert max_usable_level(10_000, 3) == 3

    def test_white_noise_variance_halves_per_level(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 2**14)
        W, _ = modwt(x, "db4", 5)
        nu2 = robust_wavelet_variance(W, "db4")
        ratios = nu2[:-1] / nu2[1:]
        assert np.all((1.5 < ratios) & (ratios < 2.6))

    def test_periodic_component_dominates_its_level(self):
        t = np.arange(1024)
        rng = np.random.default_rng(8)
        x = np.sin(2 * np.pi * t / 32) + rng.normal(0, 0.1, 1024)
        nu2 = robust_wavelet_variance(modwt(x, "db10", 7)[0], "db10")
        assert int(np.argmax(nu2)) + 1 in (4, 5)

    def test_robust_false_gives_classical_variance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, 512)
        W, _ = modwt(x, "db2", 3)
        nu2 = robust_wavelet_variance(W, "db2", robust=False)
        # level 1, trimming L_1−1 = 3 coefficients
        assert nu2[0] == pytest.approx(np.var(W[0, 3:]))

    def test_robust_variance_ignores_outlier_block(self):
        t = np.arange(1024)
        x = np.sin(2 * np.pi * t / 32)
        xc = x.copy()
        xc[100:110] += 50.0
        Wc, _ = modwt(xc, "db4", 6)
        Wx, _ = modwt(x, "db4", 6)
        r_c = robust_wavelet_variance(Wc, "db4")
        r_x = robust_wavelet_variance(Wx, "db4")
        # Robust variances stay within a factor ~2 of the clean ones.
        j = int(np.argmax(r_x))
        assert r_c[j] == pytest.approx(r_x[j], rel=1.0)

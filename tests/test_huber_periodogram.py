"""Unit tests for the ordinary and Huber periodograms."""
import numpy as np
import pytest

from repro.core import huber_periodogram as hp
from repro.core.huber_periodogram import (huber_periodogram,
                                          ordinary_periodogram, zero_pad)
from repro.core.robust_stats import huber_weights, robust_scale


def _sin(n, T, amp=1.0, phase=0.3):
    return amp * np.sin(2 * np.pi * np.arange(n) / T + phase)


def _adversarial(kind, n):
    """Inputs on which few residuals may stay inside ζ, or many tie."""
    rng = np.random.default_rng(n)
    if kind == "cauchy":
        return rng.standard_cauchy(n)
    w = rng.normal(0, 1, n)
    if kind == "outliers":              # 10% at 20-200σ
        idx = rng.choice(n, n // 10, replace=False)
        w[idx] += rng.uniform(20, 200, idx.size) * rng.choice([-1, 1],
                                                              idx.size)
    elif kind == "sinusoid":            # amplitude 50 on the last quarter
        t = slice(3 * n // 4, n)
        w[t] += _sin(n, 10, amp=50.0)[t]
    elif kind == "zeros":
        w[rng.random(n) < 0.6] = 0.0
    elif kind == "rounded":
        w = np.round(w)
    return w


def _reference_huber_periodogram(w, exact_band):
    """The straightforward solve on ``zero_pad(w)``: K×N' cos/sin, 256-bin
    chunks, each chunk iterated until its largest step is below
    ``IRLS_TOL``; the scale comes from the unpadded ``w``."""
    x = zero_pad(w)
    n, nyq = x.size, w.size
    P = ordinary_periodogram(x)
    sig = robust_scale(w)
    xn = x / sig
    lo, hi = (1, nyq) if exact_band is None else exact_band
    lo, hi = max(1, lo), min(nyq - 1, hi)
    for s in range(lo, hi + 1, 256):
        ks = np.arange(s, min(s + 256, hi + 1))
        ang = 2.0 * np.pi * np.outer(ks, np.arange(n)) / n
        C, S = np.cos(ang), np.sin(ang)
        a, b = 2.0 / n * (C @ xn), 2.0 / n * (S @ xn)
        for _ in range(hp.IRLS_MAX_ITER):
            r = a[:, None] * C + b[:, None] * S - xn
            w = huber_weights(r, hp.HUBER_ZETA)
            Scc, Scs, Sss = ((w * C * C).sum(1), (w * C * S).sum(1),
                             (w * S * S).sum(1))
            Scx, Ssx = (w * C) @ xn, (w * S) @ xn
            det = Scc * Sss - Scs**2
            ok = det > 1e-12
            d = np.where(ok, det, 1.0)
            a_new = np.where(ok, (Sss * Scx - Scs * Ssx) / d, a)
            b_new = np.where(ok, (Scc * Ssx - Scs * Scx) / d, b)
            delta = np.max(np.abs(a_new - a) + np.abs(b_new - b))
            a, b = a_new, b_new
            if delta < hp.IRLS_TOL:
                break
        P[ks] = (n / 4.0) * (a**2 + b**2) * sig**2
    return P


def _reference_irls_chunk(x, ks):
    """The folded IRLS solve that the Newton solve replaced (it always
    computes the pad's Huber weights, which gives the same bits as the
    unit-weight shortcut it had)."""
    n = 2 * x.size
    ang = 2.0 * np.pi / n * np.arange(n)
    idx = np.outer(ks, np.arange(x.size)) % n
    C, S = np.cos(ang)[idx], np.sin(ang)[idx]
    CC, CS, Cx, Sx = C * C, C * S, C * x, S * x
    a, b = 2.0 / n * Cx.sum(axis=1), 2.0 / n * Sx.sum(axis=1)
    active = np.ones(ks.size, dtype=bool)
    r, w, wpad = np.empty_like(C), np.empty_like(C), np.empty_like(C)
    for _ in range(hp.IRLS_MAX_ITER):
        np.multiply(a[:, None], C, out=r)
        r += np.multiply(b[:, None], S, out=w)
        hp.huber_weights(r, hp.HUBER_ZETA, out=wpad)
        hp.huber_weights(np.subtract(r, x, out=r), hp.HUBER_ZETA, out=w)
        Scx, Ssx = np.einsum("kt,kt->k", w, Cx), np.einsum("kt,kt->k", w, Sx)
        w += wpad
        Scc, Scs = np.einsum("kt,kt->k", w, CC), np.einsum("kt,kt->k", w, CS)
        Sss = w.sum(axis=1) - Scc
        det = Scc * Sss - Scs**2
        ok = active & (det > 1e-12)
        d = np.where(ok, det, 1.0)
        a_new = np.where(ok, (Sss * Scx - Scs * Ssx) / d, a)
        b_new = np.where(ok, (Scc * Ssx - Scs * Scx) / d, b)
        active &= np.abs(a_new - a) + np.abs(b_new - b) >= hp.IRLS_TOL
        a, b = a_new, b_new
        if not active.any():
            break
    return a**2 + b**2


class TestOrdinaryPeriodogram:
    def test_length(self):
        assert ordinary_periodogram(np.zeros(100)).size == 51

    def test_parseval(self):
        # Σ_k full-range P_k = Σ x² (DFT energy identity, Eq. 5 scaling).
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 128)
        P = ordinary_periodogram(x)
        full = np.concatenate([P, P[1:-1][::-1]])
        assert full.sum() == pytest.approx((x**2).sum(), rel=1e-9)

    def test_peak_at_true_frequency(self):
        x = _sin(512, 32)
        P = ordinary_periodogram(x)
        assert np.argmax(P[1:]) + 1 == 16

    def test_sinusoid_peak_height(self):
        # |DFT|²/N at the exact bin = N·amp²/4.
        n, T = 512, 32
        P = ordinary_periodogram(_sin(n, T))
        assert P[n // T] == pytest.approx(n / 4.0, rel=1e-6)


class TestMPeriodogramEquivalences:
    def test_huber_equals_ordinary_on_clean_data(self):
        # With no outliers, residuals stay inside ζ·σ̂ and the Huber fit
        # reduces to OLS = the ordinary periodogram at Fourier bins.
        x = _sin(256, 16, amp=0.5)
        Ph = huber_periodogram(x)
        Po = ordinary_periodogram(zero_pad(x))
        assert Ph[32] == pytest.approx(Po[32], rel=0.05)

    def test_gaussian_noise_close_to_ordinary(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 256)
        Ph = huber_periodogram(x)
        Po = ordinary_periodogram(zero_pad(x))
        # Same order of magnitude on the bulk (Huber ≈ L2 for Gaussian).
        ratio = (Ph[1:] + 1e-6) / (Po[1:] + 1e-6)
        assert np.median(ratio) == pytest.approx(1.0, abs=0.3)

    def test_huber_robust_to_outliers(self):
        n, T = 512, 32
        x = _sin(n, T, amp=1.0)
        xc = x.copy()
        rng = np.random.default_rng(2)
        idx = rng.choice(n, 25, replace=False)
        xc[idx] += rng.uniform(5, 15, 25) * rng.choice([-1, 1], 25)
        Ph = huber_periodogram(xc)
        Po = ordinary_periodogram(zero_pad(xc))
        k = 2 * n // T
        # Huber: peak-to-background ratio much better than ordinary.
        bg_h = np.median(Ph[1:])
        bg_o = np.median(Po[1:])
        assert Ph[k] / max(bg_h, 1e-9) > Po[k] / max(bg_o, 1e-9)

    def test_exact_band_outside_is_ordinary(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 200)
        P = huber_periodogram(x, exact_band=(40, 80))
        Po = ordinary_periodogram(zero_pad(x))
        np.testing.assert_allclose(P[:40], Po[:40])
        np.testing.assert_allclose(P[81:], Po[81:])

    def test_exact_band_inside_differs_under_outliers(self):
        x = _sin(400, 20)
        x[::37] += 20.0
        P = huber_periodogram(x, exact_band=(30, 50))
        Po = ordinary_periodogram(zero_pad(x))
        assert not np.allclose(P[30:51], Po[30:51])

    def test_chunking_invariance(self, monkeypatch):
        # Each bin converges on its own and the outlier bound is per call, so
        # chunking cannot move a bit: also on a series some of whose bins
        # fall back to IRLS, and on a strong sine in noise, whose bins take
        # the sums over the outlier set, those over all samples, and IRLS.
        w = _sin(300, 30) + np.random.default_rng(4).normal(0, 0.3, 300)
        ran = {}

        def count(name):
            fn = getattr(hp, name)

            def counted(*args):
                ran[name] = ran.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(hp, name, counted)

        for name in ("_outlier_terms", "_huber_terms", "_irls_step"):
            count(name)
        for x in (w, _adversarial("outliers", 300),
                  _adversarial("sinusoid", 300)):
            ran.clear()
            P = []
            for rows in (8, 512):
                monkeypatch.setattr(hp, "CHUNK_ROWS", (rows, rows))
                P.append(huber_periodogram(x))
            np.testing.assert_array_equal(*P)
        assert set(ran) == {"_outlier_terms", "_huber_terms", "_irls_step"}

    def test_n_data_prefix_scale(self):
        # The scale comes from the unpadded series, not the padded one, so
        # the big spectral peak survives the robust fit.
        n, T = 400, 40
        P = huber_periodogram(_sin(n, T))
        k = 2 * n // T
        assert np.argmax(P[1:]) + 1 == k

    def test_zero_series(self):
        P = huber_periodogram(np.zeros(64))
        assert P.size == 65
        np.testing.assert_allclose(P, 0.0)

    def test_invalid_band_returns_ordinary(self):
        x = _sin(128, 8)
        P = huber_periodogram(x, exact_band=(60, 10))
        np.testing.assert_allclose(P, ordinary_periodogram(zero_pad(x)))


class TestMatchesReference:
    """The folded, per-bin-converged solve against the K×N' reference."""

    # ``loss`` and ``padded`` only keep the test IDs: the loss is Huber and
    # the series is always zero-padded.
    @pytest.mark.parametrize("loss", ["huber"])
    @pytest.mark.parametrize("padded", [True])
    @pytest.mark.parametrize("n", [256, 301])
    @pytest.mark.parametrize("band", ["all", "low", "nyquist"])
    @pytest.mark.parametrize("kind", ["noise", "outliers"])
    def test_matches_reference(self, loss, padded, n, band, kind):
        rng = np.random.default_rng(n)
        if kind == "noise":
            w = rng.normal(0, 1, n)
        else:
            w = _sin(n, 16) + rng.normal(0, 0.2, n)
            idx = rng.choice(n, n // 20, replace=False)
            w[idx] += rng.uniform(5, 15, idx.size) * rng.choice([-1, 1],
                                                                idx.size)
        exact_band = {"all": None, "low": (1, 40),
                      "nyquist": (n - 40, n)}[band]
        P = huber_periodogram(w, exact_band=exact_band)
        ref = _reference_huber_periodogram(w, exact_band)
        # Per-bin stopping moves an ordinate by < 1e-5.
        np.testing.assert_allclose(P, ref, rtol=1e-5,
                                   atol=1e-12 * np.sum(w**2))


class TestNewtonMatchesIRLS:
    """The Newton solve, with its per-bin IRLS fallback, against the folded
    IRLS solve it replaced, on inputs that defeat undamped Newton steps."""

    @pytest.mark.parametrize("n", [16, 301, 600])
    @pytest.mark.parametrize("band", ["all", "level2", "level3"])
    @pytest.mark.parametrize("kind", ["cauchy", "outliers", "sinusoid",
                                      "zeros", "rounded"])
    def test_matches_irls(self, monkeypatch, kind, band, n):
        w = _adversarial(kind, n)
        exact_band = {"all": None, "level2": (n // 4, n // 2),
                      "level3": (n // 8, n // 4)}[band]
        P = huber_periodogram(w, exact_band=exact_band)
        # IRLS converges linearly: stopped at IRLS_TOL it was up to 5e-5
        # (relative) short of the minimizer on rounded data, where Newton
        # lands on it.  So the reference runs to convergence.
        monkeypatch.setattr(hp, "_newton_chunk",
                            lambda x, ks, *_: _reference_irls_chunk(x, ks))
        monkeypatch.setattr(hp, "IRLS_TOL", 1e-13)
        monkeypatch.setattr(hp, "IRLS_MAX_ITER", 1000)
        ref = huber_periodogram(w, exact_band=exact_band)
        np.testing.assert_allclose(P, ref, rtol=1e-5,
                                   atol=1e-12 * np.sum(w**2))

    @pytest.mark.parametrize("kind", ["outliers", "sinusoid"])
    def test_newton_and_fallback_both_run(self, monkeypatch, kind):
        # One bin per chunk: a chunk that takes an IRLS step is a bin that
        # fell back, and the others were solved by Newton steps alone.
        w = _adversarial(kind, 301)
        P = huber_periodogram(w)
        fell = []
        newton_chunk, irls_step = hp._newton_chunk, hp._irls_step

        def chunk(*args):
            fell.append(False)
            return newton_chunk(*args)

        def step(*args):
            fell[-1] = True
            return irls_step(*args)

        monkeypatch.setattr(hp, "CHUNK_ROWS", (1, 1))
        monkeypatch.setattr(hp, "_newton_chunk", chunk)
        monkeypatch.setattr(hp, "_irls_step", step)
        np.testing.assert_array_equal(huber_periodogram(w), P)
        assert 0 < sum(fell) < len(fell)


class TestUnitPadWeights:
    """On a sparse bin (``|a| + |b| ≤ bound``) the sums over the outlier set
    ``T`` equal the dense terms with the elementwise pad, and no residual
    outside ``T`` can leave ζ; the solve reads those sums on no other bin.
    A dense bin takes the closed-form pad terms ``G₀β``, ``G₀`` only where
    they equal the elementwise ones."""

    @pytest.mark.parametrize("n", [256, 301, 1000])
    @pytest.mark.parametrize("band", ["all", "level1", "level3"])
    @pytest.mark.parametrize("kind", ["noise", "sinusoid", "outliers"])
    def test_bit_identical_to_always_weighted(self, monkeypatch, n, band,
                                              kind):
        rng = np.random.default_rng(n)
        w = rng.normal(0, 1, n)
        if kind != "noise":
            # Periods 3 (level 1) and 10 (level 3) on the last quarter
            # only: the MAD scale stays that of the noise, so their
            # amplitudes are ≫ ζ in scale units.
            t = slice(3 * n // 4, n)
            w[t] += _sin(n, 3, amp=50.0)[t] + _sin(n, 10, amp=50.0)[t]
        if kind == "outliers":
            idx = rng.choice(n, n // 20, replace=False)
            w[idx] += rng.uniform(20, 50, idx.size) * rng.choice([-1, 1],
                                                                 idx.size)
        exact_band = {"all": None, "level1": (n // 2, n),
                      "level3": (n // 8, n // 4)}[band]
        seen = {"sparse": 0, "dense": 0}
        chunk = {}
        newton_chunk, outlier_terms = hp._newton_chunk, hp._outlier_terms
        pad_terms, huber_terms = hp._pad_terms, hp._huber_terms

        def spied(x, ks, a, b, bound):
            assert bound <= hp.UNIT_PAD_BOUND
            chunk.update(x=x, ks=ks, bound=bound)
            return newton_chunk(x, ks, a, b, bound)

        def checked_outlier(a, b, a_ols, b_ols, xT, *args):
            out = outlier_terms(a, b, a_ols, b_ols, xT, *args)
            x, bound = chunk["x"], chunk["bound"]
            sparse = np.abs(a) + np.abs(b) <= bound
            # |r_t| ≤ |x_t| + |a| + |b|: outside the kernel's T no sparse
            # bin's residual can leave ζ.
            outside_T = ~np.isin(x, xT)
            assert (np.abs(x[outside_T]).max(initial=0.0)
                    + (np.abs(a) + np.abs(b))[sparse].max(initial=0.0)
                    <= hp.HUBER_ZETA)
            a, b, rows = a[sparse], b[sparse], np.arange(sparse.sum())
            ang = np.pi / x.size * np.outer(chunk["ks"][sparse],
                                            np.arange(x.size))
            C, S = np.cos(ang), np.sin(ang)
            fit = a[:, None] * C + b[:, None] * S
            dense = (pad_terms(a, b, C, S, C * C, C * S, rows)
                     + huber_terms(fit - x, C, S, C * C, C * S))
            np.testing.assert_allclose(out[:, sparse], dense, rtol=1e-12,
                                       atol=1e-12 * x.size)
            seen["sparse"] += rows.size
            return out

        def poisoned_outlier(a, b, *args):
            out = outlier_terms(a, b, *args)
            out[:, np.abs(a) + np.abs(b) > chunk["bound"]] = np.nan
            return out

        def checked_pad(a, b, C, S, CC, CS, rows):
            out = pad_terms(a, b, C, S, CC, CS, rows)
            unit = np.abs(a) + np.abs(b) <= hp.UNIT_PAD_BOUND
            assert not unit[rows].any()
            every = pad_terms(a, b, C, S, CC, CS, np.arange(a.size))
            np.testing.assert_allclose(out[:, unit], every[:, unit],
                                       rtol=1e-12, atol=1e-12 * C.shape[1])
            seen["dense"] += a.size
            return out

        monkeypatch.setattr(hp, "_newton_chunk", spied)
        monkeypatch.setattr(hp, "_outlier_terms", checked_outlier)
        monkeypatch.setattr(hp, "_pad_terms", checked_pad)
        P = huber_periodogram(w, exact_band=exact_band)
        monkeypatch.setattr(hp, "_outlier_terms", poisoned_outlier)
        np.testing.assert_array_equal(
            huber_periodogram(w, exact_band=exact_band), P)
        # The level-3 bands of N = 256 and 301 (33-38 bins) lie inside the
        # leakage of the amplitude-50 period-10 sine, so the cost rule makes
        # every bin dense there; everywhere else both paths run.
        every_dense = kind != "noise" and band == "level3" and n < 1000
        assert (seen["sparse"] > 0) != every_dense
        assert seen["dense"] > 0 or kind == "noise"

"""End-to-end tests for the RobustPeriod pipeline (§3)."""
import numpy as np
import pytest

from repro.core import fisher
from repro.core import robust_period as rp
from repro.core.robust_period import detect, detect_full, merge_periods
from repro.datasets import cran_like, synthetic_series
from repro.sparkrun.detect import ALGOS


def _match(found, truth, tol=0.02):
    """Every true period matched within tolerance by some detection."""
    return all(any(abs(f - t) <= max(1, tol * t) for f in found)
               for t in truth)


class TestMergePeriods:
    def test_empty(self):
        assert merge_periods([]) == []

    def test_distinct_kept(self):
        assert merge_periods([(20, 1.0), (50, 1.0), (100, 1.0)]) == [20, 50, 100]

    def test_near_duplicates_collapse_to_heavier(self):
        assert merge_periods([(20, 0.5), (21, 2.0)]) == [21]

    def test_chain_of_near_duplicates(self):
        assert merge_periods([(100, 1.0), (102, 3.0), (104, 2.0)]) == [102]

    def test_tolerance_boundary(self):
        # 10% of the larger period is the merge radius → 100 vs 115 distinct.
        assert merge_periods([(100, 1.0), (115, 1.0)]) == [100, 115]


class TestSinglePeriod:
    def test_clean_sinusoid(self):
        t = np.arange(1000)
        assert detect(np.sin(2 * np.pi * t / 100)) == [100]

    def test_mild_contamination(self):
        y = synthetic_series(periods=(100,), noise_var=0.1,
                             outlier_ratio=0.01, seed=5)
        assert _match(detect(y), [100])

    @pytest.mark.parametrize("T", [16, 24, 50, 100, 120])
    def test_various_periods(self, T):
        y = synthetic_series(periods=(T,), noise_var=0.1,
                             outlier_ratio=0.01, seed=T)
        assert _match(detect(y), [T])

    def test_band_edge_period(self):
        # T=128 sits exactly on the level-6/7 octave boundary — the
        # hardest resolution case; allow 5% slack there.
        y = synthetic_series(periods=(128,), noise_var=0.1,
                             outlier_ratio=0.01, seed=128)
        assert _match(detect(y), [128], tol=0.05)

    def test_trend_does_not_break_detection(self):
        t = np.arange(1000)
        y = np.sin(2 * np.pi * t / 100) + 20 * (t / 1000) ** 2
        assert _match(detect(y), [100])

    def test_heavy_outliers_still_detect(self):
        y = synthetic_series(periods=(100,), noise_var=0.5,
                             outlier_ratio=0.1, seed=6)
        assert _match(detect(y), [100])


class TestMultiPeriod:
    def test_three_periods_mild(self):
        y = synthetic_series(periods=(20, 50, 100), noise_var=0.1,
                             outlier_ratio=0.01, seed=1)
        found = detect(y)
        assert _match(found, [20, 50, 100])
        assert len(found) <= 5  # no flood of false positives

    def test_three_periods_moderate(self):
        y = synthetic_series(periods=(20, 50, 100), noise_var=1.0,
                             outlier_ratio=0.1, seed=2)
        assert _match(detect(y), [20, 50, 100])

    @pytest.mark.parametrize("kind", ["square", "triangle"])
    def test_non_sinusoidal(self, kind):
        y = synthetic_series(kind=kind, periods=(20, 50, 100), noise_var=0.1,
                             outlier_ratio=0.01, seed=3)
        assert _match(detect(y), [20, 50, 100])

    def test_two_periods(self):
        y = synthetic_series(periods=(24, 168), n=1008, noise_var=0.1,
                             outlier_ratio=0.01, seed=4)
        assert _match(detect(y), [24, 168])


class TestNoPeriod:
    def test_white_noise_usually_empty(self):
        rng = np.random.default_rng(0)
        n_fp = sum(len(detect(rng.normal(0, 1, 512))) for _ in range(5))
        assert n_fp <= 2

    def test_pure_trend_empty(self):
        t = np.arange(500, dtype=float)
        assert detect(3 + 0.1 * t) == []

    def test_too_short_series(self):
        assert detect(np.ones(8)) == []


class TestInvariance:
    def test_scale_invariance(self):
        y = synthetic_series(periods=(20, 50, 100), seed=1)
        assert detect(1e-9 * y) == detect(1e-3 * y) == detect(y) \
            == [20, 50, 100]

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_scale_and_sign_invariance(self, algo):
        fn = ALGOS[algo]
        cran, _ = cran_like(n_series=3)
        ys = [synthetic_series(seed=2),
              synthetic_series(kind="square", periods=(20, 50), n=500,
                               seed=3)]
        ys += [g.sort_values("t")["y"].to_numpy()
               for _, g in cran.groupby("series_id")]
        for y in ys:
            expect = fn(y)
            for c in (1e-9, 1e6, -1.0):
                assert fn(c * y) == expect, c

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_degenerate_inputs(self, algo):
        fn = ALGOS[algo]
        spike = synthetic_series(n=300, seed=4)
        for case, y in {
            "empty": np.array([]), "one": np.array([1.0]),
            "fifteen": np.sin(np.arange(15.0)), "constant": np.full(300, 7.0),
            "all_nan": np.full(300, np.nan),
            "inf": np.where(np.arange(300) == 100, np.inf, spike),
            "-inf": np.where(np.arange(300) == 100, -np.inf, spike),
        }.items():
            out = fn(y)
            assert isinstance(out, list), case
            assert all(type(p) is int for p in out), case
            if case in ("empty", "constant", "all_nan"):
                assert out == [], case

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_offset_invariance(self, algo):
        y = synthetic_series(seed=1)
        fn = ALGOS[algo]
        expect = fn(y)
        for c in (1e6, 1e9, 1e12):
            assert fn(y + c) == expect, c


class TestDiagnostics:
    def test_fig5_level_assignment(self):
        # Paper Fig. 5: true periods 20/50/100 detected at levels 4/5/6.
        y = synthetic_series(periods=(20, 50, 100), noise_var=0.1,
                             outlier_ratio=0.01, seed=1)
        res = detect_full(y)
        by_level = {lv.level: lv.period for lv in res.levels if lv.period}
        assert any(by_level.get(j) in (20, 19, 21) for j in (3, 4))
        assert any(by_level.get(j) in (49, 50, 51) for j in (5,))
        assert any(abs(by_level.get(j, 0) - 100) <= 2 for j in (6, 7))

    def test_level_variances_nonnegative(self):
        y = synthetic_series(seed=9)
        res = detect_full(y)
        assert all(lv.variance >= 0 for lv in res.levels)

    def test_unselected_levels_have_no_period(self):
        y = synthetic_series(seed=10)
        res = detect_full(y)
        for lv in res.levels:
            if not lv.selected:
                assert lv.period == 0

    def test_level_below_min_period_not_searched(self, monkeypatch):
        # Level 1's band [2, 4] holds no period above MIN_PERIOD = 4: it is
        # selected on white noise but gets no periodogram, robust or NR.
        y = np.random.default_rng(0).normal(0, 1, 500)
        n = y.size
        W, _ = rp.modwt(rp.preprocess(y), rp.WAVELET,
                        rp.max_usable_level(n, rp.MAX_LEVEL))
        calls = []

        def spy(fn):
            def recorded(x, **kw):
                calls.append((np.asarray(x)[:n].copy(), kw.get("exact_band")))
                return fn(x, **kw)
            return recorded

        monkeypatch.setattr(rp, "huber_periodogram", spy(rp.huber_periodogram))
        monkeypatch.setattr(rp, "ordinary_periodogram",
                            spy(rp.ordinary_periodogram))
        for robust in (True, False):
            calls.clear()
            lev1 = detect_full(y, robust=robust).levels[0]
            assert (lev1.level, lev1.selected) == (1, True)
            assert (lev1.pvalue, lev1.k_star, lev1.candidate) == (1.0, 0, 0)
            assert calls
            for x, band in calls:
                assert band != (n // 2, n)
                assert not np.array_equal(x, W[0])

    def test_energy_frac_one_selects_nothing(self, monkeypatch):
        monkeypatch.setattr(rp, "ENERGY_FRAC", 1.1)
        y = synthetic_series(seed=11)
        res = detect_full(y)
        assert res.periods == []

    def test_alpha_zero_detects_nothing(self, monkeypatch):
        monkeypatch.setattr(fisher, "ALPHA", 0.0)
        y = synthetic_series(seed=12)
        assert detect(y) == []

"""Smoke tests: every table runner produces a sanely-shaped result on a
tiny workload.  Full-size runs live in benchmarks/ and EXPERIMENTS.md."""
import time

import pandas as pd
import pytest

from repro.experiments import tables
from repro.sparkrun.detect import ALGOS, MULTI_ALGOS


@pytest.fixture(scope="module")
def t1(spark):
    return tables.table1(spark, n_series=3, n_cran=6)


class TestTable1:
    def test_algorithms_present(self, t1):
        assert set(t1.index) == {"find_frequency", "sazed_maj", "sazed_opt",
                                 "robust_period"}

    def test_datasets_and_tolerances(self, t1):
        ds = {c[0] for c in t1.columns}
        assert ds == {"cran", "sin_mild", "sin_severe"}
        assert {c[1] for c in t1.columns} == {"±0%", "±2%"}

    def test_values_are_probabilities(self, t1):
        vals = t1.to_numpy().ravel()
        assert ((0.0 <= vals) & (vals <= 1.0)).all()

    def test_robustperiod_wins_mild(self, t1):
        col = ("sin_mild", "±2%")
        assert t1.loc["robust_period", col] == t1[col].max()


class TestTable2:
    def test_shape_and_winner(self, spark):
        t2 = tables.table2(spark, n_series=3, n_yahoo=2)
        assert set(t2.index) == {"siegel", "autoperiod", "wavelet_fisher",
                                 "robust_period"}
        col = ("sin_mild", "±2%")
        assert t2.loc["robust_period", col] == t2[col].max()


class TestTable3:
    def test_square_triangle_datasets(self, spark):
        t3 = tables.table3(spark, n_series=2)
        assert {c[0] for c in t3.columns} == {"square", "triangle"}


class TestTable4:
    def test_all_algos_all_datasets(self, spark):
        t4 = tables.table4(spark)
        assert len(t4) == 6 * 4  # 6 cloud series × 4 algorithms
        rp = t4[t4.algo == "robust_period"]
        assert len(rp) == 6


class TestTable5:
    def test_ablation_rows(self, spark):
        t5 = tables.table5(spark, n_series=3)
        assert set(t5.index) == {"huber_fisher", "huber_siegel_acf",
                                 "nr_robust_period", "robust_period"}
        assert {"precision", "recall", "f1"} == {c[0] for c in t5.columns}


class TestTable6:
    def test_forecast_metrics(self, spark):
        t6 = tables.table6(spark, n_series=2)
        assert {"rmse", "mae"} == {c[0] for c in t6.columns}
        assert (t6.to_numpy() > 0).all()


class TestTable78:
    def test_timing_and_f1(self, spark):
        timing, f1 = tables.table78(spark, n_series=2, lengths=(500, 1000))
        assert set(timing.columns) == {"len500", "len1000"}
        assert (timing.to_numpy() > 0).all()
        assert ((0 <= f1.to_numpy()) & (f1.to_numpy() <= 1)).all()
        # RobustPeriod is the slowest of the four (paper Table 7 shape).
        # Timed in process CPU time, in process, on the same series (after
        # one untimed round for cached set-up), so other busy processes
        # cannot reorder it as they can wall-clock Spark task times.
        data, _ = tables.length_suite(n_series=2, seed=0,
                                     lengths=(500, 1000))
        series = [g.sort_values("t")["y"].to_numpy()
                  for _, g in data.groupby(["dataset", "series_id"])]
        mean_s = {}
        for algo in MULTI_ALGOS:
            for y in series:
                ALGOS[algo](y)
            t0 = time.process_time()
            for y in series:
                ALGOS[algo](y)
            mean_s[algo] = (time.process_time() - t0) / len(series)
        assert max(mean_s, key=mean_s.get) == "robust_period", mean_s

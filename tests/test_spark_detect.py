"""Tests for the Spark mapInPandas detection layer."""
import json

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import datasets
from repro.core.robust_period import detect as rp_detect
from repro.oracle import assert_equivalent
from repro.sparkrun.detect import (ALGOS, detect_periods, series_df,
                                   timing_summary)
from repro.sparkrun.metrics import score


@pytest.fixture(scope="module")
def small_suite():
    return datasets.synthetic_suite(kind="sin", periods=(20, 50, 100),
                                    noise_var=0.1, outlier_ratio=0.01,
                                    n_series=3, seed=0, name="tiny")


class TestRegistry:
    def test_all_algorithms_registered(self):
        expected = {"robust_period", "find_frequency", "sazed_maj",
                    "sazed_opt", "siegel", "autoperiod", "wavelet_fisher",
                    "huber_fisher", "huber_siegel_acf", "nr_robust_period"}
        assert expected == set(ALGOS)

    def test_unknown_algo_raises(self, spark, small_suite):
        data, _ = small_suite
        with pytest.raises(ValueError, match="unknown"):
            detect_periods(spark, data, ["nope"])


@pytest.fixture(scope="module")
def ragged(spark):
    """2p + 3 series of distinct lengths (p = defaultParallelism), rows
    in shuffled order."""
    p = spark.sparkContext.defaultParallelism
    rng = np.random.default_rng(0)
    lengths = rng.permutation(np.arange(2 * p + 3) * 5 + 8)
    data = pd.concat([pd.DataFrame({"dataset": "r", "series_id": i,
                                    "t": np.arange(n), "y": rng.normal(size=n)})
                      for i, n in enumerate(lengths)], ignore_index=True)
    return data.sample(frac=1, random_state=1), p


class TestSeriesDF:
    def test_schema(self, spark, small_suite):
        data, _ = small_suite
        sdf = series_df(spark, data)
        assert set(sdf.columns) == {"dataset", "series_id", "y"}

    def test_row_count(self, spark, small_suite):
        # One row per series, each (dataset, series_id) key once.
        data, _ = small_suite
        pdf = series_df(spark, data).toPandas()
        assert len(pdf) == len(data.groupby(["dataset", "series_id"]))
        assert not pdf.duplicated(["dataset", "series_id"]).any()

    def test_y_in_t_order_from_shuffled_rows(self, spark, ragged):
        # Rows arrive in any order; the driver must sort each series by t.
        data, _ = ragged
        pdf = series_df(spark, data).toPandas()
        for sid, y in zip(pdf["series_id"], pdf["y"]):
            want = data[data.series_id == sid].sort_values("t")["y"]
            np.testing.assert_array_equal(y, want.to_numpy())

    def test_balanced_partitions(self, spark, ragged):
        # Read the partition ids where detection runs: a projection
        # straight over series_df is evaluated in the driver.
        data, p = ragged
        pdf = (detect_periods(spark, data, ["find_frequency"])
               .select("series_id", F.spark_partition_id().alias("part"))
               .toPandas())
        pdf["n"] = pdf["series_id"].map(data.groupby("series_id").size())
        counts = pdf["part"].value_counts()
        assert len(counts) == p and counts.max() - counts.min() <= 1
        assert pdf.nlargest(p, "n")["part"].nunique() == p


class TestDetectPeriods:
    def test_output_rows_and_schema(self, spark, small_suite):
        data, _ = small_suite
        det = detect_periods(spark, data, ["siegel", "robust_period"])
        pdf = det.toPandas()
        assert len(pdf) == 6  # 3 series × 2 algos
        assert set(pdf.columns) == {"dataset", "series_id", "algo",
                                    "periods", "n_periods", "elapsed_s",
                                    "error"}
        assert (pdf["elapsed_s"] > 0).all()
        assert pdf["error"].isna().all()

    def test_matches_local_detection(self, spark, small_suite):
        # The Spark path must produce byte-identical detections to calling
        # the algorithm locally on the same series.
        data, _ = small_suite
        det = detect_periods(spark, data, ["robust_period"]).toPandas()
        for sid in (0, 1, 2):
            y = (data[data.series_id == sid].sort_values("t")["y"]
                 .to_numpy(dtype=float))
            local = sorted(rp_detect(y))
            row = det[det.series_id == sid].iloc[0]
            assert json.loads(row["periods"]) == local

    def test_n_periods_consistent(self, spark, small_suite):
        data, _ = small_suite
        det = detect_periods(spark, data, ["siegel"]).toPandas()
        for _, r in det.iterrows():
            assert r["n_periods"] == len(json.loads(r["periods"]))

    def test_timing_summary_oracle(self, spark, small_suite):
        data, _ = small_suite
        det = detect_periods(spark, data, ["siegel", "sazed_opt"])
        det.cache()
        summary = timing_summary(det)
        assert_equivalent(
            summary,
            """SELECT dataset, algo, AVG(elapsed_s) AS mean_elapsed_s,
                      COUNT(*) AS n_series
               FROM det GROUP BY dataset, algo ORDER BY dataset, algo""",
            det=det.toPandas())
        det.unpersist()

    def test_algorithm_exception_yields_empty(self, spark, small_suite, monkeypatch):
        # A crashing algorithm must produce an empty detection row that
        # names the error, not fail the whole Spark job.
        data, _ = small_suite
        import repro.sparkrun.detect as D

        def boom(y):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(D.ALGOS, "sazed_maj", boom)
        det = detect_periods(spark, data[data.series_id == 0], ["sazed_maj"])
        pdf = det.toPandas()
        assert len(pdf) == 1 and json.loads(pdf.iloc[0]["periods"]) == []
        assert pdf.iloc[0]["error"] == "RuntimeError: kaboom"


def _executed_plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


class TestShuffleFree:
    def test_detect_has_no_exchange(self, spark, small_suite):
        data, _ = small_suite
        plan = _executed_plan(detect_periods(spark, data, ["siegel"]))
        assert "MapInPandas" in plan and "Exchange" not in plan

    def test_score_shuffles_only_in_aggregate(self, spark, small_suite):
        # Matching runs on the driver over the collected detections, and
        # the match rows come back as one partition: AGG_SQL's aggregate
        # and sort need no Exchange, nothing is joined, and no Python
        # worker runs.  Rows handed over as a Python list would show as
        # an ExistingRDD scan that a Python worker feeds.
        data, truth = small_suite
        det = detect_periods(spark, data, ["siegel"])
        plan = _executed_plan(score(spark, det, truth))
        for node in ("Exchange", "Join", "MapInPandas", "ArrowEvalPython",
                     "BatchEvalPython", "ExistingRDD"):
            assert node not in plan, node

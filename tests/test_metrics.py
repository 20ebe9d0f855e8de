"""Tests for tolerance matching and the Spark SQL scoring layer.

The aggregation SQL is oracle-checked against DuckDB — the same query
over the same match-count rows must produce identical precision/recall/
F1 rows (``repro.oracle.assert_equivalent``).
"""
import json

import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.sparkrun.metrics import AGG_SQL, match_counts, match_df, score


class TestMatchCounts:
    def test_exact_match(self):
        assert match_counts([20, 50, 100], [20, 50, 100], 0.0) == (3, 0, 0)

    def test_exact_mismatch(self):
        assert match_counts([21], [20], 0.0) == (0, 1, 1)

    def test_tolerance_match(self):
        # ±2% of 100 = 2 → 102 matches.
        assert match_counts([102], [100], 0.02) == (1, 0, 0)

    def test_tolerance_minimum_one_sample(self):
        # ±2% of 20 = 0.4, but the floor of 1 sample lets 21 match.
        assert match_counts([21], [20], 0.02) == (1, 0, 0)

    def test_tolerance_failure(self):
        assert match_counts([104], [100], 0.02) == (0, 1, 1)

    def test_extra_detection_is_fp(self):
        assert match_counts([20, 37], [20], 0.0) == (1, 1, 0)

    def test_missing_detection_is_fn(self):
        assert match_counts([20], [20, 50], 0.0) == (1, 0, 1)

    def test_empty_detection(self):
        assert match_counts([], [20, 50], 0.0) == (0, 0, 2)

    def test_empty_truth(self):
        assert match_counts([20], [], 0.0) == (0, 1, 0)

    def test_each_detection_used_once(self):
        # One detection cannot satisfy two close truths.
        assert match_counts([100], [99, 101], 0.02) == (1, 0, 1)

    def test_nearest_match_preferred(self):
        tp, fp, fn = match_counts([98, 100], [100], 0.02)
        assert (tp, fp, fn) == (1, 1, 0)


@pytest.fixture(scope="module")
def det_truth(spark):
    """A tiny detection DataFrame with known counts, plus truth."""
    det_rows = [
        ("d", 0, "algoA", json.dumps([20, 50, 100]), 3, 0.01),
        ("d", 1, "algoA", json.dumps([20, 51]), 2, 0.01),
        ("d", 0, "algoB", json.dumps([20]), 1, 0.01),
        ("d", 1, "algoB", json.dumps([]), 0, 0.01),
    ]
    det = spark.createDataFrame(
        pd.DataFrame(det_rows, columns=["dataset", "series_id", "algo",
                                        "periods", "n_periods", "elapsed_s"]))
    truth = pd.DataFrame(
        [("d", 0, json.dumps([20, 50, 100])),
         ("d", 1, json.dumps([20, 50, 100]))],
        columns=["dataset", "series_id", "periods"])
    return det, truth


class TestSparkScoring:
    def test_match_df_counts(self, spark, det_truth):
        det, truth = det_truth
        m = match_df(spark, det, truth).toPandas()
        row = m[(m.algo == "algoA") & (m.series_id == 0) & (m.tol == 0.0)]
        assert (int(row.tp.iloc[0]), int(row.fp.iloc[0]), int(row.fn.iloc[0])) == (3, 0, 0)
        row = m[(m.algo == "algoA") & (m.series_id == 1) & (m.tol == 0.0)]
        assert (int(row.tp.iloc[0]), int(row.fp.iloc[0]), int(row.fn.iloc[0])) == (1, 1, 2)
        # ±2%: the 1-sample floor lets 51 count for 50.
        row = m[(m.algo == "algoA") & (m.series_id == 1) & (m.tol == 0.02)]
        assert (int(row.tp.iloc[0]), int(row.fp.iloc[0]), int(row.fn.iloc[0])) == (2, 0, 1)

    def test_match_df_drops_series_without_truth(self, spark, det_truth):
        # As an inner join would: a detection row with no truth row for
        # its series produces no match rows.
        det, truth = det_truth
        m = match_df(spark, det, truth[truth.series_id == 0]).toPandas()
        assert set(m.series_id) == {0} and len(m) == 2 * 2  # 2 algos × 2 tols
        assert match_df(spark, det, truth.iloc[:0]).count() == 0

    def test_score_values(self, spark, det_truth):
        det, truth = det_truth
        s = score(spark, det, truth).toPandas()
        a0 = s[(s.algo == "algoA") & (s.tol == 0.0)].iloc[0]
        # algoA at ±0%: tp=4, fp=1, fn=2.
        assert a0["precision"] == pytest.approx(4 / 5)
        assert a0["recall"] == pytest.approx(4 / 6)
        assert a0["f1"] == pytest.approx(2 * 4 / (2 * 4 + 1 + 2))
        b0 = s[(s.algo == "algoB") & (s.tol == 0.0)].iloc[0]
        assert b0["precision"] == pytest.approx(1.0)
        assert b0["recall"] == pytest.approx(1 / 6)

    def test_aggregation_matches_duckdb_oracle(self, spark, det_truth):
        det, truth = det_truth
        m = match_df(spark, det, truth)
        m.createOrReplaceTempView("match_counts_tbl")
        spark_res = spark.sql(AGG_SQL.format(table="match_counts_tbl"))
        assert_equivalent(spark_res, AGG_SQL.format(table="m"),
                          m=m.toPandas())

    def test_all_empty_detections_zero_scores(self, spark):
        det = spark.createDataFrame(pd.DataFrame(
            [("d", 0, "x", "[]", 0, 0.0)],
            columns=["dataset", "series_id", "algo", "periods", "n_periods",
                     "elapsed_s"]))
        truth = pd.DataFrame([("d", 0, json.dumps([10]))],
                             columns=["dataset", "series_id", "periods"])
        s = score(spark, det, truth).toPandas()
        assert (s["precision"] == 0).all() and (s["recall"] == 0).all()

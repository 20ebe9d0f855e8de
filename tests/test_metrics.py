"""Tests for tolerance matching and the Spark SQL scoring layer.

The aggregation SQL is oracle-checked against DuckDB — the same query
over the same match-count rows must produce identical precision/recall/
F1 rows (``repro.oracle.assert_equivalent``) — and ``score`` as a whole
against a pandas recomputation from ``match_counts``.
"""
import json

import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.sparkrun.detect import DETECT_SCHEMA
from repro.sparkrun.metrics import AGG_SQL, match_counts, match_df, score


def _det_frame(spark, rows):
    """Detection rows (dataset, series_id, algo, periods, error) →
    a DataFrame in ``detect_periods``' schema."""
    return spark.createDataFrame(
        [(d, s, a, json.dumps(p), len(p), 0.01, e) for d, s, a, p, e in rows],
        schema=DETECT_SCHEMA)


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
    det = _det_frame(spark, [
        ("d", 0, "algoA", [20, 50, 100], None),
        ("d", 1, "algoA", [20, 51], None),
        ("d", 0, "algoB", [20], None),
        ("d", 1, "algoB", [], "RuntimeError: kaboom"),
    ])
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
        # algoB's series 1 raised: scored as no period, and counted.
        assert (a0["n_error"], b0["n_error"]) == (0.0, 1.0)

    def test_aggregation_matches_duckdb_oracle(self, spark, det_truth):
        det, truth = det_truth
        m = match_df(spark, det, truth)
        m.createOrReplaceTempView("match_counts_tbl")
        spark_res = spark.sql(AGG_SQL.format(table="match_counts_tbl"))
        assert_equivalent(spark_res, AGG_SQL.format(table="m"),
                          m=m.toPandas())

    def test_all_empty_detections_zero_scores(self, spark):
        det = _det_frame(spark, [("d", 0, "x", [], None)])
        truth = pd.DataFrame([("d", 0, json.dumps([10]))],
                             columns=["dataset", "series_id", "periods"])
        s = score(spark, det, truth).toPandas()
        assert (s["precision"] == 0).all() and (s["recall"] == 0).all()


def _expected_score(det: pd.DataFrame, truth: pd.DataFrame, tols=(0.0, 0.02)):
    """``score`` recomputed in pandas: ``match_counts`` per row and
    tolerance, then AGG_SQL's sums and ratios per (dataset, algo, tol)."""
    tru = {(d, int(s)): json.loads(p) for d, s, p in
           zip(truth.dataset, truth.series_id, truth.periods)}
    rows = [(d, a, tol, *match_counts(json.loads(p), tru[d, int(s)], tol),
             int(e is not None))
            for d, s, a, p, e in zip(det.dataset, det.series_id, det.algo,
                                     det.periods, det.error)
            if (d, int(s)) in tru for tol in tols]
    m = pd.DataFrame(rows, columns=["dataset", "algo", "tol", "tp", "fp",
                                    "fn", "n_error"])
    g = (m.groupby(["dataset", "algo", "tol"], as_index=False).sum()
         .astype({c: float for c in ["tp", "fp", "fn", "n_error"]}))
    tp, fp, fn = g.tp, g.fp, g.fn
    g["precision"] = (tp / (tp + fp)).where(tp + fp > 0, 0.0)
    g["recall"] = (tp / (tp + fn)).where(tp + fn > 0, 0.0)
    g["f1"] = (2 * tp / (2 * tp + fp + fn)).where(2 * tp + fp + fn > 0, 0.0)
    return g


class TestScoreEdgeCases:
    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_score_matches_pandas_recomputation(self, spark, cached):
        det = _det_frame(spark, [
            ("e", 0, "a", [], "ValueError: bad input"),   # raised
            ("e", 0, "b", [20, 20, 50], None),            # repeated period
            ("e", 1, "a", [30], None),                    # truth is []
            ("e", 1, "b", [], None),
            ("e", 2, "a", [20], None),                    # no truth row
            ("f", 0, "a", [20, 51], None),
        ])
        truth = pd.DataFrame(
            [("e", 0, json.dumps([20, 50])), ("e", 1, json.dumps([])),
             ("f", 0, json.dumps([20, 50]))],
            columns=["dataset", "series_id", "periods"])
        if cached:
            det.cache()
        got = score(spark, det, truth).toPandas()
        if cached:
            det.unpersist()
        want = _expected_score(det.toPandas(), truth)
        pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)
        assert got.n_error.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]

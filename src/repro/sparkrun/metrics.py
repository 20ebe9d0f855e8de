"""Detection scoring: tolerance matching + Spark SQL aggregation.

Per-series matching (greedy, in one ``mapInPandas`` over the detections
with the truth shipped as a dict, so nothing is joined or shuffled
before the aggregate): each true period is matched to the nearest unused
detected period within the tolerance (±0% = exact integer match; ±q% =
|det − true| ≤ q·true, minimum slack 1 sample so a ±2% band is
non-degenerate for short periods, as in the paper's "2% tolerance
interval around the ground truth").  Matched pairs are TP; unmatched
detections FP; unmatched truths FN.

The aggregation to precision/recall/F1 per (dataset, algo) is a Spark
SQL query; tests oracle-check it against DuckDB via
``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

import json
from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (DoubleType, IntegerType, StringType,
                               StructField, StructType)

MATCH_SCHEMA = StructType([
    StructField("dataset", StringType()),
    StructField("series_id", IntegerType()),
    StructField("algo", StringType()),
    StructField("tol", DoubleType()),
    StructField("tp", IntegerType()),
    StructField("fp", IntegerType()),
    StructField("fn", IntegerType()),
])

AGG_SQL = """
SELECT dataset, algo, tol,
       CAST(SUM(tp) AS DOUBLE) AS tp,
       CAST(SUM(fp) AS DOUBLE) AS fp,
       CAST(SUM(fn) AS DOUBLE) AS fn,
       CASE WHEN SUM(tp) + SUM(fp) = 0 THEN 0.0
            ELSE SUM(tp) / CAST(SUM(tp) + SUM(fp) AS DOUBLE) END AS precision,
       CASE WHEN SUM(tp) + SUM(fn) = 0 THEN 0.0
            ELSE SUM(tp) / CAST(SUM(tp) + SUM(fn) AS DOUBLE) END AS recall,
       CASE WHEN 2 * SUM(tp) + SUM(fp) + SUM(fn) = 0 THEN 0.0
            ELSE 2.0 * SUM(tp) / CAST(2 * SUM(tp) + SUM(fp) + SUM(fn) AS DOUBLE)
       END AS f1
FROM {table}
GROUP BY dataset, algo, tol
ORDER BY dataset, algo, tol
"""


def match_counts(detected: list[int], truth: list[int], tol: float
                 ) -> tuple[int, int, int]:
    """Greedy tolerance matching → (tp, fp, fn)."""
    remaining = sorted(detected)
    tp = 0
    for tr in sorted(truth):
        slack = 0 if tol == 0 else max(1.0, tol * tr)
        best, best_d = None, None
        for d in remaining:
            dd = abs(d - tr)
            if dd <= slack and (best_d is None or dd < best_d):
                best, best_d = d, dd
        if best is not None:
            remaining.remove(best)
            tp += 1
    fp = len(remaining)
    fn = len(truth) - tp
    return tp, fp, fn


def match_df(spark: SparkSession, det: DataFrame, truth: pd.DataFrame,
             tols: tuple[float, ...] = (0.0, 0.02)) -> DataFrame:
    """Per-series TP/FP/FN rows; a detection whose series has no truth row
    is dropped."""
    tru = {(d, int(s)): json.loads(p) for d, s, p in
           zip(truth["dataset"], truth["series_id"], truth["periods"])}

    def match_batches(batches: Iterable[pd.DataFrame]) -> Iterable[pd.DataFrame]:
        for pdf in batches:
            keys = zip(pdf["dataset"], pdf["series_id"])
            yield pd.DataFrame(
                [(*k, algo, float(tol), *match_counts(json.loads(p), tru[k], tol))
                 for k, algo, p in zip(keys, pdf["algo"], pdf["periods"])
                 if k in tru for tol in tols],
                columns=MATCH_SCHEMA.fieldNames())

    return (det.select("dataset", "series_id", "algo", "periods")
            .mapInPandas(match_batches, schema=MATCH_SCHEMA))


def score(spark: SparkSession, det: DataFrame, truth: pd.DataFrame,
          tols: tuple[float, ...] = (0.0, 0.02)) -> DataFrame:
    """Precision/recall/F1 per (dataset, algo, tol) via Spark SQL."""
    m = match_df(spark, det, truth, tols)
    m.createOrReplaceTempView("match_counts_tbl")
    return spark.sql(AGG_SQL.format(table="match_counts_tbl"))

"""Detection scoring: tolerance matching + Spark SQL aggregation.

Per-series matching runs on the driver: ``match_df`` collects the
detections (one short JSON list per series and algorithm) with one
Spark action, matches each against the truth, and hands the match-count
rows back to Spark as one Arrow partition, so the aggregate runs in one stage
with no Python worker, join or shuffle.  Each true period is matched
to the nearest unused detected period within the tolerance (±0% = exact
integer match; ±q% = |det − true| ≤ q·true, minimum slack 1 sample so a
±2% band is non-degenerate for short periods, as in the paper's "2%
tolerance interval around the ground truth").  Matched pairs are TP;
unmatched detections FP; unmatched truths FN.  A row whose algorithm
raised scores as "no period" and is counted in ``n_error``.

The aggregation to precision/recall/F1 per (dataset, algo) is a Spark
SQL query; tests oracle-check it against DuckDB via
``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import to_arrow_schema
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
    StructField("n_error", IntegerType()),
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
       END AS f1,
       CAST(SUM(n_error) AS DOUBLE) AS n_error
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
    """Per-series TP/FP/FN rows, and ``n_error`` 1 where the algorithm
    raised; a detection whose series has no truth row is dropped.

    Runs one Spark action when called, to collect ``det``; a caller that
    reads ``det`` again caches it first."""
    tru = {(d, int(s)): json.loads(p) for d, s, p in
           zip(truth["dataset"], truth["series_id"], truth["periods"])}
    pdf = det.select("dataset", "series_id", "algo", "periods", "error").toPandas()
    rows = []
    for d, s, algo, p, err in pdf.itertuples(index=False):
        key = (d, int(s))
        if key in tru:
            rows += [(*key, algo, float(tol),
                      *match_counts(json.loads(p), tru[key], tol), int(err is not None))
                     for tol in tols]
    # An Arrow table becomes a LocalTableScan, so no Python worker reads
    # the rows back; as one partition, AGG_SQL's grouping and ordering
    # need no Exchange.
    m = pa.Table.from_pandas(pd.DataFrame(rows, columns=MATCH_SCHEMA.fieldNames()),
                             schema=to_arrow_schema(MATCH_SCHEMA),
                             preserve_index=False)
    return spark.createDataFrame(m).coalesce(1)


def score(spark: SparkSession, det: DataFrame, truth: pd.DataFrame,
          tols: tuple[float, ...] = (0.0, 0.02)) -> DataFrame:
    """Precision/recall/F1 and the error count per (dataset, algo, tol)
    via Spark SQL."""
    m = match_df(spark, det, truth, tols)
    m.createOrReplaceTempView("match_counts_tbl")
    return spark.sql(AGG_SQL.format(table="match_counts_tbl"))

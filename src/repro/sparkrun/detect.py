"""Spark batch detection layer.

The paper's contribution is a per-series algorithm (repro hint:
``single_node_parallelizable``), so the Spark layering is a DataFrame
job with no shuffle: the driver turns the long-format pandas frame
``(dataset, series_id, t, y)`` into one row per series ``(dataset,
series_id, y: array<double>)``, and ``mapInPandas`` runs every requested
algorithm on each row, emitting one row per (series, algorithm) with the
detected periods (JSON), the wall-clock time — the timing column feeds
Table 7 — and the error, if the algorithm raised.

All algorithms are exposed through one registry so jobs/tests select
them by name.
"""
from __future__ import annotations

import json
import time
from typing import Callable, Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (DoubleType, IntegerType, StringType,
                               StructField, StructType)

from repro.baselines import autoperiod, find_frequency, sazed, siegel, wavelet_fisher
from repro.core import ablations
from repro.core.robust_period import detect as robust_period_detect

#: name → callable(np.ndarray) -> list[int]
ALGOS: dict[str, Callable[[np.ndarray], list[int]]] = {
    "robust_period": robust_period_detect,
    "find_frequency": find_frequency.detect,
    "sazed_maj": sazed.detect_maj,
    "sazed_opt": sazed.detect_opt,
    "siegel": siegel.detect,
    "autoperiod": autoperiod.detect,
    "wavelet_fisher": wavelet_fisher.detect,
    "huber_fisher": ablations.huber_fisher,
    "huber_siegel_acf": ablations.huber_siegel_acf,
    "nr_robust_period": ablations.nr_robust_period,
}

SINGLE_ALGOS = ("find_frequency", "sazed_maj", "sazed_opt", "robust_period")
MULTI_ALGOS = ("siegel", "autoperiod", "wavelet_fisher", "robust_period")
ABLATION_ALGOS = ("huber_fisher", "huber_siegel_acf", "nr_robust_period",
                  "robust_period")

DETECT_SCHEMA = StructType([
    StructField("dataset", StringType()),
    StructField("series_id", IntegerType()),
    StructField("algo", StringType()),
    StructField("periods", StringType()),   # JSON int list
    StructField("n_periods", IntegerType()),
    StructField("elapsed_s", DoubleType()),
    StructField("error", StringType()),     # "<ExceptionType>: <message>" or null
])


def series_df(spark: SparkSession, data: pd.DataFrame,
              partitions: int | None = None) -> DataFrame:
    """Long-format pandas frame → one row per series, ``y`` in ``t`` order.

    ``createDataFrame`` cuts the n rows into p = min(n, defaultParallelism)
    slices at j·n//p, one per task; the rows are laid out so the slices
    are a longest-first round-robin deal, a similar mix of costs per task.
    ``partitions`` is unused: another slice count would take a shuffle."""
    rows = sorted(((d, int(s), y.to_numpy(dtype=float)) for (d, s), y in
                   data.sort_values("t").groupby(["dataset", "series_id"])["y"]),
                  key=lambda r: -len(r[2]))
    n = len(rows)
    p = min(n, spark.sparkContext.defaultParallelism)
    seats = sorted((r, j) for j in range(p)
                   for r in range((j + 1) * n // p - j * n // p))
    rows = [rows[k] for k in sorted(range(n), key=lambda k: seats[k][::-1])]
    return spark.createDataFrame(pa.Table.from_arrays(
        list(zip(*rows)), names=["dataset", "series_id", "y"]))


def detect_periods(spark: SparkSession, data: pd.DataFrame,
                   algos: Iterable[str]) -> DataFrame:
    """Run the named algorithms over every series; one output row per
    (dataset, series_id, algo)."""
    algos = list(algos)
    if unknown := set(algos) - set(ALGOS):
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")

    def detect_batches(batches: Iterable[pd.DataFrame]) -> Iterable[pd.DataFrame]:
        for pdf in batches:
            out = []
            for dataset, sid, y in zip(pdf["dataset"], pdf["series_id"], pdf["y"]):
                y = np.array(y, dtype=float)   # writable copy of the Arrow buffer
                for name in algos:
                    t0 = time.perf_counter()
                    try:
                        periods, error = sorted(int(p) for p in ALGOS[name](y)), None
                    except Exception as e:
                        periods, error = [], f"{type(e).__name__}: {e}"
                    dt = time.perf_counter() - t0
                    out.append((dataset, sid, name, json.dumps(periods),
                                len(periods), dt, error))
            yield pd.DataFrame(out, columns=DETECT_SCHEMA.fieldNames())

    return series_df(spark, data).mapInPandas(detect_batches, schema=DETECT_SCHEMA)


def timing_summary(det: DataFrame) -> DataFrame:
    """Mean per-series wall time per (dataset, algo) — Table 7's metric."""
    return (det.groupBy("dataset", "algo")
            .agg(F.avg("elapsed_s").alias("mean_elapsed_s"),
                 F.count("*").alias("n_series"))
            .orderBy("dataset", "algo"))

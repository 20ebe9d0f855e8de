"""One runner per evaluation table (paper §4).  Each returns a pandas
DataFrame shaped like the paper's table; ``jobs/tableN.py`` wraps these
for spark-submit, ``benchmarks/`` times them, and EXPERIMENTS.md records
paper-vs-measured numbers.

``n_series`` trades fidelity for compute (the paper uses 1000 series per
config; see DESIGN.md §5).
"""
from __future__ import annotations

import json

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import datasets
from repro.forecast.harmonic import evaluate_forecast
from repro.sparkrun.detect import (ABLATION_ALGOS, MULTI_ALGOS, SINGLE_ALGOS,
                                   detect_periods, timing_summary)
from repro.sparkrun.metrics import score


def _score_pdf(spark: SparkSession, data: pd.DataFrame, truth: pd.DataFrame,
               algos) -> pd.DataFrame:
    det = detect_periods(spark, data, algos)
    det.cache()
    s = score(spark, det, truth).toPandas()
    det.unpersist()
    return s


def _pivot(s: pd.DataFrame, value: str) -> pd.DataFrame:
    """(dataset, algo, tol) rows → algo × (dataset, ±0%/±2%) grid."""
    s = s.copy()
    s["tol"] = s["tol"].map({0.0: "±0%", 0.02: "±2%"})
    p = s.pivot_table(index="algo", columns=["dataset", "tol"],
                      values=value, aggfunc="first")
    return p.round(3)


def table1(spark: SparkSession, *, n_series: int = 50, seed: int = 0,
           n_cran: int = 82) -> pd.DataFrame:
    """Single-period precision: synthetic sin (mild & severe) + CRAN-like."""
    d1, t1 = datasets.synthetic_suite(kind="sin", periods=(100,),
                                      noise_var=0.1, outlier_ratio=0.01,
                                      n_series=n_series, seed=seed,
                                      name="sin_mild")
    d2, t2 = datasets.synthetic_suite(kind="sin", periods=(100,),
                                      noise_var=2.0, outlier_ratio=0.2,
                                      n_series=n_series, seed=seed + 1,
                                      name="sin_severe")
    d3, t3 = datasets.cran_like(n_series=n_cran, seed=seed + 7)
    data = pd.concat([d1, d2, d3], ignore_index=True)
    truth = pd.concat([t1, t2, t3], ignore_index=True)
    s = _score_pdf(spark, data, truth, SINGLE_ALGOS)
    return _pivot(s, "precision")


def table2(spark: SparkSession, *, n_series: int = 50, seed: int = 0,
           n_yahoo: int = 40) -> pd.DataFrame:
    """Multi-period F1: synthetic sin (mild & severe) + Yahoo-like A3/A4."""
    d1, t1 = datasets.synthetic_suite(kind="sin", periods=(20, 50, 100),
                                      noise_var=0.1, outlier_ratio=0.01,
                                      n_series=n_series, seed=seed,
                                      name="sin_mild")
    d2, t2 = datasets.synthetic_suite(kind="sin", periods=(20, 50, 100),
                                      noise_var=1.0, outlier_ratio=0.1,
                                      n_series=n_series, seed=seed + 1,
                                      name="sin_severe")
    d3, t3 = datasets.yahoo_like("A3", n_series=n_yahoo, seed=seed + 11)
    d4, t4 = datasets.yahoo_like("A4", n_series=n_yahoo, seed=seed + 11)
    data = pd.concat([d1, d2, d3, d4], ignore_index=True)
    truth = pd.concat([t1, t2, t3, t4], ignore_index=True)
    s = _score_pdf(spark, data, truth, MULTI_ALGOS)
    return _pivot(s, "f1")


def table3(spark: SparkSession, *, n_series: int = 50, seed: int = 0
           ) -> pd.DataFrame:
    """Multi-period F1 on non-sinusoidal (square/triangle) waves."""
    frames, truths = [], []
    for kind in ("square", "triangle"):
        d, t = datasets.synthetic_suite(kind=kind, periods=(20, 50, 100),
                                        noise_var=0.1, outlier_ratio=0.01,
                                        n_series=n_series, seed=seed,
                                        name=kind)
        frames.append(d)
        truths.append(t)
    s = _score_pdf(spark, pd.concat(frames, ignore_index=True),
                   pd.concat(truths, ignore_index=True), MULTI_ALGOS)
    return _pivot(s, "f1")


def table4(spark: SparkSession, *, seed: int = 23) -> pd.DataFrame:
    """Detected periods per algorithm on the 6 cloud-like datasets."""
    data, truth = datasets.cloud_like(seed=seed)
    det = detect_periods(spark, data, MULTI_ALGOS).toPandas()
    det["true"] = det.apply(
        lambda r: json.dumps(datasets.truth_periods(truth, r["dataset"],
                                                    r["series_id"])), axis=1)
    det = det.sort_values(["series_id", "algo"])
    return det[["series_id", "true", "algo", "periods"]].reset_index(drop=True)


def table5(spark: SparkSession, *, n_series: int = 50, seed: int = 0
           ) -> pd.DataFrame:
    """Ablations on synthetic sin with σ²=2, η=0.2 (pre/recall/F1)."""
    data, truth = datasets.synthetic_suite(kind="sin", periods=(20, 50, 100),
                                           noise_var=2.0, outlier_ratio=0.2,
                                           n_series=n_series, seed=seed,
                                           name="sin_ablation")
    s = _score_pdf(spark, data, truth, ABLATION_ALGOS)
    s["tol"] = s["tol"].map({0.0: "±0%", 0.02: "±2%"})
    p = s.pivot_table(index="algo", columns="tol",
                      values=["precision", "recall", "f1"], aggfunc="first")
    return p.round(3)


def table6(spark: SparkSession, *, n_series: int = 20, seed: int = 0,
           horizons=(84, 168), train_len: int = 840) -> pd.DataFrame:
    """Downstream forecasting on Yahoo-A4-like data: each algorithm's
    detected periods feed the harmonic forecaster; report RMSE/MAE."""
    data, truth = datasets.yahoo_like("A4", n_series=n_series, seed=seed + 11)
    det = detect_periods(spark, data, MULTI_ALGOS).toPandas()
    wide = data.pivot_table(index="t", columns="series_id", values="y")
    rows = []
    for _, r in det.iterrows():
        y = wide[r["series_id"]].to_numpy()
        periods = json.loads(r["periods"])
        ev = evaluate_forecast(y, train_len, horizons, periods)
        for h, m in ev.items():
            rows.append((r["algo"], int(r["series_id"]), h,
                         m["rmse"], m["mae"]))
    res = pd.DataFrame(rows, columns=["algo", "series_id", "h", "rmse", "mae"])
    out = (res.groupby(["algo", "h"])[["rmse", "mae"]].mean().reset_index()
           .pivot_table(index="algo", columns="h", values=["rmse", "mae"]))
    return out.round(1)


def length_suite(*, n_series: int, seed: int, lengths
                 ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The Table 7/8 series and truth, one dataset ``len{L}`` per length.

    The paper samples a length-1000 3-periodic series to other lengths;
    we generate each length directly with periods scaled ∝ length so the
    periodic structure (cycles per series) is preserved.
    """
    frames, truths = [], []
    for L in lengths:
        scale = L / 1000.0
        periods = tuple(max(4, int(round(p * scale))) for p in (20, 50, 100))
        d, t = datasets.synthetic_suite(kind="sin", periods=periods, n=L,
                                        noise_var=0.1, outlier_ratio=0.01,
                                        n_series=n_series, seed=seed,
                                        name=f"len{L}")
        frames.append(d)
        truths.append(t)
    return (pd.concat(frames, ignore_index=True),
            pd.concat(truths, ignore_index=True))


def table78(spark: SparkSession, *, n_series: int = 30, seed: int = 0,
            lengths=(500, 1000, 2000)) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Running time (Table 7) and F1 (Table 8) vs series length, on
    ``length_suite``."""
    data, truth = length_suite(n_series=n_series, seed=seed, lengths=lengths)
    det = detect_periods(spark, data, MULTI_ALGOS)
    det.cache()
    timing = timing_summary(det).toPandas().pivot_table(
        index="algo", columns="dataset", values="mean_elapsed_s").round(4)
    s = score(spark, det, truth).toPandas()
    f1 = s[s.tol == 0.02].pivot_table(index="algo", columns="dataset",
                                      values="f1").round(3)
    det.unpersist()
    return timing, f1

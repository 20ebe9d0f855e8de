"""Correctness: the job pass against the kernel pass, and quality metrics.

``repro.sparkrun.detect`` turns any exception into ``[]``, so a worker
crash only shows as a difference from the in-process kernel pass.
"""
from __future__ import annotations

import json

import pandas as pd

from repro.sparkrun.metrics import match_counts

TOLS = (0.0, 0.02)


def compare_detections(kernel_periods: dict, rows: pd.DataFrame) -> dict:
    """Series whose job-pass rows differ from the kernel pass.

    ``kernel_periods`` maps ((dataset, series_id), algo) → sorted periods
    (``None`` when the kernel call raised).  Returns key → reason.
    """
    bad = {}
    seen = {}
    for r in rows.itertuples(index=False):
        k = ((r.dataset, int(r.series_id)), r.algo)
        seen[k] = seen.get(k, 0) + 1
        if k not in kernel_periods:
            bad.setdefault(k[0], f"{r.algo}: unexpected row")
        elif json.loads(r.periods) != kernel_periods[k]:
            bad.setdefault(k[0], f"{r.algo}: job {r.periods} != kernel "
                                 f"{kernel_periods[k]}")
    for k in kernel_periods:
        n = seen.get(k, 0)
        if n != 1:
            bad.setdefault(k[0], f"{k[1]}: {n} job rows")
    return bad


def expected_score(kernel_periods: dict, truth: pd.DataFrame) -> pd.DataFrame:
    """The ``score`` frame recomputed in pandas from the kernel pass."""
    tru = {(d, int(s)): json.loads(p)
           for d, s, p in zip(truth.dataset, truth.series_id, truth.periods)}
    rows = []
    for ((dataset, sid), algo), det in kernel_periods.items():
        for tol in TOLS:
            rows.append((dataset, algo, tol,
                         *match_counts(det or [], tru[(dataset, sid)], tol)))
    m = pd.DataFrame(rows, columns=["dataset", "algo", "tol", "tp", "fp", "fn"])
    g = m.groupby(["dataset", "algo", "tol"], as_index=False)[["tp", "fp", "fn"]].sum()
    g[["tp", "fp", "fn"]] = g[["tp", "fp", "fn"]].astype(float)
    tp, fp, fn = g.tp, g.fp, g.fn
    g["precision"] = (tp / (tp + fp)).where(tp + fp > 0, 0.0)
    g["recall"] = (tp / (tp + fn)).where(tp + fn > 0, 0.0)
    g["f1"] = (2 * tp / (2 * tp + fp + fn)).where(2 * tp + fp + fn > 0, 0.0)
    return g


def compare_score(score: pd.DataFrame, expected: pd.DataFrame) -> set:
    """Datasets whose score rows differ from the recomputation."""
    keys = ["dataset", "algo", "tol"]
    cols = ["tp", "fp", "fn", "precision", "recall", "f1"]
    j = expected.merge(score, on=keys, how="outer", suffixes=("_e", "_s"),
                       indicator=True)
    bad = set(j.loc[j["_merge"] != "both", "dataset"])
    both = j[j["_merge"] == "both"]
    for c in cols:
        diff = (both[f"{c}_e"] - both[f"{c}_s"]).abs() > 1e-12
        bad |= set(both.loc[diff, "dataset"])
    return bad


def failures(kres, wl, job_runs) -> dict:
    """Failed series → first reason: a kernel call raised or changed its
    output between rounds, or a job's detections or score rows differ from
    the kernel pass.  ``job_runs`` is [(detection rows, score frame)]."""
    failed = {}
    for (key, algo), msg in kres.errors.items():
        failed.setdefault(key, f"{algo} raised {msg}")
    for key in kres.unstable:
        failed.setdefault(key, "kernel output changed between rounds")
    expected = expected_score(kres.periods, wl.truth)
    by_dataset = {}
    for d, s in zip(wl.truth.dataset, wl.truth.series_id):
        by_dataset.setdefault(d, []).append((d, int(s)))
    for rows, score in job_runs:
        for key, msg in compare_detections(kres.periods, rows).items():
            failed.setdefault(key, msg)
        for ds in compare_score(score, expected):
            for key in by_dataset.get(ds, []):
                failed.setdefault(key, f"score rows of {ds} differ from "
                                       "the recomputation")
    return failed


def quality(kernel_periods: dict, truth: pd.DataFrame, algo="robust_period"):
    """RobustPeriod F1 at ±2% pooled over the workload, and the share of
    series with at least one period that matches no true period at ±2%."""
    tp = fp = fn = spurious = n = 0
    for d, s, p in zip(truth.dataset, truth.series_id, truth.periods):
        det = kernel_periods.get(((d, int(s)), algo)) or []
        tru = json.loads(p)
        a, b, c = match_counts(det, tru, 0.02)
        tp, fp, fn = tp + a, fp + b, fn + c
        n += 1
        spurious += any(all(abs(x - t) > max(1.0, 0.02 * t) for t in tru)
                        for x in det)
    denom = 2 * tp + fp + fn
    return {"f1": 2 * tp / denom if denom else 0.0,
            "spurious_frac": spurious / n}

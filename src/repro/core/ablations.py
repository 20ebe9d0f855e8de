"""Ablation variants of RobustPeriod (paper §4.3.1, Table 5).

* **Huber-Fisher** — no MODWT decoupling: Huber-periodogram on the whole
  (preprocessed) series + Fisher's test → at most one period.
* **Huber-Siegel-ACF** — Huber-periodogram + Siegel's multi-peak test for
  candidates, validated by the AUTOPERIOD-style ACF hill check.
* **NR-RobustPeriod** — the full RobustPeriod procedure with every robust
  estimator swapped for its classical counterpart (plain wavelet
  variance, ordinary periodogram, classic ACF).
"""
from __future__ import annotations

import numpy as np

from .acf import acf_hill_valid, classic_acf
from .fisher import fisher_test, siegel_candidates
from .huber_periodogram import huber_periodogram
from .preprocess import preprocess
from .robust_period import MIN_PERIOD, detect_full


def huber_fisher(y: np.ndarray) -> list[int]:
    """Huber-periodogram + Fisher's test, no wavelet decoupling."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 16:
        return []
    x = preprocess(y)
    P = huber_periodogram(x)
    sig, k_star, _ = fisher_test(P)
    if not sig or k_star < 1:
        return []
    period = int(round(2 * n / k_star))
    return [period] if MIN_PERIOD <= period <= n // 2 else []


def huber_siegel_acf(y: np.ndarray) -> list[int]:
    """Huber-periodogram + Siegel candidates + ACF-hill validation."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 16:
        return []
    x = preprocess(y)
    P = huber_periodogram(x)
    ks = siegel_candidates(P)
    a = classic_acf(x)
    out = []
    for k in ks:
        cand = int(round(2 * n / k))
        if cand < MIN_PERIOD or cand > n // 2:
            continue
        ok, refined = acf_hill_valid(a, k)
        if ok:
            out.append(refined)
    return sorted(set(out))


def nr_robust_period(y: np.ndarray) -> list[int]:
    """Non-robust RobustPeriod: same procedure, classical estimators."""
    return detect_full(y, robust=False).periods

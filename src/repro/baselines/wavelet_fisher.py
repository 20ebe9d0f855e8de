"""Wavelet-Fisher baseline (Almasri 2011): decimated DWT decouples
periodicities; Fisher's test detects a single period per detail level.

A period detected at index k of level-j detail coefficients (length
``N_j = N/2^j``, sampled every ``2^j`` points) maps back to the original
sampling as ``(N_j / k) · 2^j``.
"""
from __future__ import annotations

import numpy as np

from repro.core.fisher import fisher_test
from repro.core.huber_periodogram import ordinary_periodogram
from repro.core.preprocess import detrend_normalize
from repro.core.robust_period import merge_periods
from repro.core.wavelets import dwt

WAVELET = "db4"
#: Ceiling on the DWT depth; the depth used is ``log2(N) − 3``.
MAX_LEVEL = 8
#: Shortest period reported.
MIN_PERIOD = 2


def detect(y: np.ndarray) -> list[int]:
    """Periods from per-level Fisher tests (near-duplicates merged)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 32:
        return []
    x = detrend_normalize(y)
    level = max(1, min(MAX_LEVEL, int(np.log2(n)) - 3))
    details, _ = dwt(x, WAVELET, level)
    found: list[tuple[int, float]] = []
    for j, d in enumerate(details, start=1):
        if d.size < 8:
            continue
        P = ordinary_periodogram(d)
        sig, k_star, _ = fisher_test(P)
        if not sig or k_star < 1:
            continue
        period = int(round(d.size / k_star * 2**j))
        if MIN_PERIOD <= period <= n // 2:
            found.append((period, float(np.var(d))))
    return merge_periods(found)

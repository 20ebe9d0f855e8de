"""Siegel baseline (Siegel 1980; Walden 1992): periodogram-based compound
periodicity detection extending Fisher's test to multiple periods.

Every normalized periodogram ordinate exceeding λ·g_crit(α) (λ = 0.6) is
declared periodic; contiguous exceeding ordinates collapse to one peak.
The series is zero-padded to 2N (as in RobustPeriod) so the frequency
resolution is comparable across algorithms.
"""
from __future__ import annotations

import numpy as np

from repro.core.fisher import siegel_candidates
from repro.core.huber_periodogram import ordinary_periodogram, zero_pad
from repro.core.preprocess import detrend_normalize

#: Shortest period reported.
MIN_PERIOD = 2


def detect(y: np.ndarray) -> list[int]:
    """Detected periods (may contain spurious entries by design: the
    paper's Table 4 shows Siegel emitting extras like (655, 769, …))."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 16:
        return []
    P = ordinary_periodogram(zero_pad(detrend_normalize(y)))
    ks = siegel_candidates(P)
    out = []
    for k in ks:
        p = int(round(2 * n / k))
        if MIN_PERIOD <= p <= n // 2:
            out.append(p)
    return sorted(set(out))

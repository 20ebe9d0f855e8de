"""AUTOPERIOD baseline (Vlachos, Yu & Castelli, SDM 2005).

Two-stage time/frequency method:

1. *Candidate generation*: periodogram ordinates whose power exceeds a
   permutation-derived threshold (the max periodogram power of shuffled
   copies, 95th percentile) become period hints ``N'/k``.
2. *Validation*: a hint is a true period iff it lies on a *hill* of the
   ACF — the ACF has an interior local maximum inside the hint's
   resolution interval; the refined period is that ACF peak.
"""
from __future__ import annotations

import numpy as np

from repro.core.acf import acf_hill_valid, classic_acf
from repro.core.fisher import run_maxima
from repro.core.huber_periodogram import ordinary_periodogram, zero_pad
from repro.core.preprocess import detrend_normalize

#: Permutation threshold: the ``QUANTILE`` of the largest ordinate over
#: ``N_PERM`` shuffles drawn from a generator seeded with ``SEED``.
N_PERM = 32
QUANTILE = 0.95
SEED = 0
#: Shortest period reported.
MIN_PERIOD = 2


def _permutation_threshold(x: np.ndarray) -> float:
    rng = np.random.default_rng(SEED)
    maxima = np.empty(N_PERM)
    for i in range(N_PERM):
        P = ordinary_periodogram(zero_pad(rng.permutation(x)))
        maxima[i] = P[1:].max()
    return float(np.quantile(maxima, QUANTILE))


def detect(y: np.ndarray) -> list[int]:
    """Validated periods (deduped, sorted)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 16:
        return []
    x = detrend_normalize(y)
    P = ordinary_periodogram(zero_pad(x))
    thresh = _permutation_threshold(x)
    above = P > thresh
    above[0] = False
    a = classic_acf(x)
    out = []
    for k in run_maxima(P, above):
        cand = 2 * n / k
        if cand < MIN_PERIOD or cand > n // 2:
            continue
        ok, refined = acf_hill_valid(a, k)
        if ok:
            out.append(refined)
    return sorted(set(out))

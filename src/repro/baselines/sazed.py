"""SAZED baseline (Toller, Santos & Kern, DAMI 2019): parameter-free
single-season-length ensemble.

Six base estimates — S (spectral-density argmax), A (ACF argmax), Z
(mean zero-crossing spacing) applied to both the series and to its ACF:

* ``sazed_maj``: majority vote over the six (tolerance-clustered mode);
* ``sazed_opt``: the "optimal" ensemble — among the six candidates, pick
  the one whose periodicity is best supported by the ACF.  The original
  selects via an ACF-based quality criterion; we score each candidate p
  by the mean interpolated ACF at its multiples (documented substitution,
  DESIGN.md §5 — same monotone "ACF supports p" principle).

Both detect a single period, as in the paper (Table 1 classifies SAZED
as single-periodicity).
"""
from __future__ import annotations

import numpy as np

from repro.core.acf import classic_acf
from repro.core.preprocess import detrend_normalize


def _spectral_estimate(x: np.ndarray) -> int:
    P = np.abs(np.fft.rfft(x)) ** 2
    if P.size < 3:
        return 0
    P[0] = 0.0
    k = int(np.argmax(P))
    return int(round(x.size / k)) if k >= 1 else 0


def _acf_argmax_estimate(x: np.ndarray) -> int:
    a = classic_acf(x, unbiased=False)
    n = x.size
    if n < 8:
        return 0
    lo, hi = 2, max(3, n // 2)
    return int(np.argmax(a[lo:hi])) + lo


def _zero_crossing_estimate(x: np.ndarray) -> int:
    x = x - np.mean(x)
    s = np.sign(x)
    s[s == 0] = 1
    cross = np.where(np.diff(s) != 0)[0]
    if cross.size < 2:
        return 0
    spacing = np.diff(cross)
    # Consecutive zero crossings of a periodic signal are half a period
    # apart on average.
    return int(round(2.0 * float(np.mean(spacing))))


def sazed_components(x: np.ndarray) -> list[int]:
    """The six base estimates on the (detrended, normalized) series;
    none for an all-zero (constant or all-missing) series."""
    if not x.any():
        return []
    a = classic_acf(x, unbiased=False)
    ests = [
        _spectral_estimate(x),
        _acf_argmax_estimate(x),
        _zero_crossing_estimate(x),
        _spectral_estimate(a),
        _acf_argmax_estimate(a),
        _zero_crossing_estimate(a),
    ]
    n = x.size
    return [e for e in ests if 2 <= e <= n // 2]


def _acf_support(a: np.ndarray, p: int, n: int) -> float:
    """Mean ACF at the multiples of p (linear interpolation)."""
    lags = np.arange(p, n // 2 + 1, p, dtype=float)
    if lags.size == 0:
        return -np.inf
    idx = np.arange(a.size)
    return float(np.mean(np.interp(lags, idx, a)))


def sazed_maj(y: np.ndarray) -> int:
    """Majority vote: largest tolerance-cluster of the six estimates."""
    x = detrend_normalize(np.asarray(y, dtype=float))
    ests = sazed_components(x)
    if not ests:
        return 0
    ests = sorted(ests)
    clusters: list[list[int]] = [[ests[0]]]
    for e in ests[1:]:
        if abs(e - clusters[-1][-1]) <= max(1, 0.05 * e):
            clusters[-1].append(e)
        else:
            clusters.append([e])
    best = max(clusters, key=len)
    if len(best) < 2:
        # No agreement: fall back to the spectral estimate of the ACF
        # (the most reliable single component per the SAZED paper).
        return _spectral_estimate(classic_acf(x, unbiased=False)) or ests[0]
    return int(round(float(np.median(best))))


def sazed_opt(y: np.ndarray) -> int:
    """Optimal ensemble: candidate with the strongest ACF support."""
    x = detrend_normalize(np.asarray(y, dtype=float))
    ests = sazed_components(x)
    if not ests:
        return 0
    a = classic_acf(x, unbiased=False)
    n = x.size
    return max(set(ests), key=lambda p: _acf_support(a, p, n))


def detect_maj(y: np.ndarray) -> list[int]:
    p = sazed_maj(y)
    return [p] if p >= 2 else []


def detect_opt(y: np.ndarray) -> list[int]:
    p = sazed_opt(y)
    return [p] if p >= 2 else []

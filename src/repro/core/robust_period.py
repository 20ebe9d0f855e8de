"""The RobustPeriod pipeline (paper §3, Fig. 1).

``detect(y)`` →  sorted list of detected integer periods.

Steps: preprocess (§3.2) → MODWT decoupling + robust unbiased wavelet
variance ranking (§3.3) → per-level Huber-periodogram + Fisher's test for
a candidate, Huber-ACF-Med for validation (§3.4) → cross-level merge.

Per-level diagnostics (variance, p-value, candidate, final period) are
returned for the Fig. 5-style introspection tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acf import acf_med_period, classic_acf, huber_acf
from .fisher import fisher_test
from .huber_periodogram import (huber_periodogram, ordinary_periodogram,
                                zero_pad)
from .preprocess import preprocess
from .wavelets import max_usable_level, modwt, robust_wavelet_variance

#: Decoupling wavelet.
WAVELET = "db10"
#: Ceiling on the MODWT depth; the usable depth is governed by the series
#: length (``max_usable_level``).  The paper's Fig. 5 runs 8 levels on
#: N=1000; a daily period at minute resolution (T=1440, the cloud datasets
#: of Table 4) needs level 10, hence 12.
MAX_LEVEL = 12
#: A level is searched only if it holds this share of the total wavelet
#: variance (§3.3).
ENERGY_FRAC = 0.05
#: Shortest period reported.
MIN_PERIOD = 4
#: Periods from different levels within this relative gap are one period.
MERGE_REL_TOL = 0.1


@dataclass
class LevelResult:
    """Diagnostics for one wavelet level (one row of the paper's Fig. 5).

    A selected level whose band's longest period 2^(level+1) is at most
    ``min_period`` is not searched, so it keeps the defaults below.
    """
    level: int
    variance: float
    selected: bool = False
    pvalue: float = 1.0
    candidate: int = 0          # period from Fisher's test (N'/k*), 0 = none
    k_star: int = 0
    period: int = 0             # final period after Huber-ACF-Med, 0 = none


@dataclass
class RobustPeriodResult:
    periods: list[int] = field(default_factory=list)
    levels: list[LevelResult] = field(default_factory=list)


def merge_periods(cands: list[tuple[int, float]]) -> list[int]:
    """Collapse near-duplicate periods detected at adjacent levels.

    ``cands`` is (period, weight) — the weight is the level's wavelet
    variance; within a cluster (relative gap ≤ ``MERGE_REL_TOL``) the
    highest-weight period wins.  Returns sorted unique periods.
    """
    if not cands:
        return []
    cands = sorted(cands)
    out: list[tuple[int, float]] = []
    for p, w in cands:
        if out and abs(p - out[-1][0]) <= MERGE_REL_TOL * max(p, out[-1][0]):
            if w > out[-1][1]:
                out[-1] = (p, w)
        else:
            out.append((p, w))
    return sorted(p for p, _ in out)


def detect_full(
    y: np.ndarray,
    *,
    min_period: int = MIN_PERIOD,
    robust: bool = True,
) -> RobustPeriodResult:
    """Run RobustPeriod with diagnostics.

    ``robust=False`` is the NR-RobustPeriod ablation (Table 5): the same
    procedure with every robust estimator (wavelet variance, periodogram,
    ACF) replaced by its classical counterpart.

    Level j searches periods in its band [2^j, 2^(j+1)].  A selected level
    whose longest band period 2^(j+1) is at most ``min_period`` could
    report at most that edge period, which level j+1's band also covers,
    so it is not searched: it keeps ``pvalue`` 1.0 and no candidate.  This
    skip is not from the paper; at ``MIN_PERIOD`` = 4 it skips level 1
    only, and it changed no output on a 1466-series check.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    res = RobustPeriodResult()
    if n < 16:
        return res
    x = preprocess(y)
    J = max_usable_level(n, MAX_LEVEL)
    W, _ = modwt(x, WAVELET, J)
    nu2 = robust_wavelet_variance(W, WAVELET, robust=robust)
    total = float(nu2.sum())
    order = np.argsort(nu2)[::-1]
    res.levels = [LevelResult(level=j + 1, variance=float(nu2[j]))
                  for j in range(J)]
    n_prime = 2 * n
    found: list[tuple[int, float]] = []
    for j in order:
        lev = res.levels[j]
        if total > 0 and nu2[j] < ENERGY_FRAC * total:
            continue
        lev.selected = True
        if 2 ** (j + 2) <= min_period:      # longest period of level j + 1
            continue
        w = W[j]
        band = (n_prime // 2 ** (j + 2), n_prime // 2 ** (j + 1))
        if robust:
            P = huber_periodogram(w, exact_band=band)
        else:
            P = ordinary_periodogram(zero_pad(w))
        sig, k_star, p = fisher_test(P)
        lev.pvalue = p
        if not sig or k_star < 1:
            continue
        cand = int(round(n_prime / k_star))
        lev.k_star = k_star
        lev.candidate = cand
        if cand < min_period or cand > n // 2:
            continue
        a = huber_acf(P) if robust else classic_acf(w)
        period = acf_med_period(a, k_star)
        lev.period = period
        if period >= min_period:
            found.append((period, float(nu2[j])))
    res.periods = merge_periods(found)
    return res


def detect(y: np.ndarray) -> list[int]:
    """Detected periods of the input series (sorted ascending)."""
    return detect_full(y).periods

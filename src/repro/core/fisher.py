"""Fisher's g-test (1929) and Siegel's multi-period extension (1980).

Fisher's exact null distribution of the g-statistic over M periodogram
ordinates:

    P(g ≥ g0) = Σ_{j=1}^{⌊1/g0⌋} (−1)^{j−1} C(M, j) (1 − j·g0)^{M−1}

The alternating sum is evaluated in the log domain (lgamma) with signed
accumulation; when ⌊1/g0⌋ is large (small g0, i.e. clearly insignificant)
the first-term Bonferroni bound ``min(1, M·(1−g0)^{M−1})`` is returned —
exact enough in the only regime where the tail matters for an α-level
decision.

Siegel's test thresholds *every* normalized ordinate at λ·g_crit(α)
(λ = 0.6 per Siegel 1980), detecting compound periodicities that a single
max-based test misses.  Contiguous exceeding ordinates are collapsed to
their local maximum so one spectral peak yields one period.
"""
from __future__ import annotations

from functools import lru_cache
from math import exp, lgamma, log, log1p

import numpy as np

#: Significance level α of Fisher's and Siegel's tests.
ALPHA = 0.01
#: Siegel's λ: every ordinate above λ·g_crit(α) is a candidate.
SIEGEL_LAMBDA = 0.6


def fisher_g_statistic(P: np.ndarray) -> tuple[float, int]:
    """(g, argmax index) over the provided ordinate array.

    ``P`` must already exclude the k=0 (mean) ordinate; the returned index
    is relative to ``P``.
    """
    s = float(np.sum(P))
    if s <= 0:
        return 0.0, 0
    k = int(np.argmax(P))
    return float(P[k] / s), k


def fisher_pvalue(g: float, m: int) -> float:
    """Exact/Bonferroni p-value of Fisher's g over m ordinates."""
    if g <= 0 or m < 2:
        return 1.0
    if g >= 1.0:
        return 0.0
    jmax = int(1.0 / g)
    logc_m = lgamma(m + 1)
    if jmax > 60:
        # Bonferroni first term; p is ~1 here anyway.
        lp = log(m) + (m - 1) * log1p(-g)
        return min(1.0, exp(lp))
    total = 0.0
    for j in range(1, jmax + 1):
        if 1.0 - j * g <= 0.0:
            break
        lt = (logc_m - lgamma(j + 1) - lgamma(m - j + 1)
              + (m - 1) * log(1.0 - j * g))
        term = exp(min(lt, 700.0))
        total += term if j % 2 == 1 else -term
    return float(min(max(total, 0.0), 1.0))


@lru_cache(maxsize=256)
def fisher_g_critical(alpha: float, m: int) -> float:
    """g_crit with P(g ≥ g_crit) = α, by bisection on the p-value; cached
    per (α, m), since every series of a suite repeats the same few m."""
    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fisher_pvalue(mid, m) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fisher_test(P: np.ndarray) -> tuple[bool, int, float]:
    """Run Fisher's test on a one-sided periodogram ``P`` (index 0 = DC).

    The DC ordinate is excluded from the test.  Returns ``(significant,
    k_star, pvalue)`` with ``k_star`` an index into ``P`` (absolute, i.e.
    DC included in the indexing); significant means ``pvalue < ALPHA``.
    """
    body = P[1:]
    if body.size < 2:
        return False, 0, 1.0
    g, k_rel = fisher_g_statistic(body)
    p = fisher_pvalue(g, body.size)
    return p < ALPHA, k_rel + 1, p


def run_maxima(P: np.ndarray, above: np.ndarray) -> list[int]:
    """Collapse each run of consecutive ``above`` indices to the index of
    its largest ``P``, so one spectral peak yields one candidate."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], above, [0]))))
    return [int(i + np.argmax(P[i:j]))
            for i, j in zip(edges[::2], edges[1::2])]


def siegel_candidates(P: np.ndarray) -> list[int]:
    """Siegel's compound-periodicity detection.

    Returns the absolute indices of per-peak local maxima among non-DC
    ordinates whose normalized power exceeds λ·g_crit(α).
    """
    body = P[1:].astype(float)
    m = body.size
    if m < 4:
        return []
    s = body.sum()
    if s <= 0:
        return []
    above = body / s > SIEGEL_LAMBDA * fisher_g_critical(ALPHA, m)
    return [k + 1 for k in run_maxima(body, above)]

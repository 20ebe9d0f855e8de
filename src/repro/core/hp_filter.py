"""Hodrick–Prescott trend filter (paper §3.2, Eq. 2) without scipy.

The HP estimate solves ``(I + 2λ DᵀD) τ = y`` where ``D`` is the (N−2)×N
second-difference operator.  The system matrix is symmetric positive
definite and pentadiagonal, so we factor it with a banded LDLᵀ (bandwidth
2) in O(N), once per (N, λ) — dense solves would need O(N²) memory at the
N≈7200 cloud series of Table 4.

λ is not specified in the paper; we derive it from the HP frequency
response: for this objective the smoother's gain is
``1/(1 + 8λ(1−cos ω)²)``, so the half-power cutoff period ``p_c`` gives
``λ = 1/(32 sin⁴(π/p_c))``.  The pipeline uses ``p_c = N/2`` —
anything slower than half the series is trend, which preserves every
detectable period (≤ N/2 by definition).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def hp_lambda_for_cutoff(p_c: float) -> float:
    """λ whose half-power cutoff is at period ``p_c`` samples."""
    if p_c <= 2.0:
        return 0.0
    return 1.0 / (32.0 * np.sin(np.pi / p_c) ** 4)


def _pentadiagonal_ldl(d0: np.ndarray, d1: np.ndarray, d2: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded LDLᵀ factor ``(d, l1, l2)`` of a symmetric pentadiagonal SPD
    ``A``: ``d0`` is the main diagonal (len N), ``d1`` the first sub/super
    diagonal (len N−1), ``d2`` the second (len N−2).

    Each factor array has length N+2 and holds row i at index i+2; the
    other entries are zero sentinels, so rows 0, 1 (and N−2, N−1 in
    ``_ldl_solve``) run the general recurrence (``x − 0.0`` is exact)."""
    n = d0.size
    d, l1, l2 = np.zeros(n + 2), np.zeros(n + 2), np.zeros(n + 2)
    for i in range(2, n + 2):
        d[i] = d0[i - 2] - l1[i - 1] ** 2 * d[i - 1] - l2[i - 2] ** 2 * d[i - 2]
        if i < n + 1:
            l1[i] = (d1[i - 2] - l2[i - 1] * l1[i - 1] * d[i - 1]) / d[i]
        if i < n:
            l2[i] = d2[i - 2] / d[i]
    return d, l1, l2


def _ldl_solve(factor: tuple[np.ndarray, np.ndarray, np.ndarray],
               y: np.ndarray) -> np.ndarray:
    """Solve ``A x = y`` given the ``_pentadiagonal_ldl`` factor of ``A``."""
    d, l1, l2 = factor
    n = d.size - 2
    z = np.zeros(n + 4)
    z[2:n + 2] = y
    # Forward solve L z = y
    for i in range(2, n + 2):
        z[i] = z[i] - l1[i - 1] * z[i - 1] - l2[i - 2] * z[i - 2]
    # Diagonal solve D w = z
    z[2:n + 2] /= d[2:]
    # Back solve Lᵀ x = w, in place
    for i in range(n + 1, 1, -1):
        z[i] = z[i] - l1[i] * z[i + 1] - l2[i] * z[i + 2]
    return z[2:n + 2]


@lru_cache(maxsize=8)
def _hp_factor(n: int, lamb: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LDLᵀ factor of ``I + 2λ·DᵀD``, cached per (N, λ) because every
    series of a suite has the same N; the arrays are read-only."""
    c = 2.0 * lamb
    d0 = np.full(n, 1.0 + 6.0 * c)
    d0[0] = d0[-1] = 1.0 + 1.0 * c
    d0[1] = d0[-2] = 1.0 + 5.0 * c
    d1 = np.full(n - 1, -4.0 * c)
    d1[0] = d1[-1] = -2.0 * c
    d2 = np.full(n - 2, 1.0 * c)
    factor = _pentadiagonal_ldl(d0, d1, d2)
    for a in factor:
        a.flags.writeable = False
    return factor


def hp_filter(y: np.ndarray) -> np.ndarray:
    """Return the HP trend estimate τ̂ of Eq. 2, with λ from the
    ``p_c = N/2`` cutoff rule.  The detrended series is
    ``y − hp_filter(y)``.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 4:
        return np.full(n, float(np.mean(y))) if n else y.copy()
    return _ldl_solve(_hp_factor(n, float(hp_lambda_for_cutoff(n / 2.0))), y)

"""Daubechies wavelet filters, MODWT/DWT transforms, and the robust
unbiased wavelet variance of Eq. 4.

No pywt/scipy in this container, so the filters are built here by
spectral factorization (roots of the Daubechies polynomial via
``numpy.roots``), the standard construction from Daubechies (1992) —
property tests assert Σh=√2, unit energy and orthonormality of even
shifts, and the db1/db2 closed forms.

Conventions follow Percival & Walden (2000), the reference the paper
cites for MODWT: ``g`` is the *scaling* (low-pass) filter, ``h`` the
*wavelet* (high-pass) filter with the QMF relation
``h_l = (−1)^l · g_{L−1−l}``.  MODWT uses the rescaled filters
``h̃ = h/√2``, ``g̃ = g/√2`` and circular filtering, giving the
energy-preserving, shift-invariant transform of §3.3 whose level-j
wavelet coefficients carry the nominal octave band
``1/2^{j+1} ≤ |f| ≤ 1/2^j`` (period band ``[2^j, 2^{j+1}]``).  Both
transforms run in the frequency domain (Percival & Walden 2000, §5.4);
the DWT is the MODWT subsampled.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .robust_stats import biweight_midvariance

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def daubechies_scaling(p: int) -> np.ndarray:
    """Length-2p scaling (low-pass) filter of the Daubechies wavelet with
    ``p`` vanishing moments (extremal-phase / minimum-delay variant).

    Construction: the Daubechies polynomial
    ``P(y) = Σ_{k<p} C(p−1+k, k) y^k`` is factored; each root ``y0`` maps
    to the quadratic ``z² + (4y0 − 2)z + 1 = 0`` via ``y = (2−z−z⁻¹)/4``,
    from which the root inside the unit circle is kept.  The filter is
    ``h0(z) ∝ (1+z)^p · Π (z − z_i)``, normalized to Σ = √2.
    """
    if p < 1:
        raise ValueError("vanishing moments must be >= 1")
    # Roots of P(y).
    coeffs = [comb(p - 1 + k, k) for k in range(p - 1, -1, -1)]  # highest first
    yroots = np.roots(coeffs)
    zroots = []
    for y0 in yroots:
        # z² + (4y0−2) z + 1 = 0
        b = 4.0 * y0 - 2.0
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((-b + disc) / 2.0, (-b - disc) / 2.0):
            if abs(z) < 1.0:
                zroots.append(z)
                break
    # Build polynomial (1+z)^p * prod(z - z_i); poly coefficients via convolve.
    poly = np.array([1.0 + 0j])
    for _ in range(p):
        poly = np.convolve(poly, np.array([1.0, 1.0]))  # (z + 1)
    for z0 in zroots:
        poly = np.convolve(poly, np.array([1.0, -z0]))
    g = np.real(poly)
    g = g * (_SQRT2 / g.sum())
    # Orthonormality fix-up: scale so Σg² = 1 exactly (they coincide
    # analytically; renormalize against accumulated floating error).
    g = g / np.sqrt(np.sum(g * g))
    return g


def daubechies_wavelet(p: int) -> np.ndarray:
    """Wavelet (high-pass) filter via the QMF relation."""
    g = daubechies_scaling(p)
    L = g.size
    return np.array([(-1) ** l * g[L - 1 - l] for l in range(L)])


def _parse_wavelet(name: str) -> int:
    if not name.startswith("db"):
        raise ValueError(f"unsupported wavelet {name!r}; use 'dbN'")
    return int(name[2:])


def filter_width(j: int, L1: int) -> int:
    """Level-j equivalent filter width ``L_j = (2^j − 1)(L1 − 1) + 1``."""
    return (2**j - 1) * (L1 - 1) + 1


def max_usable_level(n: int, requested: int = 8) -> int:
    """Largest level J ≤ requested whose period band still fits at least
    two full cycles in the series: ``2^{J+1} ≤ n/2``.  (Deeper levels can
    never yield a validatable period; the paper's level-8 rows on N=1000
    are all rejected.)"""
    j = int(np.floor(np.log2(max(n, 8) / 4.0)))
    return max(1, min(requested, j))


def modwt(x: np.ndarray, wavelet: str = "db2", level: int = 8):
    """Maximal-overlap DWT (circular, frequency domain).

    Returns ``(W, v)`` where ``W`` is a (level, N) array of wavelet
    coefficients ``w_{j,t}`` and ``v`` the final (level-J) scaling
    coefficients.  Satisfies ``||x||² = Σ_j ||W[j]||² + ||v||²``.

    Level j filters the level-(j−1) scaling coefficients circularly with
    ``h̃``/``g̃`` upsampled by 2^{j−1}, whose DFT at bin k is the filter's
    DFT at bin ``k·2^{j−1} mod N``.  The filters are wrapped onto N bins
    first, because db10 (L = 20) is longer than the shortest series.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    p = _parse_wavelet(wavelet)
    wrap = np.arange(2 * p) % n
    G = np.fft.fft(np.bincount(wrap, daubechies_scaling(p) / _SQRT2, n))
    H = np.fft.fft(np.bincount(wrap, daubechies_wavelet(p) / _SQRT2, n))
    X = np.fft.rfft(x)
    k = np.arange(X.size)
    W = np.empty((level, n))
    for j in range(level):
        f = (k << j) % n
        W[j] = np.fft.irfft(X * H[f], n)
        X = X * G[f]
    return W, np.fft.irfft(X, n)


def dwt(x: np.ndarray, wavelet: str = "db2", level: int = 4):
    """Decimated circular DWT (for the Wavelet-Fisher baseline).

    The input is truncated to a multiple of ``2^level``.  Returns the list
    of detail coefficient arrays ``[d_1, …, d_J]`` and the final
    approximation ``a_J``: the MODWT subsampled at ``t = 2^j − 1 mod 2^j``
    and rescaled by ``2^{j/2}`` (Percival & Walden 2000, §5.4).
    """
    x = np.asarray(x, dtype=float)
    n = (x.size // 2**level) * 2**level
    W, v = modwt(x[:n], wavelet, level)
    details = [2 ** (j / 2) * W[j - 1, 2**j - 1::2**j]
               for j in range(1, level + 1)]
    return details, 2 ** (level / 2) * v[2**level - 1::2**level]


def robust_wavelet_variance(W: np.ndarray, wavelet: str = "db2",
                            robust: bool = True) -> np.ndarray:
    """Per-level robust unbiased wavelet variance (Eq. 4).

    Boundary coefficients (the first ``L_j − 1``, affected by circular
    wrap-around) are excluded; the biweight midvariance replaces the plain
    variance for robustness.  ``robust=False`` gives the classical
    variance on the same non-boundary window (NR-RobustPeriod ablation).
    """
    L1 = daubechies_scaling(_parse_wavelet(wavelet)).size
    n = W.shape[1]
    out = np.zeros(W.shape[0])
    for j in range(1, W.shape[0] + 1):
        lj = filter_width(j, L1)
        # Strict unbiasedness needs L_j ≤ N; at deep levels of long filters
        # (the paper runs 8 levels on N=1000, where L_8 > N for any db≥2)
        # we cap the trim at N/2 so the estimate keeps ≥ half the sample.
        start = min(lj - 1, n // 2)
        w = W[j - 1, start:]
        out[j - 1] = biweight_midvariance(w) if robust else float(np.var(w))
    return out

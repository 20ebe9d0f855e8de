"""Periodograms: ordinary (Eq. 5), Huber M-periodogram (Eq. 6-7), and the
LAD-periodogram used for the paper's Fig. 6 comparison.

The M-periodogram at frequency index k is

    P^M_k = (N'/4) · ||β̂(k)||²,
    β̂(k) = argmin_β Σ_t γ( φ_t β − x_t ),   φ_t = [cos(2πkt/N'), sin(2πkt/N')]

The paper solves the Huber case by ADMM; the objective is convex with a
unique minimizer on the full-rank 2-column harmonic design, so IRLS
converges to the same β̂ (documented substitution in DESIGN.md).  IRLS
vectorizes across frequencies: all frequencies in a chunk share the
residual/weight matrices, each iteration solving K independent 2×2
weighted normal systems in closed form.

Robust scale handling: the minimizer of the Huber problem with threshold
ζ·σ̂ on data x equals σ̂ times the minimizer with threshold ζ on x/σ̂, so
we normalize by the MAD-based scale and use the standard ζ = 1.345.
"""
from __future__ import annotations

import numpy as np

from .robust_stats import huber_weights, robust_scale

HUBER_ZETA = 1.345
IRLS_MAX_ITER = 20
IRLS_TOL = 1e-7


def zero_pad(x: np.ndarray) -> np.ndarray:
    """``x`` followed by ``len(x)`` zeros: the N' = 2N padding of §3.4."""
    return np.concatenate([x, np.zeros(x.size)])


def ordinary_periodogram(x: np.ndarray) -> np.ndarray:
    """Eq. 5: P_k = |DFT{x}|²/N for k = 0..⌊N/2⌋ (rfft bins)."""
    x = np.asarray(x, dtype=float)
    X = np.fft.rfft(x)
    return (X.real**2 + X.imag**2) / x.size


def _irls_chunk(x: np.ndarray, ks: np.ndarray, loss: str) -> np.ndarray:
    """Solve the M-periodogram for a chunk of frequency indices.

    Returns ||β̂(k)||² per k.  ``loss`` is 'huber' or 'lad'.
    """
    n = x.size
    t = np.arange(n)
    ang = 2.0 * np.pi * np.outer(ks, t) / n      # K×N
    C = np.cos(ang)
    S = np.sin(ang)
    # OLS init (exact at Fourier frequencies).
    a = 2.0 / n * (C @ x)
    b = 2.0 / n * (S @ x)
    for _ in range(IRLS_MAX_ITER):
        r = a[:, None] * C + b[:, None] * S - x[None, :]
        if loss == "huber":
            w = huber_weights(r, HUBER_ZETA)
        else:  # LAD: w = 1/|r| with guard
            absr = np.abs(r)
            w = 1.0 / np.maximum(absr, 1e-8)
        wc = w * C
        Scc = np.einsum("kt,kt->k", wc, C)
        Scs = np.einsum("kt,kt->k", wc, S)
        Sss = np.einsum("kt,kt->k", w * S, S)
        Scx = wc @ x
        Ssx = (w * S) @ x
        det = Scc * Sss - Scs**2
        ok = det > 1e-12
        a_new = np.where(ok, (Sss * Scx - Scs * Ssx) / np.where(ok, det, 1.0), a)
        b_new = np.where(ok, (Scc * Ssx - Scs * Scx) / np.where(ok, det, 1.0), b)
        delta = np.max(np.abs(a_new - a) + np.abs(b_new - b))
        a, b = a_new, b_new
        if delta < IRLS_TOL:
            break
    return a**2 + b**2


def m_periodogram(x: np.ndarray, *, loss: str = "huber",
                  exact_band: tuple[int, int] | None = None,
                  n_data: int | None = None,
                  chunk: int = 256) -> np.ndarray:
    """M-periodogram of Eq. 6 for k = 0..⌊N/2⌋.

    ``exact_band=(lo, hi)`` restricts the (expensive) robust solve to the
    frequency indices ``lo ≤ k ≤ hi`` — the per-level speed-up of §3.4.1
    — with the ordinary periodogram (Eq. 5) approximating the rest.
    ``exact_band=None`` solves every interior frequency robustly.

    ``n_data``: length of the real (unpadded) prefix of ``x``.  The robust
    scale is estimated on that prefix only — estimating it on the padded
    series collapses the MAD (≥50% exact zeros), which turns the Huber fit
    into a LAD fit that a majority of zeros pulls to β=0, crushing genuine
    spectral peaks.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    nyq = n // 2
    P = ordinary_periodogram(x)
    sig = robust_scale(x[: n_data if n_data else n])
    if sig <= 0 or not np.isfinite(sig):
        return P
    xn = x / sig
    lo, hi = (1, nyq) if exact_band is None else exact_band
    lo = max(1, int(lo))
    hi = min(nyq - 1 if n % 2 == 0 else nyq, int(hi))
    if hi < lo:
        return P
    ks = np.arange(lo, hi + 1)
    beta2 = np.empty(ks.size)
    for s in range(0, ks.size, chunk):
        sub = ks[s:s + chunk]
        beta2[s:s + chunk] = _irls_chunk(xn, sub, loss)
    P[ks] = (n / 4.0) * beta2 * sig**2
    return P


def huber_periodogram(x: np.ndarray, **kw) -> np.ndarray:
    """Huber-loss M-periodogram (the paper's default)."""
    return m_periodogram(x, loss="huber", **kw)


def lad_periodogram(x: np.ndarray, **kw) -> np.ndarray:
    """LAD-loss M-periodogram (Li 2008), for the Fig. 6 comparison."""
    return m_periodogram(x, loss="lad", **kw)

"""Periodograms: ordinary (Eq. 5) and the Huber M-periodogram (Eq. 6-7).

The M-periodogram of a length-N series x at frequency index k is taken
on the series zero-padded to N' = 2N (§3.4):

    P^M_k = (N'/4) · ||β̂(k)||²,
    β̂(k) = argmin_β Σ_t γ( φ_t β − x_t ),   φ_t = [cos(2πkt/N'), sin(2πkt/N')]

The paper solves the Huber case by ADMM; the objective is convex with a
unique minimizer on the full-rank 2-column harmonic design, so IRLS
converges to the same β̂ (documented substitution in DESIGN.md).  IRLS
vectorizes across frequencies: a cache-sized chunk of K frequencies shares
K×N residual/weight arrays (the pad folded onto the data half), each
iteration solving K independent 2×2 weighted normal systems in closed
form.

Robust scale handling: the minimizer of the Huber problem with threshold
ζ·σ̂ on data x equals σ̂ times the minimizer with threshold ζ on x/σ̂, so
we normalize by the MAD-based scale of the unpadded series and use the
standard ζ = 1.345.  (The scale of the padded series would collapse: its
MAD sees ≥ 50% exact zeros, which turns the fit into a LAD fit that the
zeros pull to β = 0.)
"""
from __future__ import annotations

import numpy as np

from .robust_stats import huber_weights, robust_scale

HUBER_ZETA = 1.345
IRLS_MAX_ITER = 20
IRLS_TOL = 1e-7
#: Below this |a| + |b| every pad residual is inside ζ (see ``_irls_chunk``).
UNIT_PAD_BOUND = HUBER_ZETA * (1.0 - 1e-12)
CHUNK_ELEMS = 1 << 16   # rows per chunk ≈ CHUNK_ELEMS/N, within CHUNK_ROWS
CHUNK_ROWS = (8, 256)


def zero_pad(x: np.ndarray) -> np.ndarray:
    """``x`` followed by ``len(x)`` zeros: the N' = 2N padding of §3.4."""
    return np.concatenate([x, np.zeros(x.size)])


def ordinary_periodogram(x: np.ndarray) -> np.ndarray:
    """Eq. 5: P_k = |DFT{x}|²/N for k = 0..⌊N/2⌋ (rfft bins)."""
    x = np.asarray(x, dtype=float)
    X = np.fft.rfft(x)
    return (X.real**2 + X.imag**2) / x.size


def _irls_chunk(x: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Solve the Huber M-periodogram of ``zero_pad(x)`` for a chunk of
    frequency indices.  Returns ||β̂(k)||² per k.  Each bin stops at its own
    ``IRLS_TOL``, so its result does not depend on which bins share its chunk.

    Fold: at ``t + N`` bin k's angle is ``θ_t + πk``, so cos and sin flip
    sign together; the pad residual is ``|a·C_t + b·S_t|`` and ``C²``,
    ``C·S`` are unchanged, so the pad's weights add onto the data-half grid
    (and the pad adds nothing to ``C·x``, ``S·x``).

    Unit pad weights: ``|C_t|, |S_t| ≤ 1``, so ``|a·C_t + b·S_t| ≤ |a| + |b|``
    up to a few ulps of rounding.  When ``|a| + |b| ≤ ζ·(1 − 1e-12)`` on every
    row, every pad residual is at most ζ and ``huber_weights`` would return
    exactly 1.0 for each (``ζ/|r| ≥ 1`` is correctly rounded), so adding
    1.0 instead of the pad's weights gives the same bits.
    """
    n = 2 * x.size                      # N'
    ang = 2.0 * np.pi / n * np.arange(n)
    idx = np.outer(ks, np.arange(x.size)) % n
    C, S = np.cos(ang)[idx], np.sin(ang)[idx]
    CC, CS, Cx, Sx = C * C, C * S, C * x, S * x
    # OLS init (exact at Fourier frequencies).
    a, b = 2.0 / n * Cx.sum(axis=1), 2.0 / n * Sx.sum(axis=1)
    active = np.ones(ks.size, dtype=bool)
    r, w, wpad = np.empty_like(C), np.empty_like(C), np.empty_like(C)
    for _ in range(IRLS_MAX_ITER):
        unit_pad = np.all(np.abs(a) + np.abs(b) <= UNIT_PAD_BOUND)
        np.multiply(a[:, None], C, out=r)
        r += np.multiply(b[:, None], S, out=w)
        if not unit_pad:
            huber_weights(r, HUBER_ZETA, out=wpad)
        huber_weights(np.subtract(r, x, out=r), HUBER_ZETA, out=w)
        Scx, Ssx = np.einsum("kt,kt->k", w, Cx), np.einsum("kt,kt->k", w, Sx)
        w += 1.0 if unit_pad else wpad
        Scc, Scs = np.einsum("kt,kt->k", w, CC), np.einsum("kt,kt->k", w, CS)
        Sss = w.sum(axis=1) - Scc          # cos² + sin² = 1
        det = Scc * Sss - Scs**2
        ok = active & (det > 1e-12)
        d = np.where(ok, det, 1.0)
        a_new = np.where(ok, (Sss * Scx - Scs * Ssx) / d, a)
        b_new = np.where(ok, (Scc * Ssx - Scs * Scx) / d, b)
        active &= np.abs(a_new - a) + np.abs(b_new - b) >= IRLS_TOL
        a, b = a_new, b_new
        if not active.any():
            break
    return a**2 + b**2


def huber_periodogram(x: np.ndarray, *,
                      exact_band: tuple[int, int] | None = None
                      ) -> np.ndarray:
    """Huber M-periodogram of Eq. 6 of the length-N series ``x``, on
    ``zero_pad(x)``: k = 0..N over N' = 2N.

    ``exact_band=(lo, hi)`` restricts the (expensive) robust solve to the
    frequency indices ``lo ≤ k ≤ hi`` — the per-level speed-up of §3.4.1
    — with the ordinary periodogram (Eq. 5) approximating the rest.
    ``exact_band=None`` solves every interior frequency robustly.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    P = ordinary_periodogram(zero_pad(x))
    sig = robust_scale(x)
    if sig <= 0 or not np.isfinite(sig):
        return P
    lo, hi = (1, n) if exact_band is None else exact_band
    lo, hi = max(1, int(lo)), min(n - 1, int(hi))
    if hi < lo:
        return P
    xn = x / sig
    rows = int(np.clip(CHUNK_ELEMS // n, *CHUNK_ROWS))
    ks = np.arange(lo, hi + 1)
    beta2 = np.concatenate([_irls_chunk(xn, ks[s:s + rows])
                            for s in range(0, ks.size, rows)])
    P[ks] = (n / 2.0) * beta2 * sig**2      # N'/4 = N/2
    return P

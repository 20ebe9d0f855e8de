"""Periodograms: ordinary (Eq. 5) and the Huber M-periodogram (Eq. 6-7).

The M-periodogram of a length-N series x at frequency index k is taken
on the series zero-padded to N' = 2N (§3.4):

    P^M_k = (N'/4) · ||β̂(k)||²,
    β̂(k) = argmin_β Σ_t γ( φ_t β − x_t ),   φ_t = [cos(2πkt/N'), sin(2πkt/N')]

The paper solves the Huber case by ADMM; the objective is convex with a
unique minimizer on the full-rank 2-column harmonic design, so any
convergent solver reaches the same β̂ (documented substitution in
DESIGN.md).  Here each bin takes Newton steps from the OLS start, with
IRLS steps as its fallback.  Both vectorize across frequencies: a
cache-sized chunk of K frequencies shares K×N residual arrays (the pad
folded onto the data half), each iteration solving K independent 2×2
systems in closed form.

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
#: Below this |a| + |b| every pad residual is inside ζ (see ``_newton_chunk``).
UNIT_PAD_BOUND = HUBER_ZETA * (1.0 - 1e-12)
# Rows per chunk ≈ CHUNK_ELEMS/N, within CHUNK_ROWS.  At 2^16 glibc trimmed
# the heap after a chunk and re-faulted it for the next (~57k minor faults
# per perfbench table7 kernel round); at 2^15 it did not.
CHUNK_ELEMS = 1 << 15
CHUNK_ROWS = (8, 256)


def zero_pad(x: np.ndarray) -> np.ndarray:
    """``x`` followed by ``len(x)`` zeros: the N' = 2N padding of §3.4."""
    return np.concatenate([x, np.zeros(x.size)])


def ordinary_periodogram(x: np.ndarray) -> np.ndarray:
    """Eq. 5: P_k = |DFT{x}|²/N for k = 0..⌊N/2⌋ (rfft bins)."""
    x = np.asarray(x, dtype=float)
    X = np.fft.rfft(x)
    return (X.real**2 + X.imag**2) / x.size


def _huber_terms(r: np.ndarray, C: np.ndarray, S: np.ndarray,
                 CC: np.ndarray, CS: np.ndarray,
                 psi: np.ndarray | None = None, D: np.ndarray | None = None):
    """Per row of residuals ``r`` on the design ``φ_t = [C_t, S_t]``: the
    Huber gradient ``Σ ψ(r_t) φ_t`` and Hessian ``Σ 1{|r_t| ≤ ζ} φ_t φ_tᵀ``
    as ``(g_a, g_b, H_cc, H_cs, H_ss)``.  ``psi`` and ``D`` are scratch
    arrays shaped like ``r`` (allocated when omitted)."""
    psi = np.minimum(r, HUBER_ZETA, out=psi)
    np.maximum(psi, -HUBER_ZETA, out=psi)
    # Inside ζ exactly where the clip left r alone.
    D = np.equal(r, psi, out=D if D is not None else np.empty_like(r))
    Hcc = np.einsum("kt,kt->k", D, CC)
    return (np.einsum("kt,kt->k", psi, C), np.einsum("kt,kt->k", psi, S),
            Hcc, np.einsum("kt,kt->k", D, CS), np.einsum("kt->k", D) - Hcc)


def _pad_terms(a: np.ndarray, b: np.ndarray, C: np.ndarray, S: np.ndarray,
               CC: np.ndarray, CS: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The pad's ``_huber_terms`` at ``(a, b)`` as a (5, K) array.

    A row whose every pad residual is inside ζ gets the closed form
    ``G₀β``, ``G₀`` with ``G₀ = Σ φφᵀ = (N/2)·I`` (for 0 < k < N,
    ``Σ_t cos²(πkt/N) = N/2`` and ``Σ_t cos·sin = 0``); the row indices
    ``rows`` get the elementwise terms of ``a·C + b·S``."""
    half = C.shape[1] / 2.0
    pad = np.stack([half * a, half * b, np.full(a.size, half),
                    np.zeros(a.size), np.full(a.size, half)])
    if rows.size:
        Cr, Sr = C[rows], S[rows]
        pad[:, rows] = _huber_terms(a[rows, None] * Cr + b[rows, None] * Sr,
                                    Cr, Sr, CC[rows], CS[rows])
    return pad


def _irls_step(x: np.ndarray, C: np.ndarray, S: np.ndarray, CC: np.ndarray,
               CS: np.ndarray, a: np.ndarray, b: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """One IRLS step per row: the weighted least-squares solve with the
    Huber weights of the data-half and the pad residuals at ``(a, b)``.
    A singular row keeps its ``(a, b)``."""
    p = a[:, None] * C + b[:, None] * S
    w = huber_weights(p - x, HUBER_ZETA)
    Scx = np.einsum("kt,kt->k", w, C * x)
    Ssx = np.einsum("kt,kt->k", w, S * x)
    w += huber_weights(p, HUBER_ZETA, out=p)
    Scc, Scs = np.einsum("kt,kt->k", w, CC), np.einsum("kt,kt->k", w, CS)
    Sss = w.sum(axis=1) - Scc          # cos² + sin² = 1
    det = Scc * Sss - Scs**2
    ok = det > 1e-12
    d = np.where(ok, det, 1.0)
    return (np.where(ok, (Sss * Scx - Scs * Ssx) / d, a),
            np.where(ok, (Scc * Ssx - Scs * Scx) / d, b))


def _newton_chunk(x: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Solve the Huber M-periodogram of ``zero_pad(x)`` for a chunk of
    frequency indices.  Returns ||β̂(k)||² per k.

    Fold: at ``t + N`` bin k's angle is ``θ_t + πk``, so cos and sin flip
    sign together; the pad residual is ``±(a·C_t + b·S_t)``, and as ψ is odd
    the pad's gradient and Hessian terms add onto the data-half grid.

    Newton: the Huber objective is convex and piecewise quadratic, so once
    the inlier set ``|r| ≤ ζ`` is right a Newton step ``β ← β − H⁻¹g`` lands
    on the minimizer (finite Newton method; Madsen & Nielsen, BIT 30, 1990).
    Unit pad: ``|C_t|, |S_t| ≤ 1`` bounds every pad residual by
    ``|a| + |b|``, so below ``UNIT_PAD_BOUND`` every pad residual is inside
    ζ and the pad adds exactly ``G₀β`` to g and ``G₀`` to H, with
    ``G₀ = Σ φφᵀ`` over the data half (``_pad_terms``).
    Fallback: a bin whose H is singular (condition number above 1e12), or
    whose gradient norm grew over its last Newton step (that step is undone),
    takes IRLS steps for the rest of its solve; IRLS is a
    majorize-minimize method and converges from any start.

    Every decision (unit pad, fallback, stop at ``IRLS_TOL``) is per bin, so
    a bin's result does not depend on which bins share its chunk.
    """
    n = 2 * x.size                      # N'
    ang = 2.0 * np.pi / n * np.arange(n)
    idx = np.outer(ks, np.arange(x.size)) % n
    C, S = np.cos(ang)[idx], np.sin(ang)[idx]
    CC, CS = C * C, C * S
    # OLS init (exact at Fourier frequencies).
    a = 2.0 / n * np.einsum("kt,t->k", C, x)
    b = 2.0 / n * np.einsum("kt,t->k", S, x)
    active = np.ones(ks.size, dtype=bool)
    newton = np.ones(ks.size, dtype=bool)
    a_last, b_last, g2_last = a, b, np.full(ks.size, np.inf)
    r, psi, D = np.empty_like(C), np.empty_like(C), np.empty_like(C)
    for _ in range(IRLS_MAX_ITER):
        np.multiply(a[:, None], C, out=r)
        r += np.multiply(b[:, None], S, out=psi)
        # Newton bins whose pad residuals may leave ζ.
        big = np.flatnonzero(newton & active
                             & (np.abs(a) + np.abs(b) > UNIT_PAD_BOUND))
        ga, gb, Hcc, Hcs, Hss = _pad_terms(a, b, C, S, CC, CS, big) \
            + _huber_terms(np.subtract(r, x, out=r), C, S, CC, CS, psi, D)
        det = Hcc * Hss - Hcs**2
        g2 = ga**2 + gb**2
        step = newton & active
        grew = step & ~(g2 <= g2_last)     # a NaN gradient counts as grown
        newton &= ~(grew | (step & (det <= 1e-12 * (Hcc + Hss)**2)))
        step &= newton
        a0, b0 = np.where(grew, a_last, a), np.where(grew, b_last, b)
        d = np.where(step, det, 1.0)
        a_new = np.where(step, a0 - (Hss * ga - Hcs * gb) / d, a0)
        b_new = np.where(step, b0 - (Hcc * gb - Hcs * ga) / d, b0)
        a_last, b_last = np.where(step, a, a_last), np.where(step, b, b_last)
        g2_last = np.where(step, g2, g2_last)
        fall = np.flatnonzero(~newton & active)
        if fall.size:
            a_new[fall], b_new[fall] = _irls_step(
                x, C[fall], S[fall], CC[fall], CS[fall], a0[fall], b0[fall])
        active &= np.abs(a_new - a0) + np.abs(b_new - b0) >= IRLS_TOL
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
    beta2 = np.concatenate([_newton_chunk(xn, ks[s:s + rows])
                            for s in range(0, ks.size, rows)])
    P[ks] = (n / 2.0) * beta2 * sig**2      # N'/4 = N/2
    return P

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
cache-sized chunk of K frequencies shares its residual arrays (the pad
folded onto the data half), each iteration solving K independent 2×2
systems in closed form.

Outlier set: away from its closed form, a Newton step's gradient and
Hessian change only through the samples with ``|r_t| > ζ`` (the active-set
view of Huber's M-estimator; Clark & Osborne, SIAM J. Sci. Stat. Comput. 7,
1986).  One FFT per call gives every bin's ``Σ_t x_t φ_t``; a bin whose
``|a| + |b|`` stays below a per-call bound B then sums only over the
samples ``T = {t : |x_t| > ζ − B}``, on K×|T| arrays, and any other bin
over all N, on K×N arrays (``_newton_chunk``).

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
# Rows per chunk ≈ CHUNK_ELEMS / (a bin's expected elements per Newton pass,
# from ``_outlier_bound``), within CHUNK_ROWS.  At 2^16 glibc trimmed the
# heap after a chunk and re-faulted it for the next (~57k minor faults per
# perfbench table7 kernel round); at 2^15 it did not.
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


def _design(cos: np.ndarray, sin: np.ndarray, ks: np.ndarray,
            t: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(C, S, C², C·S)`` of bins ``ks`` at samples ``t``, read from the
    cos/sin tables of the N' angles ``2πj/N'``."""
    idx = np.outer(ks, t) % cos.size
    C, S = cos[idx], sin[idx]
    return C, S, C * C, C * S


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


def _outlier_terms(a: np.ndarray, b: np.ndarray, a_ols: np.ndarray,
                   b_ols: np.ndarray, x: np.ndarray, C: np.ndarray,
                   S: np.ndarray, CC: np.ndarray, CS: np.ndarray,
                   r: np.ndarray, psi: np.ndarray, D: np.ndarray,
                   n: int) -> np.ndarray:
    """``_huber_terms`` of the data half plus the unit pad, at ``(a, b)``,
    as a (5, K) array, from the samples ``t ∈ T`` only (``x``, ``C``, ...
    hold those columns; ``r``, ``psi``, ``D`` are scratch shaped like
    ``C``).

    On the data half ``Σ_t r_t φ_t = G₀β − Σ_t x_t φ_t = G₀(β − β_OLS)``,
    and the unit pad adds ``G₀β``, ``G₀`` (``_pad_terms``); ``G₀ = (N/2)·I``.
    So with ``O = {t : |r_t| > ζ} ⊆ T`` and ``n = N``:

        g = N·(β − β_OLS) − Σ_{t∈O} (r_t − ψ(r_t)) φ_t,
        H = N·I − Σ_{t∈O} φ_t φ_tᵀ.
    """
    np.multiply(a[:, None], C, out=r)
    r += np.multiply(b[:, None], S, out=psi)
    r -= x
    np.minimum(r, HUBER_ZETA, out=psi)
    np.maximum(psi, -HUBER_ZETA, out=psi)
    np.not_equal(r, psi, out=D)             # outside ζ
    r -= psi                                # r − ψ(r), 0 inside ζ
    Hcc = np.einsum("kt,kt->k", D, CC)
    return np.stack([n * (a - a_ols) - np.einsum("kt,kt->k", r, C),
                     n * (b - b_ols) - np.einsum("kt,kt->k", r, S),
                     n - Hcc, -np.einsum("kt,kt->k", D, CS),
                     n - np.einsum("kt->k", D) + Hcc])


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


def _outlier_bound(x: np.ndarray, s: np.ndarray) -> tuple[float, float]:
    """The bound B of ``_newton_chunk`` for the normalized series ``x`` and
    the bins' OLS ``s = |a| + |b|``, and the expected elements per bin of a
    Newton pass.

    A pass takes the sums over ``|T(B)| = #{t : |x_t| > UNIT_PAD_BOUND − B}``
    samples on every bin (``_outlier_terms`` runs on the whole chunk), and
    those over all N on the bins above B.  B is the ``1.5·s_k`` (capped at
    ``UNIT_PAD_BOUND``) that minimizes that cost at the OLS start,
    ``K·|T(B)| + K_dense(B)·N``; B = −∞ (every bin dense, no sums over T)
    when none beats ``K·N``."""
    n, K = x.size, s.size
    s = np.sort(s)
    B = np.minimum(1.5 * s, UNIT_PAD_BOUND)
    sparse = np.searchsorted(s, B, side="right")
    n_T = n - np.searchsorted(np.sort(np.abs(x)), UNIT_PAD_BOUND - B,
                              side="right")
    cost = K * n_T + (K - sparse) * n
    i = int(np.argmin(cost))
    if not cost[i] < K * n:
        return -np.inf, float(n)
    return float(B[i]), cost[i] / K


def _newton_chunk(x: np.ndarray, ks: np.ndarray, a: np.ndarray,
                  b: np.ndarray, bound: float) -> np.ndarray:
    """Solve the Huber M-periodogram of ``zero_pad(x)`` for a chunk of
    frequency indices ``ks`` from their OLS start ``(a, b)``.  Returns
    ||β̂(k)||² per k.

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

    Outlier set: ``|r_t| ≤ |x_t| + |a| + |b|``, so on a pass where a bin has
    ``|a| + |b| ≤ bound`` (≤ ``UNIT_PAD_BOUND``) every residual outside
    ``T = {t : |x_t| > UNIT_PAD_BOUND − bound}`` is inside ζ; that bin
    takes ``_outlier_terms`` over T (sparse).  Any other bin takes
    ``_huber_terms`` and ``_pad_terms`` over all N samples (dense); its
    cos/sin rows are gathered the first time it needs them and kept for the
    chunk.  ``bound = −∞`` makes every bin dense.

    Fallback: a bin whose H is singular (condition number above 1e12), or
    whose gradient norm grew over its last Newton step (that step is undone),
    takes IRLS steps over all N for the rest of its solve; IRLS is a
    majorize-minimize method and converges from any start.

    Every decision (sparse or dense, unit pad, fallback, stop at
    ``IRLS_TOL``) is per bin, and ``bound`` is per call, so a bin's result
    does not depend on which bins share its chunk.
    """
    N, K = x.size, ks.size
    ang = 2.0 * np.pi / (2 * N) * np.arange(2 * N)
    cos, sin = np.cos(ang), np.sin(ang)
    T = np.flatnonzero(np.abs(x) > UNIT_PAD_BOUND - bound)
    xT, design_T = x[T], _design(cos, sin, ks, T)
    scratch_T = [np.empty_like(design_T[0]) for _ in range(3)]
    # Rows whose cos/sin over all N samples are gathered, and those arrays.
    full = np.zeros(K, dtype=bool)
    dense_arrays: list[np.ndarray] = []

    def gather(need: np.ndarray) -> np.ndarray:
        """The gathered position of every row; gathers ``need`` first."""
        if (need & ~full).any():
            full[need] = True
            C, S, CC, CS = _design(cos, sin, ks[full], np.arange(N))
            dense_arrays[:] = [C, S, CC, CS, *(np.empty_like(C)
                                               for _ in range(3))]
        return np.cumsum(full) - 1

    a_ols, b_ols = a, b
    active = np.ones(K, dtype=bool)
    newton = np.ones(K, dtype=bool)
    a_last, b_last, g2_last = a, b, np.full(K, np.inf)
    for _ in range(IRLS_MAX_ITER):
        step = newton & active
        sparse = np.abs(a) + np.abs(b) <= bound
        dense = step & ~sparse
        terms = (_outlier_terms(a, b, a_ols, b_ols, xT, *design_T,
                                *scratch_T, N)
                 if (step & sparse).any() else np.zeros((5, K)))
        if dense.any():
            pos = gather(dense)
            C, S, CC, CS, r, psi, D = dense_arrays
            ag, bg = a[full], b[full]
            np.multiply(ag[:, None], C, out=r)
            r += np.multiply(bg[:, None], S, out=psi)
            # Dense Newton bins whose pad residuals may leave ζ.
            big = np.flatnonzero(step[full]
                                 & (np.abs(ag) + np.abs(bg) > UNIT_PAD_BOUND))
            terms[:, dense] = (
                _pad_terms(ag, bg, C, S, CC, CS, big)
                + _huber_terms(np.subtract(r, x, out=r), C, S, CC, CS, psi, D)
            )[:, pos[dense]]
        ga, gb, Hcc, Hcs, Hss = terms
        det = Hcc * Hss - Hcs**2
        g2 = ga**2 + gb**2
        grew = step & ~(g2 <= g2_last)     # a NaN gradient counts as grown
        newton &= ~(grew | (step & (det <= 1e-12 * (Hcc + Hss)**2)))
        step &= newton
        a0, b0 = np.where(grew, a_last, a), np.where(grew, b_last, b)
        d = np.where(step, det, 1.0)
        a_new = np.where(step, a0 - (Hss * ga - Hcs * gb) / d, a0)
        b_new = np.where(step, b0 - (Hcc * gb - Hcs * ga) / d, b0)
        a_last, b_last = np.where(step, a, a_last), np.where(step, b, b_last)
        g2_last = np.where(step, g2, g2_last)
        fall = ~newton & active
        if fall.any():
            p = gather(fall)[fall]
            C, S, CC, CS = dense_arrays[:4]
            a_new[fall], b_new[fall] = _irls_step(
                x, C[p], S[p], CC[p], CS[p], a0[fall], b0[fall])
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
    ks = np.arange(lo, hi + 1)
    # OLS start: Σ_t x_t φ_t / (N'/2), read off one FFT.
    X = np.fft.rfft(zero_pad(xn))[ks] / n
    a, b = X.real, -X.imag
    bound, width = _outlier_bound(xn, np.abs(a) + np.abs(b))
    rows = int(np.clip(CHUNK_ELEMS // max(width, 1.0), *CHUNK_ROWS))
    beta2 = np.concatenate([
        _newton_chunk(xn, ks[s:s + rows], a[s:s + rows], b[s:s + rows], bound)
        for s in range(0, ks.size, rows)])
    P[ks] = (n / 2.0) * beta2 * sig**2      # N'/4 = N/2
    return P

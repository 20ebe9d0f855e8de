"""findFrequency baseline (Hyndman et al., R ``forecast::findfrequency``).

The R routine fits an AR model (order chosen by AIC, Yule–Walker
estimates) to the detrended series, evaluates the AR spectral density on
a fine grid, and returns ``round(1/f*)`` for the density's dominant
frequency — or 1 when no usable peak exists.  Re-implemented here with a
Levinson–Durbin recursion (no scipy/statsmodels offline).
"""
from __future__ import annotations

import numpy as np

from repro.core.preprocess import detrend_normalize

#: Frequency grid size of the AR spectral density.
N_FREQ = 500


def _autocovariance(x: np.ndarray, max_lag: int) -> np.ndarray:
    n = x.size
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f.real**2 + f.imag**2, 2 * n)[: max_lag + 1] / n
    return acov


def ar_spectrum(x: np.ndarray):
    """AIC-selected Yule–Walker AR spectral density on ``N_FREQ`` points
    of (0, 0.5].  Returns (freqs, density).

    One Levinson–Durbin pass: order p extends order p−1, so the AIC of
    every order up to ``10·log10(N)`` is read off as the recursion runs.
    """
    n = x.size
    max_order = int(min(n - 1, 10 * np.log10(n)))
    acov = _autocovariance(x, max_order)
    a = np.zeros(max_order + 1)
    a[0] = 1.0
    e = acov[0]
    best = (np.inf, None, None)
    for p in range(max_order + 1):
        if p > 0:
            if e <= 0:
                break
            lam = -(acov[1:p + 1][::-1] @ a[:p]) / e
            a[1:p + 1] = a[1:p + 1] + lam * a[:p][::-1]
            e *= (1.0 - lam**2)
        aic = n * np.log(max(e, 1e-12)) + 2 * (p + 1)
        if aic < best[0]:
            best = (aic, a[:p + 1].copy(), max(e, 1e-12))
    _, a, e = best
    freqs = np.linspace(0.5 / N_FREQ, 0.5, N_FREQ)
    z = np.exp(-2j * np.pi * np.outer(freqs, np.arange(a.size)))
    denom = np.abs(z @ a) ** 2
    dens = e / np.maximum(denom, 1e-12)
    return freqs, dens


def find_frequency(y: np.ndarray) -> int:
    """Dominant period by AR spectral density argmax (1 = none found)."""
    y = np.asarray(y, dtype=float)
    if y.size < 8:
        return 1
    x = detrend_normalize(y)
    freqs, dens = ar_spectrum(x)
    k = int(np.argmax(dens))
    # Mirror the R routine: an argmax at the very low end means "no finite
    # period"; walk to the next local max, else give up.
    if k == 0:
        rising = np.where(np.diff(dens) > 0)[0]
        if rising.size == 0:
            return 1
        seg = dens[rising[0] + 1:]
        k = rising[0] + 1 + int(np.argmax(seg))
    period = int(round(1.0 / freqs[k]))
    if period <= 1 or period > y.size // 2:
        return 1
    return period


def detect(y: np.ndarray) -> list[int]:
    """Uniform list-valued interface for the evaluation harness."""
    p = find_frequency(y)
    return [p] if p > 1 else []

"""Autocorrelation machinery: classic ACF, Huber-ACF via Wiener–Khinchin
(Eq. 13), peak detection, and the Huber-ACF-Med period validation.

Huber-ACF: ``huber_periodogram`` zero-pads the level series to N' = 2N,
so the inverse real DFT of its N + 1 one-sided ordinates is the
*linear* (not circular) autocovariance sum Σ_n x_n x_{n+t}; the unbiased
normalization divides by (N−t).  We normalize so ACF(0) = 1
(``N·p_t/((N−t)·p_0)``) — the printed Eq. 13 gives ACF(0)=1/N, at odds
with the paper's own Fig. 5/6 plots; see DESIGN.md §5.

Validation (Huber-ACF-Med, §3.4.2): the period candidate from Fisher's
test at periodogram index k has resolution interval

    R_k = [ (N'/(k+1) + N'/k)/2 − 1 ,  (N'/k + N'/(k−1))/2 + 1 ]

The median spacing of qualifying ACF peaks is the final period iff it
falls inside R_k.  ``acf_hill_valid`` is AUTOPERIOD's check on R_k.
Every helper reads N from its input: N + 1 periodogram ordinates, or the
N lags of an ACF.
"""
from __future__ import annotations

import numpy as np

#: Peak detection (``detect_peaks``): first lag searched, and the peak
#: height floor, absolute and as a share of the tallest peak.
PEAK_MIN_LAG = 2
PEAK_MIN_HEIGHT = 0.1
PEAK_HEIGHT_FRAC = 0.5


def classic_acf(w: np.ndarray, unbiased: bool = True) -> np.ndarray:
    """Normalized ACF of the paper's §3.4.2 (Box–Jenkins), via FFT.

    ``ACF(t) = Σ_{n<N−t} w_n w_{n+t} / ((N−t)·δ²_w)`` when unbiased,
    with δ²_w the sample variance of the (mean-removed) series.
    """
    w = np.asarray(w, dtype=float)
    n = w.size
    w = w - w.mean()
    var = np.var(w)
    if var <= 0:
        return np.zeros(n)
    f = np.fft.rfft(w, 2 * n)
    acov = np.fft.irfft(f.real**2 + f.imag**2, 2 * n)[:n]
    denom = (np.arange(n, 0, -1) if unbiased else np.full(n, n)) * var
    return acov / denom


def huber_acf(P_half: np.ndarray) -> np.ndarray:
    """Huber-ACF (Eq. 13) from the one-sided Huber-periodogram (N + 1 bins)
    of the zero-padded (N' = 2N) level series.  Returns lags 0..N−1,
    ACF(0)=1."""
    n = P_half.size - 1
    p = np.fft.irfft(P_half, 2 * n)[:n]
    if p[0] == 0:
        return np.zeros(n)
    t = np.arange(n)
    return n * p / ((n - t) * p[0])


def detect_peaks(a: np.ndarray) -> np.ndarray:
    """Simple local-maxima peak detection (Palshikar-style).

    A lag t ≥ ``PEAK_MIN_LAG`` is a peak if it is a strict local max of the
    lightly smoothed ACF and its (smoothed) height exceeds
    ``max(PEAK_MIN_HEIGHT, PEAK_HEIGHT_FRAC · tallest_peak)``.
    """
    a = np.asarray(a, dtype=float)
    s = a.copy()
    s[1:-1] = (a[:-2] + a[1:-1] + a[2:]) / 3.0
    # Cap the search below N−2 so the unbiased-ACF edge blow-up is ignored.
    t = np.arange(PEAK_MIN_LAG, int(a.size * 0.9) - 1)
    cand = t[(s[t] >= s[t - 1]) & (s[t] > s[t + 1])]
    if cand.size == 0:
        return cand
    thr = max(PEAK_MIN_HEIGHT, PEAK_HEIGHT_FRAC * s[cand].max())
    return cand[s[cand] >= thr]


def resolution_interval(k: int, n_prime: int) -> tuple[float, float]:
    """R_k of §3.4.2 (with the paper's N replaced by the padded N').

    The paper pads the bin-midpoint interval by ±1 sample; we use ±2 so a
    true period that falls exactly between two periodogram bins (e.g.
    T=120 between N'/17≈117.6 and N'/16=125) is not rejected by a third
    of a sample.
    """
    lo = 0.5 * (n_prime / (k + 1) + n_prime / k) - 2.0
    hi = (0.5 * (n_prime / k + n_prime / (k - 1)) + 2.0) if k > 1 else float(n_prime)
    return lo, hi


def acf_med_period(acf_vals: np.ndarray, k_star: int) -> int:
    """Huber-ACF-Med: median peak spacing of the lag 0..N−1 ACF, validated
    against R_{k*} (N' = 2N).

    Beyond the paper's R_k location check, two persistence guards reject
    the pseudo-periodic ACF of band-passed noise (whose correlation
    envelope decays, unlike a true periodic component):

    * enough peaks: at least ~40% of the expected ``0.9·n/med − 1``
      qualifying peaks must be present;
    * regular spacings: the MAD of the peak spacings must be within 20%
      of the median spacing.

    Returns the final integer period, or 0 if validation fails.
    """
    n = acf_vals.size
    peaks = detect_peaks(acf_vals)
    if peaks.size == 0 or k_star < 1:
        return 0
    if peaks.size == 1:
        med = float(peaks[0])
    else:
        diffs = np.diff(peaks)
        med = float(np.median(diffs))
        if med <= 0:
            return 0
        spread = float(np.median(np.abs(diffs - med)))
        if spread > max(2.0, 0.2 * med):
            return 0
    expected = int(0.9 * n / med) - 1 if med > 0 else 0
    if expected >= 3 and peaks.size < max(2, int(0.4 * expected)):
        return 0
    lo, hi = resolution_interval(k_star, 2 * n)
    if lo <= med <= hi:
        return int(round(med))
    return 0


def acf_hill_valid(acf_vals: np.ndarray, k: int) -> tuple[bool, int]:
    """AUTOPERIOD validation: the candidate from periodogram index ``k``
    (of the N' = 2N padded series) is kept iff the lag 0..N−1 ACF has an
    interior local maximum ("hill") inside the candidate's resolution
    interval R_k; the refined period is that peak.
    """
    n = acf_vals.size
    lo, hi = resolution_interval(k, 2 * n)
    lo_i = max(2, int(np.floor(lo)))
    hi_i = min(n - 2, int(np.ceil(hi)))
    if hi_i - lo_i < 2:
        return False, 0
    seg = acf_vals[lo_i:hi_i + 1]
    t_rel = int(np.argmax(seg))
    t = lo_i + t_rel
    interior = 0 < t_rel < (hi_i - lo_i)
    if interior and acf_vals[t] > 0 and acf_vals[t] > acf_vals[lo_i] \
            and acf_vals[t] > acf_vals[hi_i]:
        return True, t
    return False, 0

"""Data preprocessing of §3.2: normalize, HP-detrend, clip extreme outliers.

``preprocess(y)`` returns the series the rest of the pipeline consumes:

1. HP trend filter (Eq. 2) estimates τ̂; the series is detrended as
   ``ŷ = y − τ̂``;
2. ``y' = ψ((ŷ − μ)/s)`` with μ = median, s = MAD, and the bounded
   ψ(x) = sign(x)·min(|x|, c), c = ``PSI_CLIP_C`` — this both normalizes
   the scale and coarsely clips extreme outliers (Dürre et al. 2015).

NaNs (missing data, as in the cloud datasets of Table 4) are linearly
interpolated first, matching the paper's handling of Data-5/6.
"""
from __future__ import annotations

import numpy as np

from .hp_filter import hp_filter
from .robust_stats import mad, median, psi_clip

#: ψ-clip threshold c of §3.2, in robust (MAD) units.
PSI_CLIP_C = 3.0


def interpolate_missing(y: np.ndarray) -> np.ndarray:
    """Linear interpolation over NaNs (edge NaNs take the nearest value)."""
    y = np.asarray(y, dtype=float).copy()
    bad = ~np.isfinite(y)
    if bad.any():
        good = ~bad
        if not good.any():
            return np.zeros_like(y)
        idx = np.arange(y.size)
        y[bad] = np.interp(idx[bad], idx[good], y[good])
    return y


def _detrend(y: np.ndarray) -> tuple[np.ndarray, float]:
    """NaN-interpolated, HP-detrended ``y`` (Eq. 2), and the scale floor
    below which it counts as flat.  The median goes first, because the HP
    solve's rounding error grows with the offset (~1e-8·offset).  The floor
    is relative to max|y − median| so the HP residual of a constant maps to
    zeros, not to amplified float noise, at any scale or offset."""
    y = interpolate_missing(y)
    if y.size == 0:
        return y, 0.0
    y = y - np.median(y)
    tiny = 1e-8 * float(np.max(np.abs(y)))
    if y.size >= 8:
        y = y - hp_filter(y)
    return y, tiny


def detrend_normalize(y: np.ndarray) -> np.ndarray:
    """HP-detrend + z-normalize, **without** the robust ψ-clip.

    The paper applies the HP filter to *all* algorithms for a fair
    comparison (§4.1.1); the robust clipping is RobustPeriod's own
    preprocessing, so baselines get this variant.
    """
    y, tiny = _detrend(y)
    if y.size == 0:
        return y
    s = float(np.std(y))
    return (y - float(np.mean(y))) / s if s > tiny else np.zeros_like(y)


def preprocess(y: np.ndarray) -> np.ndarray:
    """Normalized, detrended, outlier-clipped series y' of §3.2."""
    y, tiny = _detrend(y)
    mu = median(y)
    s = mad(y, center=mu)
    if s <= tiny or not np.isfinite(s):
        s = float(np.std(y))
    if s <= tiny or not np.isfinite(s):
        return np.zeros_like(y)
    return psi_clip((y - mu) / s, PSI_CLIP_C)

"""Downstream forecasting substrate for Table 6 (TBATS substitution).

TBATS (De Livera et al. 2011) is a Box-Cox/ARMA/trend/seasonal state
space model; offline we substitute a multi-seasonal **harmonic
regression with linear trend**: regressors ``[1, t]`` plus Fourier pairs
``cos/sin(2π·m·t/T)`` for each supplied period T (m = 1..K harmonics).
The substitution preserves the property Table 6 measures — forecast
accuracy is monotone in the quality of the period set handed to the
model (missing or spurious periods leave structure in the residuals) —
see DESIGN.md §5.
"""
from __future__ import annotations

import numpy as np

#: Fourier pairs per period (K).
N_HARMONICS = 3


def _design(t: np.ndarray, periods: list[int], train_len: int) -> np.ndarray:
    cols = [np.ones_like(t, dtype=float), t / max(train_len, 1)]
    for T in periods:
        kmax = min(N_HARMONICS, max(1, T // 2))
        for m in range(1, kmax + 1):
            ang = 2.0 * np.pi * m * t / T
            cols.append(np.cos(ang))
            cols.append(np.sin(ang))
    return np.column_stack(cols)


def clean_periods(periods, train_len: int) -> list[int]:
    """Usable subset: deduped, ≥2, at most train_len/2."""
    out = sorted({int(p) for p in periods if 2 <= int(p) <= train_len // 2})
    return out


def fit_predict(y_train: np.ndarray, periods, horizon: int) -> np.ndarray:
    """Least-squares harmonic fit on the training window, extrapolated
    ``horizon`` steps ahead.  An empty/unusable period set degrades to a
    trend-only forecast (as TBATS without seasonality would)."""
    y_train = np.asarray(y_train, dtype=float)
    n = y_train.size
    ps = clean_periods(periods, n)
    t_all = np.arange(n + horizon)
    X = _design(t_all, ps, n)
    beta, *_ = np.linalg.lstsq(X[:n], y_train, rcond=None)
    return X[n:] @ beta


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def mae(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(a) - np.asarray(b))))


def evaluate_forecast(y: np.ndarray, train_len: int, horizons,
                      periods) -> dict:
    """RMSE/MAE of the harmonic forecaster per horizon."""
    y = np.asarray(y, dtype=float)
    out = {}
    for h in horizons:
        pred = fit_predict(y[:train_len], periods, h)
        actual = y[train_len:train_len + h]
        out[h] = {"rmse": rmse(pred, actual), "mae": mae(pred, actual)}
    return out

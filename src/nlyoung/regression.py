"""Small regression helpers for convergence orders and scaling diagnostics."""

from __future__ import annotations

import numpy as np

__all__ = ["theil_sen_slope", "ls_slope", "lag_scaling_slope"]


def theil_sen_slope(x, y) -> float:
    """Median of all pairwise slopes (robust trend estimate)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    i, j = np.triu_indices(x.size, k=1)
    dx = x[j] - x[i]
    keep = dx != 0
    return float(np.median((y[j] - y[i])[keep] / dx[keep]))


def ls_slope(x, y) -> float:
    """Least-squares slope of y against x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = x - x.mean()
    return float((xm @ (y - y.mean())) / (xm @ xm))


def lag_scaling_slope(ts: np.ndarray, values: np.ndarray):
    """Scaling exponent of a sampled path from dyadic-lag increments.

    For each dyadic lag L up to a quarter of the samples the median of
    |v[i+L] - v[i]| is computed; the least-squares slope of log(median)
    against log(lag length) estimates the Holder exponent of the path.  Returns (slope, lag_lengths, medians).
    """
    n = values.size - 1
    lags = []
    lag = 1
    while lag <= max(1, n // 4):
        lags.append(lag)
        lag *= 2
    lengths = []
    medians = []
    for lag in lags:
        inc = np.abs(values[lag:] - values[:-lag])
        med = float(np.median(inc))
        if med > 0:
            lengths.append(float(ts[lag] - ts[0]))
            medians.append(med)
    if len(lengths) < 2:
        raise ValueError("not enough resolvable lags for a scaling estimate")
    slope = ls_slope(np.log(lengths), np.log(medians))
    return slope, np.asarray(lengths), np.asarray(medians)

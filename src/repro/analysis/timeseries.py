"""Time-series utilities: binning, smoothing, normalisation.

The binning semantics here — horizon inference as ``max(times) + bin_s``,
bin index ``clip(times // bin_s, 0, n_bins - 1)`` — are the contract the
streaming accumulators (:mod:`repro.analysis.accumulators`) reproduce, so
chunk-incremental series finalize to exactly these arrays.

A timestamp column is binned once per figure: :func:`bin_counts_and_means`
resolves the bin indices once and takes the counts and every value
column's means from them, so a figure with five per-bin means bins its
events once, not six or eleven times.

:func:`moving_average` takes the window sums of an integer-valued,
NaN-free series (per-minute counts, which every figure smooths) from
prefix sums. Integer sums below 2**53 are exact in float64 in any order,
so those floats equal the convolution's; any other series is convolved.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def resolve_bins(
    times_s: np.ndarray, bin_s: float, horizon_s: float | None
) -> tuple[int, np.ndarray]:
    """Shared binning contract: ``(n_bins, clipped bin index per event)``."""
    if bin_s <= 0:
        raise ValueError("bin_s must be positive")
    if horizon_s is None:
        horizon_s = float(times_s.max()) + bin_s if times_s.size else bin_s
    n_bins = max(int(np.ceil(horizon_s / bin_s)), 1)
    if times_s.size == 0:
        return n_bins, np.zeros(0, dtype=np.int64)
    return n_bins, np.clip((times_s // bin_s).astype(np.int64), 0, n_bins - 1)


def bin_counts(
    times_s: np.ndarray, bin_s: float, horizon_s: float | None = None
) -> np.ndarray:
    """Event counts per fixed-width bin.

    Args:
        times_s: event timestamps (seconds), any order.
        bin_s: bin width in seconds.
        horizon_s: total covered span; inferred from the data when omitted.
    """
    times_s = np.asarray(times_s, dtype=np.float64)
    n_bins, idx = resolve_bins(times_s, bin_s, horizon_s)
    if times_s.size == 0:
        return np.zeros(n_bins)
    return np.bincount(idx, minlength=n_bins).astype(np.float64)


def bin_sums(
    times_s: np.ndarray,
    values: np.ndarray,
    bin_s: float,
    horizon_s: float | None = None,
) -> np.ndarray:
    """Sum of ``values`` per bin."""
    times_s = np.asarray(times_s, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times_s.shape != values.shape:
        raise ValueError("times and values must align")
    n_bins, idx = resolve_bins(times_s, bin_s, horizon_s)
    if times_s.size == 0:
        return np.zeros(n_bins)
    return np.bincount(idx, weights=values, minlength=n_bins)


def bin_means(
    times_s: np.ndarray,
    values: np.ndarray,
    bin_s: float,
    horizon_s: float | None = None,
) -> np.ndarray:
    """Mean of ``values`` per bin; empty bins are NaN."""
    _, (means,) = bin_counts_and_means(times_s, [values], bin_s, horizon_s)
    return means


def bin_counts_and_means(
    times_s: np.ndarray,
    columns: Iterable[np.ndarray],
    bin_s: float,
    horizon_s: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Event counts per bin and the per-bin mean of each value column.

    The bins are resolved once for all columns. Each result equals
    :func:`bin_counts` or :func:`bin_means` on the same arguments.
    ``columns`` is read one column at a time, so a generator keeps only
    one value column alive.
    """
    times_s = np.asarray(times_s, dtype=np.float64)
    n_bins, idx = resolve_bins(times_s, bin_s, horizon_s)
    counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
    filled = counts > 0
    divisor = np.maximum(counts, 1)
    means = []
    for values in columns:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != times_s.shape:
            raise ValueError("times and values must align")
        sums = np.bincount(idx, weights=values, minlength=n_bins)
        with np.errstate(invalid="ignore", divide="ignore"):
            means.append(np.where(filled, sums / divisor, np.nan))
    return counts, means


def moving_average(series: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; NaNs are treated as missing.

    Sample ``i`` is the mean of the valid samples at ``i - window // 2``
    through ``i + (window - 1) // 2``, clipped to the series, so the result
    always has ``len(series)`` samples.
    """
    series = np.asarray(series, dtype=np.float64)
    if window <= 0:
        raise ValueError("window must be positive")
    n = series.size
    if window == 1 or n == 0:
        return series.copy()
    if np.abs(series).sum() < 2.0**53 and (series == np.round(series)).all():
        # Integer-valued and finite (NaN and inf fail the sum test): exact
        # prefix sums give the convolution's floats.
        prefix = np.concatenate(([0.0], np.cumsum(series)))
        centre = np.arange(n)
        hi = np.minimum(centre + (window - 1) // 2 + 1, n)
        lo = np.maximum(centre - window // 2, 0)
        return (prefix[hi] - prefix[lo]) / (hi - lo).astype(np.float64)
    valid = ~np.isnan(series)
    # "same" mode returns max(n, window) samples: pad a short series with
    # missing samples up to the window and keep its own n.
    pad = np.zeros(max(window - n, 0))
    filled = np.concatenate([np.where(valid, series, 0.0), pad])
    kernel = np.ones(window)
    sums = np.convolve(filled, kernel, mode="same")[:n]
    counts = np.convolve(np.concatenate([valid, pad]), kernel, mode="same")[:n]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def normalize_max(series: np.ndarray) -> np.ndarray:
    """Scale a series to [0, 1] by its max (NaN-safe); all-zero stays zero."""
    series = np.asarray(series, dtype=np.float64)
    peak = np.nanmax(series) if series.size else 0.0
    if not np.isfinite(peak) or peak == 0:
        return np.zeros_like(series)
    return series / peak


def presence_counts(
    starts_s: np.ndarray,
    ends_s: np.ndarray,
    bin_s: float,
    horizon_s: float,
) -> np.ndarray:
    """Number of intervals overlapping each bin (running pods per hour).

    Uses a +1/-1 difference array over bin indices, so counting millions of
    pod lifetimes is O(n + bins).
    """
    starts_s = np.asarray(starts_s, dtype=np.float64)
    ends_s = np.asarray(ends_s, dtype=np.float64)
    if starts_s.shape != ends_s.shape:
        raise ValueError("starts and ends must align")
    if np.any(ends_s < starts_s):
        raise ValueError("interval ends must not precede starts")
    n_bins = max(int(np.ceil(horizon_s / bin_s)), 1)
    if starts_s.size == 0:
        return np.zeros(n_bins)
    start_idx = np.clip((starts_s // bin_s).astype(np.int64), 0, n_bins - 1)
    end_idx = np.clip((ends_s // bin_s).astype(np.int64), 0, n_bins - 1) + 1
    delta = np.zeros(n_bins + 1)
    np.add.at(delta, start_idx, 1.0)
    np.add.at(delta, end_idx, -1.0)
    return np.cumsum(delta[:-1])

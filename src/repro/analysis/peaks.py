"""Peak detection and peak-to-trough ratios (paper §3.2, Figs. 5 & 6).

The paper smooths the per-minute request signal, marks the largest peak in
every 24 h window (Fig. 5), and characterises functions by the ratio of
their largest peak to their lowest trough (Fig. 6). Functions invoked at a
constant rate, or with too few requests to show a peak, are assigned a
ratio of one.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.timeseries import moving_average, resolve_bins

MINUTES_PER_DAY = 1440

#: Below one request per minute on average there is no identifiable peak
#: (the Fig. 6 cluster at ratio 1).
_PEAK_MIN_DAILY_REQUESTS = 1440.0


def daily_peak_minutes(
    per_minute: np.ndarray, smooth_window: int = 60
) -> np.ndarray:
    """Minute-of-day of the largest smoothed peak in each full day (Fig. 5).

    Pass ``smooth_window=1`` for a series that is already smoothed.
    """
    smoothed = moving_average(per_minute, smooth_window)
    n_days = smoothed.size // MINUTES_PER_DAY
    peaks = np.empty(n_days, dtype=np.int64)
    for day in range(n_days):
        window = smoothed[day * MINUTES_PER_DAY : (day + 1) * MINUTES_PER_DAY]
        peaks[day] = int(np.nanargmax(window)) if np.isfinite(window).any() else 0
    return peaks


def function_minute_matrix(
    function_ids: np.ndarray,
    functions: np.ndarray,
    times_s: np.ndarray,
    horizon_s: float,
) -> np.ndarray:
    """Per-minute request counts of each function (rows follow the sorted
    ``function_ids``; ``functions`` and ``times_s`` are the request rows).

    One ``bincount`` over (function code, minute); row ``i`` equals
    ``bin_counts`` of function ``i``'s timestamps over ``horizon_s``. The
    counts stay int64: :func:`peak_trough_rows` converts one row at a time.
    """
    n_bins, key = resolve_bins(np.asarray(times_s, dtype=np.float64), 60.0, horizon_s)
    code = np.searchsorted(function_ids, functions)
    code *= n_bins
    key += code
    counts = np.bincount(key, minlength=function_ids.size * n_bins)
    return counts.reshape(function_ids.size, n_bins)


def peak_trough_rows(
    region: str,
    function_ids: np.ndarray,
    per_day: np.ndarray,
    minute_matrix: np.ndarray,
    cold_map: dict[int, int],
) -> list[dict[str, object]]:
    """Fig. 6 rows from per-function statistics.

    ``minute_matrix`` holds each function's per-minute request counts over
    the full horizon (rows aligned with ``function_ids``), as either
    region-data adapter of the study serves it.
    """
    rows: list[dict[str, object]] = []
    for i, function_id in enumerate(np.asarray(function_ids).tolist()):
        rows.append(
            {
                "region": region,
                "function": int(function_id),
                "requests_per_day": float(per_day[i]),
                "peak_to_trough": peak_to_trough_ratio(
                    minute_matrix[i].astype(np.float64)
                ),
                "cold_starts": int(cold_map.get(int(function_id), 0)),
            }
        )
    return rows


def peak_to_trough_ratio(
    per_minute: np.ndarray,
    smooth_window: int = 180,
    trough_floor: float = 1.0 / 60.0,
) -> float:
    """Largest peak over lowest trough of the smoothed per-minute signal.

    Functions averaging fewer than one request per minute — too sparse for
    an identifiable peak — return exactly 1.0, reproducing the Fig. 6
    cluster at ratio one. The trough is floored (default: one request per
    hour expressed per minute) so empty troughs yield large-but-finite
    ratios like the paper's 10^3–10^4 extremes.
    """
    per_minute = np.asarray(per_minute, dtype=np.float64)
    if per_minute.size == 0:
        return 1.0
    total = float(np.nansum(per_minute))
    days = per_minute.size / MINUTES_PER_DAY
    if days <= 0 or total / max(days, 1e-9) < _PEAK_MIN_DAILY_REQUESTS:
        return 1.0
    smoothed = moving_average(per_minute, smooth_window)
    peak = float(np.nanmax(smoothed))
    trough = float(np.nanmin(smoothed))
    if peak <= 0:
        return 1.0
    ratio = peak / max(trough, trough_floor)
    return max(ratio, 1.0)

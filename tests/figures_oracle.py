"""Frozen figure helpers: the differential oracle for the materialised pass.

These are the helpers the materialised figures used before each statistic
was computed once: day counts through ``np.unique(return_inverse=True)``,
Fig. 4's counts through three ``np.unique`` sorts, ``bin_means`` binning
its timestamps twice and every mean binned on its own, Fig. 6's matrix
one ``bin_counts`` call per argsorted function group, smoothing by
convolution (twice for Fig. 5), and KS statistics through
``stats.kstest``, which also computes an exact p-value. They are kept
verbatim so the current code can be checked byte for byte against them.
Do not optimise them.

:class:`OracleTraceStudy` is a :class:`~repro.core.study.TraceStudy` whose
figure methods that read these helpers use the frozen ones; every other
figure is inherited (Fig. 7's daily CPU means read the current
``bin_means``).
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.analysis.cdf import Cdf, empirical_cdf
from repro.analysis.peaks import MINUTES_PER_DAY, _PEAK_MIN_DAILY_REQUESTS
from repro.analysis.timeseries import bin_counts, bin_sums, normalize_max
from repro.core.correlations import _FIELD_TO_COLUMN, correlations_from_series
from repro.core.fits import LogNormalFit, WeibullFit
from repro.core.study import TraceStudy, _shared
from repro.trace.tables import COMPONENT_COLUMNS, PodTable, TraceBundle

_SECONDS_PER_DAY = 86_400.0


# --- analysis/timeseries.py -----------------------------------------------------


def bin_means(times_s, values, bin_s, horizon_s=None):
    """Mean of ``values`` per bin; empty bins are NaN."""
    sums = bin_sums(times_s, values, bin_s, horizon_s)
    counts = bin_counts(times_s, bin_s, horizon_s)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def moving_average(series, window):
    """Centered moving average; NaNs are treated as missing."""
    series = np.asarray(series, dtype=np.float64)
    if window <= 0:
        raise ValueError("window must be positive")
    if window == 1 or series.size == 0:
        return series.copy()
    valid = ~np.isnan(series)
    filled = np.where(valid, series, 0.0)
    kernel = np.ones(window)
    sums = np.convolve(filled, kernel, mode="same")
    counts = np.convolve(valid.astype(np.float64), kernel, mode="same")
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


# --- analysis/region_stats.py ---------------------------------------------------


def requests_per_day_per_function(bundle: TraceBundle) -> np.ndarray:
    """Per-function requests on its *median* day (Fig. 3a's statistic)."""
    requests = bundle.requests
    if not len(requests):
        return np.zeros(0)
    days = max(int(np.ceil(requests.span_days())), 1)
    function_ids = requests["function"]
    uniques, inverse = np.unique(function_ids, return_inverse=True)
    day_idx = np.clip(
        (requests.timestamps_s // _SECONDS_PER_DAY).astype(np.int64), 0, days - 1
    )
    flat = inverse * days + day_idx
    counts = np.bincount(flat, minlength=uniques.size * days)
    matrix = counts.reshape(uniques.size, days)
    return np.median(matrix, axis=1)


def share_at_least_one_per_minute(bundle: TraceBundle) -> float:
    per_function = requests_per_day_per_function(bundle)
    if per_function.size == 0:
        return 0.0
    return float((per_function >= 1440.0).mean())


def exec_time_per_minute_cdf(bundle: TraceBundle) -> Cdf:
    requests = bundle.requests
    means = bin_means(requests.timestamps_s, requests.exec_time_s, 60.0)
    return empirical_cdf(means[~np.isnan(means)])


def cpu_per_minute_cdf(bundle: TraceBundle) -> Cdf:
    requests = bundle.requests
    cores = requests["cpu_millicores"] / 1000.0
    means = bin_means(requests.timestamps_s, cores, 60.0)
    return empirical_cdf(means[~np.isnan(means)])


def functions_per_user_counts(bundle: TraceBundle) -> np.ndarray:
    """Functions owned per user, from (function, user) pairs in requests."""
    requests = bundle.requests
    if not len(requests):
        return np.zeros(0, dtype=np.int64)
    _, user = np.unique(requests["user"], return_inverse=True)
    _, function = np.unique(requests["function"], return_inverse=True)
    span = int(function.max()) + 1
    pairs = np.unique(user * span + function)
    return np.bincount(pairs // span)


# --- analysis/peaks.py ----------------------------------------------------------


def daily_peak_minutes(per_minute, smooth_window=60):
    smoothed = moving_average(per_minute, smooth_window)
    n_days = smoothed.size // MINUTES_PER_DAY
    peaks = np.empty(n_days, dtype=np.int64)
    for day in range(n_days):
        window = smoothed[day * MINUTES_PER_DAY : (day + 1) * MINUTES_PER_DAY]
        peaks[day] = int(np.nanargmax(window)) if np.isfinite(window).any() else 0
    return peaks


def peak_to_trough_ratio(per_minute, smooth_window=180, trough_floor=1.0 / 60.0):
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


def peak_trough_rows(region, function_ids, per_day, minute_matrix, cold_map):
    rows = []
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


def group_indices(values: np.ndarray, uniques: np.ndarray) -> list[np.ndarray]:
    """Index arrays per unique value, aligned with ``uniques`` (sorted)."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    bounds = np.searchsorted(sorted_vals, uniques)
    bounds = np.append(bounds, values.size)
    return [order[bounds[i] : bounds[i + 1]] for i in range(uniques.size)]


def minute_matrix(bundle: TraceBundle, horizon_s: float) -> list[np.ndarray]:
    """Fig. 6's per-function minute counts, one ``bin_counts`` per function."""
    requests = bundle.requests
    ts = requests.timestamps_s
    uniques = np.unique(requests["function"])
    return [
        bin_counts(ts[idx], 60.0, horizon_s)
        for idx in group_indices(requests["function"], uniques)
    ]


# --- analysis/coldstart_stats.py and core/correlations.py -----------------------


def hourly_component_means(pods: PodTable, horizon_s=None) -> dict[str, np.ndarray]:
    ts = pods.timestamps_s
    if horizon_s is None:
        horizon_s = float(ts.max()) + 3600.0 if ts.size else 3600.0
    out = {
        "count": bin_counts(ts, 3600.0, horizon_s),
        "cold_start_s": bin_means(ts, pods.cold_start_s, 3600.0, horizon_s),
    }
    for column in COMPONENT_COLUMNS:
        out[column] = bin_means(ts, pods.component_s(column), 3600.0, horizon_s)
    return out


def component_correlations(pods: PodTable, bin_s: float = 60.0):
    ts = pods.timestamps_s
    horizon = float(ts.max()) + bin_s if ts.size else bin_s
    counts = bin_counts(ts, bin_s, horizon)
    active = counts > 0
    series = {
        "cold_start_time": bin_means(ts, pods.cold_start_s, bin_s, horizon)[active],
        "num_cold_starts": counts[active],
    }
    for field, column in _FIELD_TO_COLUMN.items():
        series[field] = bin_means(ts, pods.component_s(column), bin_s, horizon)[active]
    return correlations_from_series(series)


# --- core/fits.py -----------------------------------------------------------------


def fit_cold_start_times(durations_s, max_samples=200_000) -> LogNormalFit:
    values = np.asarray(durations_s, dtype=np.float64)
    values = values[values > 0]
    if values.size < 10:
        raise ValueError("need at least 10 positive durations to fit")
    if values.size > max_samples:
        step = values.size // max_samples
        values = values[::step]
    shape, _loc, scale = stats.lognorm.fit(values, floc=0)
    fit = LogNormalFit(mu=float(np.log(scale)), sigma=float(shape))
    ks = stats.kstest(values, "lognorm", args=(shape, 0, scale)).statistic
    return LogNormalFit(mu=fit.mu, sigma=fit.sigma, ks_statistic=float(ks), n=values.size)


def fit_cold_start_iats(iats_s, max_samples=200_000) -> WeibullFit:
    values = np.asarray(iats_s, dtype=np.float64)
    values = values[values > 0]
    if values.size < 10:
        raise ValueError("need at least 10 positive inter-arrival times to fit")
    if values.size > max_samples:
        step = values.size // max_samples
        values = values[::step]
    c, _loc, scale = stats.weibull_min.fit(values, floc=0)
    ks = stats.kstest(values, "weibull_min", args=(c, 0, scale)).statistic
    return WeibullFit(k=float(c), lam=float(scale), ks_statistic=float(ks), n=values.size)


# --- the study ------------------------------------------------------------------


class OracleTraceStudy(TraceStudy):
    """:class:`TraceStudy` with the frozen helpers above behind its figures."""

    @_shared
    def fig03_requests_per_day(self):
        return {
            name: empirical_cdf(requests_per_day_per_function(bundle))
            for name, bundle in self.bundles.items()
        }

    @_shared
    def fig03_exec_time(self):
        return {name: exec_time_per_minute_cdf(b) for name, b in self.bundles.items()}

    @_shared
    def fig03_cpu_usage(self):
        return {name: cpu_per_minute_cdf(b) for name, b in self.bundles.items()}

    def fig03_share_at_least_1_per_minute(self):
        return {
            name: share_at_least_one_per_minute(bundle)
            for name, bundle in self.bundles.items()
        }

    def fig04_functions_per_user(self):
        return {
            name: empirical_cdf(functions_per_user_counts(b).astype(np.float64))
            for name, b in self.bundles.items()
        }

    @_shared
    def fig05_request_series(self, smooth_minutes: int = 60):
        out = {}
        for name, bundle in self.bundles.items():
            ts = bundle.requests.timestamps_s
            horizon = float(bundle.meta.get("days", int(np.ceil(bundle.requests.span_days())))) * _SECONDS_PER_DAY
            per_minute = bin_counts(ts, 60.0, horizon)
            smoothed = moving_average(per_minute, smooth_minutes)
            out[name] = {
                "normalised": normalize_max(smoothed),
                "daily_peak_minute": daily_peak_minutes(per_minute, smooth_minutes),
            }
        return out

    @_shared
    def fig06_peak_trough(self, region: str | None = None):
        rows = []
        names = [region] if region else self.regions
        for name in names:
            bundle = self.region(name)
            requests = bundle.requests
            ts = requests.timestamps_s
            horizon = float(ts.max()) + 60.0 if len(requests) else 60.0
            per_day = requests_per_day_per_function(bundle)
            uniques = np.unique(requests["function"])
            cold_funcs, cold_counts = np.unique(bundle.pods["function"], return_counts=True)
            cold_map = dict(zip(cold_funcs.tolist(), cold_counts.tolist()))
            rows.extend(
                peak_trough_rows(name, uniques, per_day, minute_matrix(bundle, horizon), cold_map)
            )
        return rows

    def fig10_lognormal_fit(self):
        pooled = np.concatenate([b.pods.cold_start_s for b in self.bundles.values()])
        return fit_cold_start_times(pooled)

    def fig10_weibull_fit(self):
        from repro.analysis.coldstart_stats import cold_start_iats

        pooled = np.concatenate([cold_start_iats(b.pods) for b in self.bundles.values()])
        return fit_cold_start_iats(pooled)

    def fig11_hourly_components(self, region: str):
        bundle = self.region(region)
        horizon = float(bundle.meta.get("days", 31)) * _SECONDS_PER_DAY
        return hourly_component_means(bundle.pods, horizon)

    @_shared
    def fig12_correlations(self, region: str):
        return component_correlations(self.region(region).pods)

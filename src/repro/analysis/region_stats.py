"""Region-level statistics: Figures 1, 3, and 4 of the paper."""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import Cdf, empirical_cdf
from repro.analysis.timeseries import bin_counts_and_means
from repro.trace.tables import TraceBundle, sorted_unique

_SECONDS_PER_DAY = 86_400.0


def requests_per_day_per_function(bundle: TraceBundle) -> np.ndarray:
    """Per-function requests on its *median* day (Fig. 3a's statistic).

    For every function, daily request counts are computed over the trace
    horizon and the median across days is taken; days before a function's
    first or after its last request still count as zero-days, matching a
    median over the full trace for registered functions.
    """
    return median_day_requests(bundle)[1]


def median_day_requests(bundle: TraceBundle) -> tuple[np.ndarray, np.ndarray]:
    """(sorted function ids, each one's requests on its median day).

    The statistic of :func:`requests_per_day_per_function`, with the ids it
    is aligned to. The studies share this result between Fig. 3a, the
    share-per-minute check and Fig. 6.
    """
    requests = bundle.requests
    if not len(requests):
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    days = max(int(np.ceil(requests.span_days())), 1)
    function_ids, code = dense_codes(requests["function"])
    day_idx = np.clip(
        (requests.timestamps_s // _SECONDS_PER_DAY).astype(np.int64), 0, days - 1
    )
    counts = np.bincount(code * days + day_idx, minlength=function_ids.size * days)
    return function_ids, np.median(counts.reshape(function_ids.size, days), axis=1)


def dense_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for a column with far
    fewer keys than rows (categories, pod ids of a request stream): the
    sorted keys, then each row's key position by binary search (the
    inverse would argsort every row)."""
    keys = sorted_unique(values)
    return keys, np.searchsorted(keys, values)


def share_at_least_one_from(per_function: np.ndarray) -> float:
    """Share of functions at >= 1 request/minute, given median-day counts.

    The finalizer shared by the materialised and streaming paths (the
    streaming path accumulates the per-function day matrix chunk by chunk).
    """
    if per_function.size == 0:
        return 0.0
    return float((per_function >= 1440.0).mean())


def share_at_least_one_per_minute(bundle: TraceBundle) -> float:
    """Share of functions averaging >= 1 request/minute (paper: 20 % in R1,
    ~1 % in R4)."""
    return share_at_least_one_from(requests_per_day_per_function(bundle))


def exec_time_per_minute_cdf(bundle: TraceBundle) -> Cdf:
    """CDF over minutes of the mean execution time in that minute (Fig. 3b)."""
    return per_minute_usage_cdfs(bundle)[0]


def cpu_per_minute_cdf(bundle: TraceBundle) -> Cdf:
    """CDF over minutes of mean CPU usage in cores (Fig. 3c)."""
    return per_minute_usage_cdfs(bundle)[1]


def per_minute_usage_cdfs(bundle: TraceBundle) -> tuple[Cdf, Cdf]:
    """Figs. 3b and 3c from one binning of the request timestamps: CDFs over
    minutes of the mean execution time and of the mean CPU cores."""
    requests = bundle.requests
    _, means = bin_counts_and_means(
        requests.timestamps_s,
        [requests.exec_time_s, requests["cpu_millicores"] / 1000.0],
        60.0,
    )
    exec_cdf, cpu_cdf = (empirical_cdf(m[~np.isnan(m)]) for m in means)
    return exec_cdf, cpu_cdf


def _functions_per_user_counts(bundle: TraceBundle) -> np.ndarray:
    """Functions owned per user, from (function, user) pairs in requests.

    The function-level stream of Table 1 carries no owner column; ownership
    is observable through the request stream, exactly as in the released
    dataset. Users come in sorted id order.
    """
    requests = bundle.requests
    if not len(requests):
        return np.zeros(0, dtype=np.int64)
    # One int64 key per (user, function) pair, built from dense codes: raw
    # ids (region-blocked, ~5e9 in R5) would overflow ``user * span``.
    _, user = dense_codes(requests["user"])
    functions, function = dense_codes(requests["function"])
    span = functions.size
    pairs = sorted_unique(user * span + function)
    return np.bincount(pairs // span)


def functions_per_user_cdf(bundle: TraceBundle) -> Cdf:
    """CDF of the number of functions per user (Fig. 4a)."""
    return empirical_cdf(_functions_per_user_counts(bundle).astype(np.float64))


def requests_per_user_cdf(bundle: TraceBundle) -> Cdf:
    """CDF of the number of requests per user (Fig. 4b)."""
    if not len(bundle.requests):
        return empirical_cdf(np.zeros(0))
    _, counts = np.unique(bundle.requests["user"], return_counts=True)
    return empirical_cdf(counts.astype(np.float64))


def single_function_user_share(bundle: TraceBundle) -> float:
    """Share of users owning exactly one function (paper: 60–90 %)."""
    counts = _functions_per_user_counts(bundle)
    if counts.size == 0:
        return 0.0
    return float((counts == 1).mean())

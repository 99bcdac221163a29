"""BundleData: the exact side of the study's per-region data interface.

:class:`~repro.core.study.Study` writes each figure once against a small
per-region interface. Two adapters implement it: this one reads a
materialised :class:`~repro.trace.tables.TraceBundle`, so every CDF,
quantile and fit comes from the full sample;
:class:`~repro.analysis.accumulators.RegionAccumulator` (its figure-data
section) serves the same statistics from chunk-incremental state and
sketches.

Pod intervals and per-function cold-start counts have several readers
(Figs. 6, 7, 8, 14 and 17), so the adapter keeps them once built, as the
accumulator holds them anyway. Every other statistic is built per call; the
study keeps the results it shares.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import Cdf, empirical_cdf
from repro.analysis.coldstart_stats import (
    cold_start_cdf,
    cold_start_iats,
    component_cdfs_by,
    hourly_component_means,
    pool_size_quantiles,
)
from repro.analysis.composition import PodIntervals, pod_intervals
from repro.analysis.peaks import function_minute_matrix
from repro.analysis.region_stats import (
    functions_per_user_cdf,
    median_day_requests,
    per_minute_usage_cdfs,
    requests_per_user_cdf,
)
from repro.analysis.timeseries import bin_counts, bin_means
from repro.core.fits import LogNormalFit, WeibullFit, fit_cold_start_iats, fit_cold_start_times
from repro.trace.tables import COMPONENT_COLUMNS, TraceBundle

_SECONDS_PER_DAY = 86_400.0


class BundleData:
    """One region's figure statistics, exact, from its bundle."""

    def __init__(self, bundle: TraceBundle):
        self.bundle = bundle
        self.functions = bundle.functions
        self.meta = bundle.meta
        self._intervals: PodIntervals | None = None
        self._cold_counts: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def last_request_s(self) -> float:
        requests = self.bundle.requests
        return float(requests["timestamp_ms"].max()) / 1e3 if len(requests) else 0.0

    def span_days(self) -> float:
        return self.bundle.requests.span_days()

    def summary(self) -> dict[str, int]:
        return self.bundle.summary()

    def day_counts(self) -> tuple[np.ndarray, np.ndarray]:
        return median_day_requests(self.bundle)

    def minute_usage(self) -> tuple[Cdf, Cdf]:
        return per_minute_usage_cdfs(self.bundle)

    def functions_per_user(self) -> Cdf:
        return functions_per_user_cdf(self.bundle)

    def requests_per_user(self) -> Cdf:
        return requests_per_user_cdf(self.bundle)

    def request_counts(self, horizon_s: float) -> np.ndarray:
        return bin_counts(self.bundle.requests.timestamps_s, 60.0, horizon_s)

    def daily_cpu(self, horizon_s: float) -> np.ndarray:
        requests = self.bundle.requests
        cores = requests["cpu_millicores"] / 1000.0
        return bin_means(requests.timestamps_s, cores, _SECONDS_PER_DAY, horizon_s)

    def function_requests(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.bundle.requests["function"], return_counts=True)

    def function_minute_matrix(self, function_ids: np.ndarray) -> np.ndarray:
        requests = self.bundle.requests
        # horizon None: up to the last request's minute
        return function_minute_matrix(
            function_ids, requests["function"], requests.timestamps_s, None
        )

    def cold_counts(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cold_counts is None:
            self._cold_counts = np.unique(self.bundle.pods["function"], return_counts=True)
        return self._cold_counts

    def pod_intervals(self) -> PodIntervals:
        if self._intervals is None:
            self._intervals = pod_intervals(self.bundle)
        return self._intervals

    def pod_join(self) -> tuple[np.ndarray, np.ndarray]:
        pods = self.bundle.pods
        order = np.argsort(pods["pod_id"])
        return pods["pod_id"][order], pods.cold_start_s[order]

    def pod_series(self, bin_s: float, horizon_s: float | None = None):
        means = hourly_component_means(self.bundle.pods, horizon_s, bin_s)
        return means.pop("count"), means

    def cold_start_cdf(self) -> Cdf:
        return cold_start_cdf(self.bundle.pods)

    def iat_cdf(self) -> Cdf:
        return empirical_cdf(cold_start_iats(self.bundle.pods))

    def category_cdfs(self, by: str) -> dict[str, dict[str, Cdf]]:
        return component_cdfs_by(self.bundle, by=by)

    def pool_quantiles(self) -> dict:
        return pool_size_quantiles(self.bundle)

    def component_means(self) -> dict[str, float]:
        pods = self.bundle.pods
        if not len(pods):
            return {}
        return {column: float(pods.component_s(column).mean()) for column in COMPONENT_COLUMNS}

    def component_medians(self) -> dict[str, float]:
        pods = self.bundle.pods
        return {column: float(np.median(pods.component_s(column))) for column in COMPONENT_COLUMNS}

    @classmethod
    def pooled_lognormal_fit(cls, regions) -> LogNormalFit:
        return fit_cold_start_times(
            np.concatenate([data.bundle.pods.cold_start_s for data in regions])
        )

    @classmethod
    def pooled_weibull_fit(cls, regions) -> WeibullFit:
        return fit_cold_start_iats(
            np.concatenate([cold_start_iats(data.bundle.pods) for data in regions])
        )

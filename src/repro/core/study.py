"""The study: one method per paper figure, each written once.

Benches, examples, and the CLI all go through :class:`Study`, so each
figure has exactly one authoritative entry point. Its figure methods read
one small data interface per region (sizes, median-day counts,
per-minute usage, per-user counts, binned request and pod series, the
function x minute matrix, per-function cold counts, pod intervals, the
pod join, category CDFs and quantiles, pooled fit inputs), implemented by
two adapters that the two constructors pick:

* :class:`TraceStudy` wraps materialised bundles in
  :class:`~repro.core.bundle_data.BundleData`, the exact reference path;
* :class:`StreamingTraceStudy` reads merged
  :class:`~repro.analysis.accumulators.RegionAccumulator` state, so a
  trace never exists in memory as one piece and shards fan out across
  worker processes.

Only the adapters know which statistics are exact and which are sketched.

A figure method whose result has a second reader (a renderer and a
finding, or ``fig05_peak_hours`` reading ``fig05_request_series``) is
wrapped by :func:`_shared`, which keeps the result per bound argument set
in the study's ``__dict__``, so the cache dies with the study. So are the
per-region statistics several figures read: ``_day_counts`` (median-day
requests per function) and ``_minute_usage`` (Figs. 3b/3c). The bundle
adapter also keeps each region's pod intervals and per-function cold
counts, as the accumulator holds them anyway (about 5 MB over five
regions x 31 days at scale 0.05); other row-length arrays are built per
call and dropped. The contract: callers treat a returned figure result as
read-only, and a study is immutable once built (do not add regions or
change ``keepalive_s`` afterwards).
"""

from __future__ import annotations

import functools
import inspect
from pathlib import Path

import numpy as np

from repro.analysis.accumulators import RegionAccumulator
from repro.analysis.cdf import Cdf, empirical_cdf
from repro.analysis.composition import (
    function_metadata,
    pods_over_time_from,
    proportions_from,
    trigger_mix_by_runtime,
)
from repro.analysis.holiday import HolidayEffect, holiday_effect_from_series
from repro.analysis.peaks import daily_peak_minutes, peak_trough_rows
from repro.analysis.region_stats import share_at_least_one_from
from repro.analysis.timeseries import moving_average, normalize_max, presence_counts
from repro.core.bundle_data import BundleData
from repro.core.correlations import FIELD_TO_COLUMN, CorrelationMatrix, correlations_from_series
from repro.core.fits import LogNormalFit, WeibullFit
from repro.core.utility import utility_by_category_from, utility_ratios_from
from repro.trace.tables import TraceBundle
from repro.workload.generator import generate_multi_region

_SECONDS_PER_DAY = 86_400.0

#: Fig. 1's columns, in row order.
_SIZE_COLUMNS = ("requests", "functions", "pods", "cold_starts", "users")


def _shared(method):
    """Memoize a figure method per study and bound argument set.

    Defaults are applied before keying, so ``fig17_utility()`` and
    ``fig17_utility(by="runtime")`` share one entry. The cache sits in the
    instance ``__dict__``: ``functools.cache`` on a method would keep every
    study alive.
    """
    signature = inspect.signature(method)

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        key = (method.__name__, *list(bound.arguments.values())[1:])
        results = vars(self).setdefault("_figure_results", {})
        if key not in results:
            results[key] = method(self, *args, **kwargs)
        return results[key]

    return wrapper


def _cold_map(data) -> dict[int, int]:
    return dict(zip(*(column.tolist() for column in data.cold_counts())))


class Study:
    """Every paper figure over one region-data adapter per region."""

    def __init__(self, data: dict, keepalive_s: float = 60.0):
        self._data = data
        self.keepalive_s = keepalive_s

    @property
    def regions(self) -> list[str]:
        return list(self._data)

    def _region_data(self, name: str):
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(f"region {name!r} not loaded; have {sorted(self._data)}") from None

    def _deep_dive(self, name: str | None):
        """Default to R2 — the region the paper studies in depth."""
        if name is None:
            name = "R2" if "R2" in self._data else next(iter(self._data))
        return self._region_data(name)

    # ---- Figure 1 / Table 1 -----------------------------------------------

    def fig01_region_sizes(self) -> list[dict[str, object]]:
        """Requests, functions, pods per region (Fig. 1)."""
        rows = []
        for name, data in self._data.items():
            sizes = data.summary()
            rows.append({"region": name, **{key: sizes[key] for key in _SIZE_COLUMNS}})
        return rows

    # ---- Figure 3 ------------------------------------------------------------

    @_shared
    def _day_counts(self, region: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted function ids, median-day requests) of one region."""
        return self._region_data(region).day_counts()

    @_shared
    def _minute_usage(self, region: str) -> tuple[Cdf, Cdf]:
        """One region's Figs. 3b and 3c CDFs."""
        return self._region_data(region).minute_usage()

    @_shared
    def fig03_requests_per_day(self) -> dict[str, Cdf]:
        return {name: empirical_cdf(self._day_counts(name)[1]) for name in self.regions}

    @_shared
    def fig03_exec_time(self) -> dict[str, Cdf]:
        return {name: self._minute_usage(name)[0] for name in self.regions}

    @_shared
    def fig03_cpu_usage(self) -> dict[str, Cdf]:
        return {name: self._minute_usage(name)[1] for name in self.regions}

    def fig03_share_at_least_1_per_minute(self) -> dict[str, float]:
        return {name: share_at_least_one_from(self._day_counts(name)[1]) for name in self.regions}

    # ---- Figure 4 --------------------------------------------------------------

    @_shared
    def fig04_functions_per_user(self) -> dict[str, Cdf]:
        return {name: data.functions_per_user() for name, data in self._data.items()}

    def fig04_requests_per_user(self) -> dict[str, Cdf]:
        return {name: data.requests_per_user() for name, data in self._data.items()}

    # ---- Figure 5 ----------------------------------------------------------------

    @_shared
    def fig05_request_series(self, smooth_minutes: int = 60) -> dict[str, dict[str, np.ndarray]]:
        """Normalised per-minute request series + daily peak minutes."""
        out = {}
        for name, data in self._data.items():
            days = float(data.meta.get("days", int(np.ceil(data.span_days()))))
            counts = data.request_counts(days * _SECONDS_PER_DAY)
            smoothed = moving_average(counts, smooth_minutes)
            out[name] = {
                "normalised": normalize_max(smoothed),
                "daily_peak_minute": daily_peak_minutes(smoothed, smooth_window=1),
            }
        return out

    def fig05_peak_hours(self) -> dict[str, float]:
        """Median daily-peak hour per region (the peak-time lag)."""
        series = self.fig05_request_series()
        return {
            name: float(np.median(data["daily_peak_minute"])) / 60.0
            for name, data in series.items()
        }

    # ---- Figure 6 ------------------------------------------------------------------

    @_shared
    def fig06_peak_trough(self, region: str | None = None) -> list[dict[str, object]]:
        """Per-function: median req/day, peak-to-trough ratio, cold starts."""
        rows: list[dict[str, object]] = []
        for name in [region] if region else self.regions:
            data = self._region_data(name)
            function_ids, per_day = self._day_counts(name)
            minute_matrix = data.function_minute_matrix(function_ids)
            rows += peak_trough_rows(name, function_ids, per_day, minute_matrix, _cold_map(data))
        return rows

    # ---- Figure 7 ---------------------------------------------------------------------

    def fig07_holiday(self) -> dict[str, HolidayEffect]:
        """Daily running pods (at the study's keep-alive) and mean CPU."""
        out = {}
        for name, data in self._data.items():
            intervals = data.pod_intervals()
            horizon = data.last_request_s + self.keepalive_s
            ends = intervals.last_end_s + self.keepalive_s
            daily_pods = presence_counts(intervals.start_s, ends, _SECONDS_PER_DAY, horizon)
            out[name] = holiday_effect_from_series(daily_pods, data.daily_cpu(horizon))
        return out

    # ---- Figures 8 & 9 ---------------------------------------------------------------

    def fig08_pods_over_time(
        self, by: str = "trigger", region: str | None = None
    ) -> dict[str, np.ndarray]:
        data = self._deep_dive(region)
        return pods_over_time_from(
            data.pod_intervals(), data.functions, by=by, keepalive_s=self.keepalive_s
        )

    def fig08_proportions(
        self, by: str = "trigger", region: str | None = None
    ) -> dict[str, dict[str, float]]:
        data = self._deep_dive(region)
        return proportions_from(data.pod_intervals(), *data.cold_counts(), data.functions, by=by)

    def fig09_trigger_by_runtime(self, region: str | None = None) -> dict[str, dict[str, float]]:
        return trigger_mix_by_runtime(self._deep_dive(region).functions)

    # ---- Figure 10 ---------------------------------------------------------------------

    def fig10_cold_start_cdfs(self) -> dict[str, Cdf]:
        return {name: data.cold_start_cdf() for name, data in self._data.items()}

    def fig10_iat_cdfs(self) -> dict[str, Cdf]:
        return {name: data.iat_cdf() for name, data in self._data.items()}

    def fig10_lognormal_fit(self) -> LogNormalFit:
        """LogNormal fit to all regions' cold-start durations pooled."""
        regions = list(self._data.values())
        return type(regions[0]).pooled_lognormal_fit(regions)

    def fig10_weibull_fit(self) -> WeibullFit:
        """Weibull fit to all regions' cold-start inter-arrival times pooled."""
        regions = list(self._data.values())
        return type(regions[0]).pooled_weibull_fit(regions)

    # ---- Figure 11 --------------------------------------------------------------------

    def fig11_hourly_components(self, region: str) -> dict[str, np.ndarray]:
        data = self._region_data(region)
        horizon = float(data.meta.get("days", 31)) * _SECONDS_PER_DAY
        counts, means = data.pod_series(3600.0, horizon)
        return {"count": counts, **means}

    def fig11_dominant_component(self) -> dict[str, str]:
        """The component with the largest mean, per region ("none" without pods)."""
        out = {}
        for name, data in self._data.items():
            means = data.component_means()
            out[name] = max(means, key=means.get) if means else "none"
        return out

    def fig11_component_stats(self) -> dict[str, dict[str, tuple[float, float]]]:
        """(mean, median) seconds of each component, per region with pods."""
        out = {}
        for name, data in self._data.items():
            if means := data.component_means():
                medians = data.component_medians()
                out[name] = {column: (means[column], medians[column]) for column in means}
        return out

    # ---- Figure 12 --------------------------------------------------------------------

    @_shared
    def fig12_correlations(self, region: str) -> CorrelationMatrix:
        """Spearman matrix over the minutes with a cold start."""
        counts, means = self._region_data(region).pod_series(60.0)
        active = counts > 0
        series = {"num_cold_starts": counts[active]}
        for field, column in (("cold_start_time", "cold_start_s"), *FIELD_TO_COLUMN.items()):
            series[field] = means[column][active]
        return correlations_from_series(series)

    # ---- Figure 13 --------------------------------------------------------------------

    @_shared
    def fig13_pool_split(self, region: str | None = None) -> dict:
        if region is not None:
            return self._region_data(region).pool_quantiles()
        return {name: data.pool_quantiles() for name, data in self._data.items()}

    # ---- Figures 14-16 ----------------------------------------------------------------

    @_shared
    def fig14_requests_vs_cold_starts(self, region: str | None = None) -> list[dict[str, object]]:
        """Per-function total requests vs cold starts with trigger label."""
        data = self._deep_dive(region)
        function_ids, requests = data.function_requests()
        cold = _cold_map(data)
        triggers = function_metadata(data.functions, function_ids).trigger_label
        return [
            {
                "function": function_id, "requests": int(n),
                "cold_starts": int(cold.get(function_id, 0)), "trigger": str(trigger),
            }
            for function_id, n, trigger in zip(function_ids.tolist(), requests, triggers)
        ]

    @_shared
    def fig15_by_runtime(self, region: str | None = None) -> dict[str, dict[str, Cdf]]:
        return self._deep_dive(region).category_cdfs("runtime")

    def fig16_by_trigger(self, region: str | None = None) -> dict[str, dict[str, Cdf]]:
        return self._deep_dive(region).category_cdfs("trigger")

    # ---- Figure 17 --------------------------------------------------------------------

    @_shared
    def fig17_utility(self, by: str = "runtime", region: str | None = None) -> dict:
        """Pod utility ratios per runtime or trigger, from the pod join."""
        data = self._deep_dive(region)
        function_ids, ratios = utility_ratios_from(data.pod_intervals(), *data.pod_join())
        return utility_by_category_from(function_ids, ratios, data.functions, by=by)


class TraceStudy(Study):
    """The study over materialised per-region bundles: the exact path."""

    def __init__(self, bundles: dict[str, TraceBundle], keepalive_s: float = 60.0):
        if not bundles:
            raise ValueError("need at least one region bundle")
        self.bundles = dict(bundles)
        super().__init__(
            {name: BundleData(bundle) for name, bundle in self.bundles.items()}, keepalive_s
        )

    @classmethod
    def generate(
        cls,
        regions: tuple[str, ...] = ("R1", "R2", "R3", "R4", "R5"),
        seed: int = 0,
        days: int = 31,
        scale: float = 1.0,
        jobs: int = 1,
        chunk_days: int | None = None,
        channel: str = "pickle",
    ) -> "TraceStudy":
        """Generate fresh synthetic traces and wrap them; ``jobs``,
        ``chunk_days`` and ``channel`` shard the generation as
        :mod:`repro.runtime` describes."""
        return cls(
            generate_multi_region(
                regions, seed=seed, days=days, scale=scale,
                jobs=jobs, chunk_days=chunk_days, channel=channel,
            )
        )

    def region(self, name: str) -> TraceBundle:
        return self._region_data(name).bundle


class StreamingTraceStudy(Study):
    """The study over merged per-region accumulators, without bundles.

    Construct via :meth:`generate` (sharded, parallel, bounded-memory),
    :meth:`from_chunk_dirs` (saved ``part-NNNNN.npz`` directories), or
    :meth:`from_bundles` (stream an in-memory bundle chunk by chunk — the
    equivalence-test harness).
    """

    def __init__(self, stats: dict[str, RegionAccumulator], keepalive_s: float = 60.0):
        if not stats:
            raise ValueError("need at least one region accumulator")
        self.stats = dict(stats)
        super().__init__(self.stats, keepalive_s)

    @classmethod
    def generate(
        cls,
        regions: tuple[str, ...] = ("R1", "R2", "R3", "R4", "R5"),
        seed: int = 0,
        days: int = 31,
        scale: float = 1.0,
        jobs: int = 1,
        chunk_days: int | None = None,
        channel: str = "pickle",
    ) -> "StreamingTraceStudy":
        """Generate-and-analyse in (region, day-window) shards.

        Each worker generates one window, reduces it to accumulators, and
        discards the bundle; the parent merges them per region as they
        arrive, in plan (time) order. Peak memory is one window per
        in-flight worker plus the accumulator states, whatever the horizon.
        ``channel="shm"`` returns each shard's accumulator arrays through
        shared memory instead of the pool's pickle pipe.
        """
        from repro.runtime.executor import ParallelExecutor, run_analysis_shard
        from repro.runtime.shards import ShardPlan

        plan = ShardPlan.for_generation(
            regions=tuple(dict.fromkeys(regions)), seed=seed, days=days,
            chunk_days=chunk_days, scale=scale,
        )
        executor = ParallelExecutor(jobs=jobs, channel=channel)
        return cls(_merge_by_region(executor.imap(run_analysis_shard, plan.shards)))

    @classmethod
    def from_chunk_dirs(
        cls, root: str | Path, jobs: int = 1, channel: str = "pickle"
    ) -> "StreamingTraceStudy":
        """Stream every chunk directory under ``root`` (one per region)."""
        from repro.runtime.executor import ParallelExecutor, run_chunk_directory_analysis

        directories = sorted(p for p in Path(root).iterdir() if (p / "manifest.json").is_file())
        if not directories:
            raise ValueError(f"no chunk directories (manifest.json) under {root}")
        accs = ParallelExecutor(jobs=jobs, channel=channel).run(
            run_chunk_directory_analysis, directories
        )
        return cls(_merge_by_region(accs))

    @classmethod
    def from_bundles(
        cls, bundles: dict[str, TraceBundle], chunk_s: float = 6 * 3600.0
    ) -> "StreamingTraceStudy":
        """Stream in-memory bundles chunk by chunk (equivalence harness)."""
        return cls({
            name: RegionAccumulator.from_bundle(bundle, chunk_s=chunk_s)
            for name, bundle in bundles.items()
        })

    def region(self, name: str) -> RegionAccumulator:
        return self._region_data(name)


def _merge_by_region(accs) -> dict[str, RegionAccumulator]:
    """Group accumulators by region, merging same-region ones in order.

    Two chunk directories of one region (a horizon split across generation
    runs) combine instead of shadowing each other; their sort order must be
    time order (the IAT tracker rejects out-of-order merges).
    """
    stats: dict[str, RegionAccumulator] = {}
    for acc in accs:
        if acc.region in stats:
            stats[acc.region].merge(acc)
        else:
            stats[acc.region] = acc
    return stats

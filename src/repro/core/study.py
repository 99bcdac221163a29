"""TraceStudy: one façade, one method per paper figure.

Benches, examples, and the CLI all go through this class so each
figure's reproduction has exactly one authoritative entry point.

Two implementations share the figure API:

* :class:`TraceStudy` — materialised per-region bundles, the exact
  reference path;
* :class:`StreamingTraceStudy` — the same figures computed from
  chunk-incremental :class:`~repro.analysis.accumulators.RegionAccumulator`
  state, so a trace never has to exist in memory as one piece and shards
  fan out across worker processes. Counts, sums, key sets, and series are
  exact (floating sums to addition order); value-quantised CDFs/quantiles
  (Figs. 10/13/15/16) carry the sketch's one-bin tolerance.

Both classes compute each shared figure at most once per study. A figure
method whose result has a second reader (a renderer and a finding, or
``fig05_peak_hours`` reading ``fig05_request_series``) is wrapped by
:func:`_shared`, which keeps the result per bound argument set in the
study's ``__dict__``, so the cache dies with the study. So are the few
per-region statistics that several figures read (``_day_counts``, the
median-day requests per function, and ``_minute_usage``, Figs. 3b/3c from
one binning). Only small per-function, per-user or per-figure results
are kept: row-length arrays (dense codes, bin indices, timestamp columns,
pod intervals) are built per call and dropped, so the memo does not raise
a study's memory high-water mark. The contract: callers treat a returned
figure result as read-only, and a study is immutable once built (do not
add regions or change ``keepalive_s`` afterwards).
"""

from __future__ import annotations

import functools
import inspect
from pathlib import Path

import numpy as np

from repro.analysis.accumulators import LogHistogram, RegionAccumulator
from repro.analysis.cdf import Cdf, empirical_cdf
from repro.analysis.coldstart_stats import (
    cold_start_cdf,
    cold_start_iats,
    component_cdfs_by,
    component_cdfs_from_hists,
    dominant_component,
    hourly_component_means,
    pool_size_quantiles,
    pool_split_from_hists,
    requests_vs_cold_starts,
)
from repro.analysis.composition import (
    function_metadata,
    pods_over_time_by,
    pods_over_time_from,
    proportions_by,
    proportions_from,
    trigger_mix_by_runtime,
)
from repro.analysis.holiday import HolidayEffect, holiday_effect, holiday_effect_from_series
from repro.analysis.peaks import daily_peak_minutes, function_minute_matrix, peak_trough_rows
from repro.analysis.region_stats import (
    functions_per_user_cdf,
    median_day_requests,
    per_minute_usage_cdfs,
    region_sizes,
    requests_per_user_cdf,
    share_at_least_one_from,
)
from repro.analysis.timeseries import bin_counts, moving_average, normalize_max, presence_counts
from repro.core.correlations import (
    FIELD_TO_COLUMN,
    CorrelationMatrix,
    component_correlations,
    correlations_from_series,
)
from repro.core.fits import (
    LogNormalFit,
    WeibullFit,
    fit_cold_start_iats,
    fit_cold_start_times,
    fit_lognormal_streaming,
    fit_weibull_weighted,
)
from repro.core.utility import utility_by_category, utility_by_category_from, utility_ratios_from
from repro.trace.tables import COMPONENT_COLUMNS, TraceBundle
from repro.workload.generator import generate_multi_region

_SECONDS_PER_DAY = 86_400.0


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


class TraceStudy:
    """Analysis façade over one or more per-region trace bundles."""

    def __init__(self, bundles: dict[str, TraceBundle], keepalive_s: float = 60.0):
        if not bundles:
            raise ValueError("need at least one region bundle")
        self.bundles = dict(bundles)
        self.keepalive_s = keepalive_s

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
        """Generate fresh synthetic traces and wrap them.

        ``jobs``/``chunk_days`` shard the generation across worker
        processes along (region, day-window); ``channel="shm"`` returns
        shard bundles through shared memory — see :mod:`repro.runtime`.
        """
        return cls(
            generate_multi_region(
                regions, seed=seed, days=days, scale=scale,
                jobs=jobs, chunk_days=chunk_days, channel=channel,
            )
        )

    def region(self, name: str) -> TraceBundle:
        try:
            return self.bundles[name]
        except KeyError:
            raise KeyError(f"region {name!r} not loaded; have {sorted(self.bundles)}") from None

    @property
    def regions(self) -> list[str]:
        return list(self.bundles)

    def _deep_dive_region(self, name: str | None) -> TraceBundle:
        """Default to R2 — the region the paper studies in depth."""
        if name is not None:
            return self.region(name)
        if "R2" in self.bundles:
            return self.bundles["R2"]
        return next(iter(self.bundles.values()))

    # ---- Figure 1 / Table 1 -----------------------------------------------

    def fig01_region_sizes(self) -> list[dict[str, object]]:
        """Requests, functions, pods per region (Fig. 1)."""
        return region_sizes(self.bundles)

    # ---- Figure 3 ------------------------------------------------------------

    @_shared
    def _day_counts(self, region: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted function ids, median-day requests) of one region."""
        return median_day_requests(self.region(region))

    @_shared
    def _minute_usage(self, region: str) -> tuple[Cdf, Cdf]:
        """One region's Figs. 3b and 3c CDFs from one binning."""
        return per_minute_usage_cdfs(self.region(region))

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
        return {
            name: share_at_least_one_from(self._day_counts(name)[1])
            for name in self.regions
        }

    # ---- Figure 4 --------------------------------------------------------------

    @_shared
    def fig04_functions_per_user(self) -> dict[str, Cdf]:
        return {name: functions_per_user_cdf(b) for name, b in self.bundles.items()}

    def fig04_requests_per_user(self) -> dict[str, Cdf]:
        return {name: requests_per_user_cdf(b) for name, b in self.bundles.items()}

    # ---- Figure 5 ----------------------------------------------------------------

    @_shared
    def fig05_request_series(self, smooth_minutes: int = 60) -> dict[str, dict[str, np.ndarray]]:
        """Normalised per-minute request series + daily peak minutes."""
        out = {}
        for name, bundle in self.bundles.items():
            ts = bundle.requests.timestamps_s
            horizon = float(bundle.meta.get("days", int(np.ceil(bundle.requests.span_days())))) * _SECONDS_PER_DAY
            smoothed = moving_average(bin_counts(ts, 60.0, horizon), smooth_minutes)
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
        names = [region] if region else self.regions
        for name in names:
            bundle = self.region(name)
            requests = bundle.requests
            ts = requests.timestamps_s
            horizon = float(ts.max()) + 60.0 if len(requests) else 60.0
            function_ids, per_day = self._day_counts(name)
            cold_funcs, cold_counts = np.unique(bundle.pods["function"], return_counts=True)
            cold_map = dict(zip(cold_funcs.tolist(), cold_counts.tolist()))
            minute_matrix = function_minute_matrix(
                function_ids, requests["function"], ts, horizon
            )
            rows.extend(
                peak_trough_rows(name, function_ids, per_day, minute_matrix, cold_map)
            )
        return rows

    # ---- Figure 7 ---------------------------------------------------------------------

    def fig07_holiday(self) -> dict[str, HolidayEffect]:
        return {name: holiday_effect(b) for name, b in self.bundles.items()}

    # ---- Figures 8 & 9 ---------------------------------------------------------------

    def fig08_pods_over_time(
        self, by: str = "trigger", region: str | None = None
    ) -> dict[str, np.ndarray]:
        return pods_over_time_by(self._deep_dive_region(region), by=by,
                                 keepalive_s=self.keepalive_s)

    def fig08_proportions(
        self, by: str = "trigger", region: str | None = None
    ) -> dict[str, dict[str, float]]:
        return proportions_by(self._deep_dive_region(region), by=by)

    def fig09_trigger_by_runtime(self, region: str | None = None) -> dict[str, dict[str, float]]:
        return trigger_mix_by_runtime(self._deep_dive_region(region))

    # ---- Figure 10 ---------------------------------------------------------------------

    def fig10_cold_start_cdfs(self) -> dict[str, Cdf]:
        return {name: cold_start_cdf(b.pods) for name, b in self.bundles.items()}

    def fig10_iat_cdfs(self) -> dict[str, Cdf]:
        return {name: empirical_cdf(cold_start_iats(b.pods)) for name, b in self.bundles.items()}

    def fig10_lognormal_fit(self) -> LogNormalFit:
        """LogNormal fit to all regions' cold-start durations pooled."""
        pooled = np.concatenate([b.pods.cold_start_s for b in self.bundles.values()])
        return fit_cold_start_times(pooled)

    def fig10_weibull_fit(self) -> WeibullFit:
        """Weibull fit to all regions' cold-start inter-arrival times pooled."""
        pooled = np.concatenate(
            [cold_start_iats(b.pods) for b in self.bundles.values()]
        )
        return fit_cold_start_iats(pooled)

    # ---- Figure 11 --------------------------------------------------------------------

    def fig11_hourly_components(self, region: str) -> dict[str, np.ndarray]:
        bundle = self.region(region)
        horizon = float(bundle.meta.get("days", 31)) * _SECONDS_PER_DAY
        return hourly_component_means(bundle.pods, horizon)

    def fig11_dominant_component(self) -> dict[str, str]:
        return {name: dominant_component(b.pods) for name, b in self.bundles.items()}

    def fig11_component_stats(self) -> dict[str, dict[str, tuple[float, float]]]:
        """(mean, median) seconds of each component, per region with pods."""
        return {
            name: {c: (float(v.mean()), float(np.median(v)))
                   for c in COMPONENT_COLUMNS for v in [b.pods.component_s(c)]}
            for name, b in self.bundles.items() if len(b.pods)
        }

    # ---- Figure 12 --------------------------------------------------------------------

    @_shared
    def fig12_correlations(self, region: str) -> CorrelationMatrix:
        return component_correlations(self.region(region).pods)

    # ---- Figure 13 --------------------------------------------------------------------

    @_shared
    def fig13_pool_split(self, region: str | None = None) -> dict:
        if region is not None:
            return pool_size_quantiles(self.region(region))
        return {name: pool_size_quantiles(b) for name, b in self.bundles.items()}

    # ---- Figures 14-16 ----------------------------------------------------------------

    @_shared
    def fig14_requests_vs_cold_starts(self, region: str | None = None) -> list[dict[str, object]]:
        return requests_vs_cold_starts(self._deep_dive_region(region))

    @_shared
    def fig15_by_runtime(self, region: str | None = None) -> dict[str, dict[str, Cdf]]:
        return component_cdfs_by(self._deep_dive_region(region), by="runtime")

    def fig16_by_trigger(self, region: str | None = None) -> dict[str, dict[str, Cdf]]:
        return component_cdfs_by(self._deep_dive_region(region), by="trigger")

    # ---- Figure 17 --------------------------------------------------------------------

    @_shared
    def fig17_utility(self, by: str = "runtime", region: str | None = None) -> dict:
        return utility_by_category(self._deep_dive_region(region), by=by)


class StreamingTraceStudy:
    """The figure API of :class:`TraceStudy`, computed without bundles.

    Holds one merged :class:`~repro.analysis.accumulators.RegionAccumulator`
    per region; every ``figNN`` method finalizes accumulator state through
    the same analysis helpers the materialised path uses. Construct via
    :meth:`generate` (sharded, parallel, bounded-memory),
    :meth:`from_chunk_dirs` (saved ``part-NNNNN.npz`` directories), or
    :meth:`from_bundles` (stream an in-memory bundle chunk by chunk —
    the equivalence-test harness).
    """

    def __init__(self, stats: dict[str, RegionAccumulator], keepalive_s: float = 60.0):
        if not stats:
            raise ValueError("need at least one region accumulator")
        self.stats = dict(stats)
        self.keepalive_s = keepalive_s

    # -- construction --------------------------------------------------------

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
        discards the bundle; the parent folds each accumulator into its
        region's running merge as it arrives, in plan (time) order. Peak
        memory is one window per in-flight worker plus the accumulator
        states — independent of the horizon length. ``channel="shm"``
        additionally returns each shard's accumulator arrays through shared
        memory instead of the pool's pickle pipe.
        """
        from repro.runtime.executor import ParallelExecutor, run_analysis_shard
        from repro.runtime.shards import ShardPlan

        regions = tuple(dict.fromkeys(regions))
        plan = ShardPlan.for_generation(
            regions=regions, seed=seed, days=days, chunk_days=chunk_days,
            scale=scale,
        )
        executor = ParallelExecutor(jobs=jobs, channel=channel)
        merged: dict[str, RegionAccumulator] = {}
        for spec, acc in zip(
            plan.shards, executor.imap(run_analysis_shard, plan.shards)
        ):
            if spec.region in merged:
                merged[spec.region].merge(acc)
            else:
                merged[spec.region] = acc
        return cls(merged)

    @classmethod
    def from_chunk_dirs(
        cls, root: str | Path, jobs: int = 1, channel: str = "pickle"
    ) -> "StreamingTraceStudy":
        """Stream every chunk directory under ``root`` (one per region)."""
        from repro.runtime.executor import ParallelExecutor, run_chunk_directory_analysis

        root = Path(root)
        directories = sorted(
            p for p in root.iterdir() if (p / "manifest.json").is_file()
        )
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

    # -- region plumbing -----------------------------------------------------

    def region(self, name: str) -> RegionAccumulator:
        try:
            return self.stats[name]
        except KeyError:
            raise KeyError(
                f"region {name!r} not loaded; have {sorted(self.stats)}"
            ) from None

    @property
    def regions(self) -> list[str]:
        return list(self.stats)

    def _deep_dive_region(self, name: str | None) -> RegionAccumulator:
        """Default to R2 — the region the paper studies in depth."""
        if name is not None:
            return self.region(name)
        if "R2" in self.stats:
            return self.stats["R2"]
        return next(iter(self.stats.values()))

    # ---- Figure 1 / Table 1 -----------------------------------------------

    def fig01_region_sizes(self) -> list[dict[str, object]]:
        """Requests, functions, pods per region (Fig. 1). Exact."""
        rows = []
        for name, acc in self.stats.items():
            summary = acc.summary()
            rows.append(
                {
                    "region": name,
                    "requests": summary["requests"],
                    "functions": summary["functions"],
                    "pods": summary["pods"],
                    "cold_starts": summary["cold_starts"],
                    "users": summary["users"],
                }
            )
        return rows

    # ---- Figure 3 ----------------------------------------------------------

    @_shared
    def _day_counts(self, region: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted function ids, median-day requests) of one region."""
        return self.region(region).requests_per_day_per_function()

    @_shared
    def fig03_requests_per_day(self) -> dict[str, Cdf]:
        return {name: empirical_cdf(self._day_counts(name)[1]) for name in self.regions}

    @_shared
    def fig03_exec_time(self) -> dict[str, Cdf]:
        return {
            name: _nan_free_cdf(acc.minute_exec.means_until())
            for name, acc in self.stats.items()
        }

    @_shared
    def fig03_cpu_usage(self) -> dict[str, Cdf]:
        return {
            name: _nan_free_cdf(acc.minute_cpu.means_until())
            for name, acc in self.stats.items()
        }

    def fig03_share_at_least_1_per_minute(self) -> dict[str, float]:
        return {
            name: share_at_least_one_from(self._day_counts(name)[1])
            for name in self.regions
        }

    # ---- Figure 4 ----------------------------------------------------------

    @_shared
    def fig04_functions_per_user(self) -> dict[str, Cdf]:
        return {
            name: empirical_cdf(
                acc.user_functions.counts_per_first().astype(np.float64)
            )
            for name, acc in self.stats.items()
        }

    def fig04_requests_per_user(self) -> dict[str, Cdf]:
        return {
            name: empirical_cdf(acc.per_user.counts.astype(np.float64))
            for name, acc in self.stats.items()
        }

    # ---- Figure 5 ----------------------------------------------------------

    @_shared
    def fig05_request_series(self, smooth_minutes: int = 60) -> dict[str, dict[str, np.ndarray]]:
        """Normalised per-minute request series + daily peak minutes. Exact."""
        out = {}
        for name, acc in self.stats.items():
            days = float(acc.meta.get("days", int(np.ceil(acc.span_days()))))
            horizon = days * _SECONDS_PER_DAY
            smoothed = moving_average(acc.minute_requests.counts_until(horizon), smooth_minutes)
            out[name] = {
                "normalised": normalize_max(smoothed),
                "daily_peak_minute": daily_peak_minutes(smoothed, smooth_window=1),
            }
        return out

    def fig05_peak_hours(self) -> dict[str, float]:
        series = self.fig05_request_series()
        return {
            name: float(np.median(data["daily_peak_minute"])) / 60.0
            for name, data in series.items()
        }

    # ---- Figure 6 ----------------------------------------------------------

    @_shared
    def fig06_peak_trough(self, region: str | None = None) -> list[dict[str, object]]:
        """Per-function peak/trough rows from the keyed minute matrix. Exact."""
        rows: list[dict[str, object]] = []
        names = [region] if region else self.regions
        for name in names:
            acc = self.region(name)
            horizon = acc.req_max_ts_s + 60.0 if acc.n_requests else 60.0
            n_bins = max(int(np.ceil(horizon / 60.0)), 1)
            function_ids, per_day = self._day_counts(name)
            minute_matrix = acc.per_function_minute.counts_matrix(n_bins)
            rows.extend(
                peak_trough_rows(
                    name, function_ids, per_day, minute_matrix,
                    acc.per_function_cold.as_dict(),
                )
            )
        return rows

    # ---- Figure 7 ----------------------------------------------------------

    def fig07_holiday(self) -> dict[str, HolidayEffect]:
        out = {}
        for name, acc in self.stats.items():
            intervals = acc.intervals.finalize()
            horizon = acc.req_max_ts_s + self.keepalive_s
            daily_pods = presence_counts(
                intervals.start_s,
                intervals.last_end_s + self.keepalive_s,
                _SECONDS_PER_DAY,
                horizon,
            )
            daily_cpu = acc.day_cpu.means_until(horizon)
            out[name] = holiday_effect_from_series(daily_pods, daily_cpu)
        return out

    # ---- Figures 8 & 9 -----------------------------------------------------

    def fig08_pods_over_time(
        self, by: str = "trigger", region: str | None = None
    ) -> dict[str, np.ndarray]:
        acc = self._deep_dive_region(region)
        return pods_over_time_from(
            acc.intervals.finalize(), acc.functions, by=by,
            keepalive_s=self.keepalive_s,
        )

    def fig08_proportions(
        self, by: str = "trigger", region: str | None = None
    ) -> dict[str, dict[str, float]]:
        acc = self._deep_dive_region(region)
        return proportions_from(
            acc.intervals.finalize(),
            acc.per_function_cold.keys,
            acc.per_function_cold.counts,
            acc.functions,
            by=by,
        )

    def fig09_trigger_by_runtime(self, region: str | None = None) -> dict[str, dict[str, float]]:
        return trigger_mix_by_runtime(self._deep_dive_region(region).functions)

    # ---- Figure 10 ---------------------------------------------------------

    def fig10_cold_start_cdfs(self) -> dict[str, Cdf]:
        """Cold-start CDFs from the fixed-bin sketch (one-bin tolerance)."""
        return {
            name: _hist_cdf(acc, "cold_start_s")
            for name, acc in self.stats.items()
        }

    def fig10_iat_cdfs(self) -> dict[str, Cdf]:
        return {name: acc.iat.hist.cdf() for name, acc in self.stats.items()}

    def fig10_lognormal_fit(self) -> LogNormalFit:
        """Closed-form MLE from pooled log-moments (KS from the sketch)."""
        n = sum(acc.cold_log_moments.n for acc in self.stats.values())
        sum_log = sum(acc.cold_log_moments.total for acc in self.stats.values())
        sumsq = sum(acc.cold_log_moments.total_sq for acc in self.stats.values())
        pooled = LogHistogram()
        for acc in self.stats.values():
            hist = acc.category_hists.get(("all", "all", "cold_start_s"))
            if hist is not None:
                pooled.merge(hist)
        return fit_lognormal_streaming(
            n, sum_log, sumsq, sample_cdf=pooled.cdf(include_zeros=False)
        )

    def fig10_weibull_fit(self) -> WeibullFit:
        """Weighted MLE over the pooled IAT sketch (bin-width tolerance)."""
        pooled = LogHistogram()
        for acc in self.stats.values():
            pooled.merge(acc.iat.hist)
        values, weights = pooled.positive_bin_values()
        return fit_weibull_weighted(
            values, weights, sample_cdf=pooled.cdf(include_zeros=False)
        )

    # ---- Figure 11 ---------------------------------------------------------

    def fig11_hourly_components(self, region: str) -> dict[str, np.ndarray]:
        acc = self.region(region)
        horizon = float(acc.meta.get("days", 31)) * _SECONDS_PER_DAY
        out: dict[str, np.ndarray] = {
            "count": acc.hour_pod["cold_start_s"].counts_until(horizon),
            "cold_start_s": acc.hour_pod["cold_start_s"].means_until(horizon),
        }
        for column in acc.hour_pod:
            if column != "cold_start_s":
                out[column] = acc.hour_pod[column].means_until(horizon)
        return out

    def fig11_dominant_component(self) -> dict[str, str]:
        out = {}
        for name, acc in self.stats.items():
            if not acc.n_cold_starts:
                out[name] = "none"
                continue
            means = {
                column: acc.component_sums[column].mean
                for column in acc.component_sums
                if column != "cold_start_s"
            }
            out[name] = max(means, key=means.get)
        return out

    def fig11_component_stats(self) -> dict[str, dict[str, tuple[float, float]]]:
        """(mean, median) seconds of each component, per region with pods;
        medians to one sketch bin (dependency deployment's sketch skips
        zeros, so they are counted back in)."""
        out: dict[str, dict[str, tuple[float, float]]] = {}
        for name, acc in self.stats.items():
            for column in COMPONENT_COLUMNS if acc.n_cold_starts else ():
                moments = acc.component_sums[column]
                pooled = LogHistogram().merge(acc.category_hists[("all", "all", column)])
                pooled.n_zero += moments.n - pooled.n
                out.setdefault(name, {})[column] = (moments.mean, pooled.quantile(0.5))
        return out

    # ---- Figure 12 ---------------------------------------------------------

    @_shared
    def fig12_correlations(self, region: str) -> CorrelationMatrix:
        acc = self.region(region)
        counts_series = acc.minute_pod["cold_start_s"]
        horizon = (
            acc.pod_ts_max + 60.0 if acc.n_cold_starts else 60.0
        )
        counts = counts_series.counts_until(horizon)
        active = counts > 0
        series = {
            "cold_start_time": counts_series.means_until(horizon)[active],
            "num_cold_starts": counts[active],
        }
        for field, column in FIELD_TO_COLUMN.items():
            series[field] = acc.minute_pod[column].means_until(horizon)[active]
        return correlations_from_series(series)

    # ---- Figure 13 ---------------------------------------------------------

    @_shared
    def fig13_pool_split(self, region: str | None = None) -> dict:
        if region is not None:
            return pool_split_from_hists(self.region(region).category_hists)
        return {
            name: pool_split_from_hists(acc.category_hists)
            for name, acc in self.stats.items()
        }

    # ---- Figures 14-16 -----------------------------------------------------

    @_shared
    def fig14_requests_vs_cold_starts(self, region: str | None = None) -> list[dict[str, object]]:
        acc = self._deep_dive_region(region)
        function_ids = acc.per_function_day.keys
        req_counts = acc.per_function_day.matrix.sum(axis=1)
        cold_map = acc.per_function_cold.as_dict()
        meta = function_metadata(acc.functions, function_ids)
        rows = []
        for i, function_id in enumerate(function_ids.tolist()):
            rows.append(
                {
                    "function": function_id,
                    "requests": int(req_counts[i]),
                    "cold_starts": int(cold_map.get(function_id, 0)),
                    "trigger": str(meta.trigger_label[i]),
                }
            )
        return rows

    @_shared
    def fig15_by_runtime(self, region: str | None = None) -> dict[str, dict[str, Cdf]]:
        return component_cdfs_from_hists(
            self._deep_dive_region(region).category_hists, by="runtime"
        )

    def fig16_by_trigger(self, region: str | None = None) -> dict[str, dict[str, Cdf]]:
        return component_cdfs_from_hists(
            self._deep_dive_region(region).category_hists, by="trigger"
        )

    # ---- Figure 17 ---------------------------------------------------------

    @_shared
    def fig17_utility(self, by: str = "runtime", region: str | None = None) -> dict:
        """Pod utility ratios (exact: the per-pod join is held in state)."""
        acc = self._deep_dive_region(region)
        pod_ids, cold_s = acc.pod_cold_lookup()
        function_ids, ratios = utility_ratios_from(
            acc.intervals.finalize(), pod_ids, cold_s
        )
        return utility_by_category_from(function_ids, ratios, acc.functions, by=by)


def _merge_by_region(accs) -> dict[str, RegionAccumulator]:
    """Group accumulators by region, merging same-region ones in list order.

    Two chunk directories carrying the same region (e.g. a horizon split
    across generation runs) combine instead of silently shadowing each
    other; directory sort order must match time order (the IAT tracker
    rejects out-of-order merges with a clear error).
    """
    stats: dict[str, RegionAccumulator] = {}
    for acc in accs:
        if acc.region in stats:
            stats[acc.region].merge(acc)
        else:
            stats[acc.region] = acc
    return stats


def _nan_free_cdf(values: np.ndarray) -> Cdf:
    return empirical_cdf(values[~np.isnan(values)])


def _hist_cdf(acc: RegionAccumulator, metric: str) -> Cdf:
    hist = acc.category_hists.get(("all", "all", metric))
    if hist is None:
        return Cdf(np.zeros(0), np.zeros(0))
    return hist.cdf()

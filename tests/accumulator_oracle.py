"""Frozen streaming-accumulator internals: the differential oracle.

These are the region accumulator's parts as they were before shard state
became window-relative and category sketches were binned once per metric:

* :func:`function_metadata` / :func:`categories_for` join every row's
  strings and ``np.unique`` the row-length category arrays;
* :class:`OracleLogHistogram` bins each ``add`` by its own
  ``searchsorted`` over freshly computed edges;
* :class:`OracleBinnedSeries` and :class:`OracleKeyedBinnedCounts` store
  bins from t = 0 in doubling buffers (the keyed one scatters with
  ``np.add.at``);
* :class:`OracleRegionAccumulator` loops (kind, metric, category) with a
  boolean mask per sketch and re-sorts the Fig. 17 pod join with a stable
  ``argsort`` of the concatenation.

They are kept verbatim so the current code can be checked byte for byte
against them (:func:`assert_identical`). Do not optimise them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.accumulators import LogHistogram, RegionAccumulator
from repro.analysis.composition import FunctionMetadata, aggregate_combo_label
from repro.trace.tables import FunctionTable, PodTable, RequestTable, TraceBundle
from repro.workload.catalog import SizeClass, parse_config


def function_metadata(
    functions: FunctionTable | TraceBundle, function_ids: np.ndarray
) -> FunctionMetadata:
    """Join ``function_ids`` against a function-level stream.

    Accepts the :class:`FunctionTable` directly (all the join needs — the
    streaming path has no bundle) or a whole :class:`TraceBundle` for
    convenience.
    """
    if isinstance(functions, TraceBundle):
        functions = functions.functions
    meta = functions.metadata_for(np.asarray(function_ids))
    combos = meta["trigger"]
    unique_combos, inverse = np.unique(combos, return_inverse=True)
    labels = np.array([aggregate_combo_label(c) for c in unique_combos], dtype="U12")
    unique_configs, config_inverse = np.unique(meta["cpu_mem"], return_inverse=True)
    sizes = np.array(
        [
            parse_config(c).size_class.value if c != "unknown" else SizeClass.SMALL.value
            for c in unique_configs
        ],
        dtype="U8",
    )
    return FunctionMetadata(
        runtime=meta["runtime"],
        trigger=combos,
        trigger_label=labels[inverse],
        cpu_mem=meta["cpu_mem"],
        size_class=sizes[config_inverse],
    )


def categories_for(
    functions: FunctionTable | TraceBundle, function_ids: np.ndarray, by: str
) -> np.ndarray:
    """Per-row category labels for an id column, for any grouping kind."""
    meta = function_metadata(functions, function_ids)
    if by == "trigger":
        return meta.trigger_label
    if by == "runtime":
        return meta.runtime
    if by == "config":
        grouped = np.where(
            np.isin(meta.cpu_mem, ("300-128", "400-256", "600-512", "1000-1024")),
            meta.cpu_mem,
            "other",
        )
        return grouped
    if by == "size":
        return meta.size_class
    raise ValueError(f"unknown grouping {by!r}; use trigger/runtime/config/size")


class OracleLogHistogram(LogHistogram):
    """:class:`LogHistogram` with its own per-``add`` binning."""

    def _edges_for(self, bins: int) -> np.ndarray:
        offsets = np.arange(bins + 1) - self._lo_bins
        return np.power(10.0, self._log_lo + offsets * self._step)

    def add(self, values: np.ndarray) -> "LogHistogram":
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if not values.size:
            return self
        self.sum += float(values.sum())
        self.vmin = min(self.vmin, float(values.min()))
        self.vmax = max(self.vmax, float(values.max()))
        self.n_zero += int((values == 0.0).sum())
        positive = values[values > 0.0]
        if positive.size:
            finite_max = float(positive[np.isfinite(positive)].max(initial=0.0))
            if finite_max >= self.hi:
                self._widen_to_cover(finite_max)
            positive_min = float(positive.min())
            if positive_min < self.lo:
                self._widen_down_to_cover(positive_min)
        self.n_under += int((positive < self.lo).sum())
        self.n_over += int((positive >= self.hi).sum())
        inside = positive[(positive >= self.lo) & (positive < self.hi)]
        if inside.size:
            idx = np.clip(
                np.searchsorted(self.edges, inside, side="right") - 1,
                0, self.bins - 1,
            )
            self.counts += np.bincount(idx, minlength=self.bins).astype(np.int64)
        return self


class OracleBinnedSeries:
    """Per-bin event counts and (optionally) value sums on a fixed grid.

    The streaming counterpart of :func:`repro.analysis.timeseries.bin_counts`
    / ``bin_sums`` / ``bin_means``: storage grows with covered time, and the
    ``*_until`` finalizers reproduce those functions' horizon and clipping
    semantics exactly (including the fold of beyond-horizon events into the
    last bin).
    """

    def __init__(self, bin_s: float, track_sums: bool = True):
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        self.bin_s = float(bin_s)
        self.track_sums = track_sums
        self.counts = np.zeros(0, dtype=np.float64)
        self.sums = np.zeros(0, dtype=np.float64) if track_sums else None
        self.max_time = -math.inf
        self.min_time = math.inf

    def _grow(self, n_bins: int) -> None:
        if n_bins <= self.counts.size:
            return
        new = max(n_bins, 2 * self.counts.size)
        self.counts = np.concatenate(
            [self.counts, np.zeros(new - self.counts.size)]
        )
        if self.sums is not None:
            self.sums = np.concatenate([self.sums, np.zeros(new - self.sums.size)])

    def add(self, times_s: np.ndarray, values: np.ndarray | None = None) -> "OracleBinnedSeries":
        times_s = np.asarray(times_s, dtype=np.float64)
        if not times_s.size:
            return self
        self.max_time = max(self.max_time, float(times_s.max()))
        self.min_time = min(self.min_time, float(times_s.min()))
        idx = np.maximum((times_s // self.bin_s).astype(np.int64), 0)
        self._grow(int(idx.max()) + 1)
        self.counts += np.bincount(idx, minlength=self.counts.size)
        if self.sums is not None:
            if values is None:
                raise ValueError("this series tracks sums; pass values")
            values = np.asarray(values, dtype=np.float64)
            self.sums += np.bincount(
                idx, weights=values, minlength=self.sums.size
            )
        return self

    def add_one(self, time_s: float, value: float | None = None) -> "OracleBinnedSeries":
        """Scalar fast path: one event, no numpy temporaries."""
        self.max_time = max(self.max_time, time_s)
        self.min_time = min(self.min_time, time_s)
        idx = max(int(time_s // self.bin_s), 0)
        self._grow(idx + 1)
        self.counts[idx] += 1.0
        if self.sums is not None:
            if value is None:
                raise ValueError("this series tracks sums; pass a value")
            self.sums[idx] += value
        return self

    def merge(self, other: "OracleBinnedSeries") -> "OracleBinnedSeries":
        if self.bin_s != other.bin_s or self.track_sums != other.track_sums:
            raise ValueError("cannot merge series with different grids")
        self._grow(other.counts.size)
        self.counts[: other.counts.size] += other.counts
        if self.sums is not None:
            self.sums[: other.sums.size] += other.sums
        self.max_time = max(self.max_time, other.max_time)
        self.min_time = min(self.min_time, other.min_time)
        return self

    def n_bins_for(self, horizon_s: float | None) -> int:
        """Replicate ``bin_counts``' horizon inference and bin count."""
        if horizon_s is None:
            horizon_s = (
                self.max_time + self.bin_s
                if math.isfinite(self.max_time)
                else self.bin_s
            )
        return max(int(np.ceil(horizon_s / self.bin_s)), 1)

    def _finalize(self, dense: np.ndarray, n_bins: int) -> np.ndarray:
        out = np.zeros(n_bins, dtype=np.float64)
        take = min(n_bins, dense.size)
        out[:take] = dense[:take]
        if dense.size > n_bins:  # clip semantics: fold the tail into the last bin
            out[n_bins - 1] += dense[n_bins:].sum()
        return out

    def counts_until(self, horizon_s: float | None = None) -> np.ndarray:
        """Equals ``bin_counts(times, bin_s, horizon_s)`` over the stream."""
        return self._finalize(self.counts, self.n_bins_for(horizon_s))

    def sums_until(self, horizon_s: float | None = None) -> np.ndarray:
        if self.sums is None:
            raise ValueError("series was built without sums")
        return self._finalize(self.sums, self.n_bins_for(horizon_s))

    def means_until(self, horizon_s: float | None = None) -> np.ndarray:
        """Equals ``bin_means``: per-bin mean, NaN where the bin is empty."""
        counts = self.counts_until(horizon_s)
        sums = self.sums_until(horizon_s)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


    def __eq__(self, other) -> bool:
        """Content equality, insensitive to buffer growth history."""
        if not isinstance(other, OracleBinnedSeries):
            return NotImplemented
        if (self.bin_s, self.track_sums) != (other.bin_s, other.track_sums):
            return False
        if (self.max_time, self.min_time) != (other.max_time, other.min_time):
            return False
        n = max(self.counts.size, other.counts.size)

        def padded(a: np.ndarray) -> np.ndarray:
            return np.concatenate([a, np.zeros(n - a.size)])

        if not np.array_equal(padded(self.counts), padded(other.counts)):
            return False
        if self.sums is None:
            return True
        return np.array_equal(padded(self.sums), padded(other.sums))


class OracleKeyedBinnedCounts:
    """Per-key event counts on a fixed time grid (function x day/minute).

    Backs the per-function median-day statistic (Fig. 3a) and the
    per-function minute series of the peak-to-trough analysis (Fig. 6).
    State is a dense ``keys x bins`` int64 matrix — bounded by the function
    population times the horizon, never by request rows.
    """

    def __init__(self, bin_s: float):
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        self.bin_s = float(bin_s)
        self.keys = np.zeros(0, dtype=np.int64)
        self.matrix = np.zeros((0, 0), dtype=np.int64)

    def _ensure(self, keys: np.ndarray, n_bins: int) -> np.ndarray:
        """Grow rows/columns; return positions of ``keys`` in ``self.keys``."""
        new = np.setdiff1d(keys, self.keys, assume_unique=False)
        if new.size:
            all_keys = np.union1d(self.keys, new)
            matrix = np.zeros((all_keys.size, self.matrix.shape[1]), dtype=np.int64)
            if self.keys.size:
                matrix[np.searchsorted(all_keys, self.keys)] = self.matrix
            self.keys, self.matrix = all_keys, matrix
        if n_bins > self.matrix.shape[1]:
            grown = max(n_bins, 2 * self.matrix.shape[1])
            self.matrix = np.concatenate(
                [self.matrix,
                 np.zeros((self.matrix.shape[0], grown - self.matrix.shape[1]),
                          dtype=np.int64)],
                axis=1,
            )
        return np.searchsorted(self.keys, keys)

    def add(self, keys: np.ndarray, times_s: np.ndarray) -> "OracleKeyedBinnedCounts":
        keys = np.asarray(keys, dtype=np.int64)
        times_s = np.asarray(times_s, dtype=np.float64)
        if not keys.size:
            return self
        bins = np.maximum((times_s // self.bin_s).astype(np.int64), 0)
        n_bins = int(bins.max()) + 1
        uniques = np.unique(keys)
        self._ensure(uniques, n_bins)
        rows = np.searchsorted(self.keys, keys)
        # in-place scatter-add: work and temporaries stay proportional to
        # the chunk, not to the full keys x bins matrix
        np.add.at(self.matrix, (rows, bins), 1)
        return self

    def merge(self, other: "OracleKeyedBinnedCounts") -> "OracleKeyedBinnedCounts":
        if self.bin_s != other.bin_s:
            raise ValueError("cannot merge keyed series with different grids")
        if not other.keys.size:
            return self
        self._ensure(other.keys, other.matrix.shape[1])
        rows = np.searchsorted(self.keys, other.keys)
        self.matrix[rows, : other.matrix.shape[1]] += other.matrix
        return self

    def counts_matrix(self, n_bins: int) -> np.ndarray:
        """Keys-aligned dense matrix with the tail folded into bin ``n_bins-1``.

        Reproduces the materialised ``clip(idx, 0, n_bins - 1)`` binning.
        """
        n_bins = max(n_bins, 1)
        out = np.zeros((self.keys.size, n_bins), dtype=np.int64)
        take = min(n_bins, self.matrix.shape[1])
        out[:, :take] = self.matrix[:, :take]
        if self.matrix.shape[1] > n_bins:
            out[:, n_bins - 1] += self.matrix[:, n_bins:].sum(axis=1)
        return out


class OracleRegionAccumulator(RegionAccumulator):
    """:class:`RegionAccumulator` on the frozen parts above: row-string
    category lookups, one masked ``add`` per (kind, category, metric), and
    a stable re-sort of the concatenated pod join."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name in ("minute_requests", "minute_exec", "minute_cpu", "day_cpu"):
            series = getattr(self, name)
            if series is not None:
                setattr(self, name, OracleBinnedSeries(series.bin_s, series.track_sums))
        for name in ("per_function_day", "per_function_minute"):
            keyed = getattr(self, name)
            if keyed is not None:
                setattr(self, name, OracleKeyedBinnedCounts(keyed.bin_s))
        for name in ("minute_pod", "hour_pod"):
            per_metric = getattr(self, name)
            if per_metric is not None:
                setattr(self, name, {
                    metric: OracleBinnedSeries(series.bin_s) for metric, series in per_metric.items()
                })
        if self.iat is not None:
            self.iat.hist = OracleLogHistogram()

    def _categories(self, kind: str, function_ids: np.ndarray) -> np.ndarray:
        return categories_for(self.functions, function_ids, kind)

    def _hist(self, kind: str, category: str, metric: str) -> LogHistogram:
        key = (kind, category, metric)
        hist = self.category_hists.get(key)
        if hist is None:
            hist = self.category_hists[key] = OracleLogHistogram()
        return hist

    def _join_pods(self, ids, cold_s, functions) -> None:
        self._pod_ids = np.concatenate([self._pod_ids, ids])
        self._pod_cold_s = np.concatenate([self._pod_cold_s, cold_s])
        self._pod_functions = np.concatenate([self._pod_functions, functions])
        sorter = np.argsort(self._pod_ids, kind="stable")
        self._pod_ids = self._pod_ids[sorter]
        self._pod_cold_s = self._pod_cold_s[sorter]
        self._pod_functions = self._pod_functions[sorter]

    def _update_requests(self, requests: RequestTable) -> None:
        ts = requests.timestamps_s
        ts_ms = requests["timestamp_ms"]
        self.n_requests += len(requests)
        lo, hi = int(ts_ms.min()), int(ts_ms.max())
        self.req_ts_ms_min = lo if self.req_ts_ms_min is None else min(self.req_ts_ms_min, lo)
        self.req_ts_ms_max = hi if self.req_ts_ms_max is None else max(self.req_ts_ms_max, hi)
        functions = requests["function"]
        users = requests["user"]
        self.per_user.add(users)
        if self.user_functions is not None:
            self.user_functions.add(users, functions)
        if self.per_function_day is not None:
            self.per_function_day.add(functions, ts)
        if self.per_function_minute is not None:
            self.per_function_minute.add(functions, ts)
        if self.minute_requests is not None:
            self.minute_requests.add(ts)
        if self.minute_exec is not None:
            self.minute_exec.add(ts, requests.exec_time_s)
        if self.minute_cpu is not None or self.day_cpu is not None:
            cores = requests["cpu_millicores"] / 1000.0
            if self.minute_cpu is not None:
                self.minute_cpu.add(ts, cores)
            if self.day_cpu is not None:
                self.day_cpu.add(ts, cores)
        if self.intervals is not None:
            self.intervals.add(requests)

    def _update_pods(self, pods: PodTable) -> None:
        from repro.analysis.coldstart_stats import pod_metric_values

        ts = pods.timestamps_s
        self.n_cold_starts += len(pods)
        self.pod_ts_max = max(self.pod_ts_max, float(ts.max()))
        functions = pods["function"]
        self.per_function_cold.add(functions)
        metrics = pod_metric_values(pods)
        for name, values in metrics.items():
            if self.minute_pod is not None:
                self.minute_pod[name].add(ts, values)
            if self.hour_pod is not None:
                self.hour_pod[name].add(ts, values)
            if self.component_sums is not None:
                self.component_sums[name].add(values)
        cold_s = metrics["cold_start_s"]
        if self.cold_log_moments is not None:
            positive = cold_s[cold_s > 0]
            if positive.size:
                self.cold_log_moments.add(np.log(positive))
        if self.iat is not None:
            self.iat.add(ts)
        # per-pod state for the Fig. 17 utility join
        order = np.argsort(pods["pod_id"])
        ids = pods["pod_id"][order]
        self._pod_ids = np.concatenate([self._pod_ids, ids])
        self._pod_cold_s = np.concatenate([self._pod_cold_s, cold_s[order]])
        self._pod_functions = np.concatenate([self._pod_functions, functions[order]])
        if not np.all(np.diff(self._pod_ids) > 0):
            sorter = np.argsort(self._pod_ids, kind="stable")
            self._pod_ids = self._pod_ids[sorter]
            self._pod_cold_s = self._pod_cold_s[sorter]
            self._pod_functions = self._pod_functions[sorter]
        # category sketches
        if self.category_hists is not None:
            self._sketch_categories(functions, metrics)

    def _sketch_categories(self, functions: np.ndarray, metrics: dict) -> None:
        """The per-(kind, category, metric) masked ``add`` loop."""
        for kind in ("runtime", "trigger", "size"):
            categories = self._categories(kind, functions)
            for name, values in metrics.items():
                sample = values
                if name == "deploy_dep_us":
                    sample = values[values > 0]
                    cats = categories[values > 0]
                else:
                    cats = categories
                for category in np.unique(cats):
                    self._hist(kind, str(category), name).add(sample[cats == category])
        for name, values in metrics.items():
            sample = values[values > 0] if name == "deploy_dep_us" else values
            self._hist("all", "all", name).add(sample)



# --- byte-level comparison ----------------------------------------------------


def hist_view(hist: LogHistogram) -> dict:
    """Every field a :class:`LogHistogram` reads back."""
    return {name: getattr(hist, name) for name in (
        "lo", "hi", "bins", "_lo_bins", "_log_lo", "_step", "edges", "counts",
        "n_zero", "n_under", "n_over", "sum", "vmin", "vmax",
    )}


def series_view(series) -> dict:
    """A binned series as its finalizers read it: at the inferred horizon,
    past the last event, and below it (a tail fold over real events)."""
    out = {"max_time": series.max_time, "min_time": series.min_time}
    horizons = [None]
    if math.isfinite(series.max_time):
        horizons += [series.max_time + 10 * series.bin_s, series.max_time / 2]
    for horizon in horizons:
        out[f"counts@{horizon}"] = series.counts_until(horizon)
        if series.track_sums:
            out[f"sums@{horizon}"] = series.sums_until(horizon)
    return out


def keyed_view(keyed, last_s: float) -> dict:
    """Keys and dense matrices at, past and below ``last_s``'s bin."""
    n = int(last_s // keyed.bin_s) + 1
    out = {"keys": keyed.keys}
    for n_bins in sorted({1, max(n // 2, 1), n, n + 3}):
        out[f"matrix@{n_bins}"] = keyed.counts_matrix(n_bins)
    return out


def region_view(acc: RegionAccumulator) -> dict:
    """Everything a :class:`RegionAccumulator` holds, finalised where its
    layout is free (window-relative binned state)."""
    last_s = (acc.req_ts_ms_max or 0) / 1e3

    def opt(part, fn):
        return None if part is None else fn(part)

    def moments(m):
        return (m.n, m.total, m.total_sq, m.vmin, m.vmax)

    return {
        "region": acc.region, "meta": acc.meta,
        "functions": {c: acc.functions[c] for c in acc.functions.columns},
        "n_requests": acc.n_requests, "req_ts_ms_min": acc.req_ts_ms_min,
        "req_ts_ms_max": acc.req_ts_ms_max, "n_cold_starts": acc.n_cold_starts,
        "pod_ts_max": acc.pod_ts_max,
        "per_user": (acc.per_user.keys, acc.per_user.counts),
        "per_function_cold": (acc.per_function_cold.keys, acc.per_function_cold.counts),
        "user_functions": opt(acc.user_functions, lambda p: p.pairs),
        "per_function_day": opt(acc.per_function_day, lambda k: keyed_view(k, last_s)),
        "per_function_minute": opt(acc.per_function_minute, lambda k: keyed_view(k, last_s)),
        **{name: opt(getattr(acc, name), series_view)
           for name in ("minute_requests", "minute_exec", "minute_cpu", "day_cpu")},
        "intervals": opt(acc.intervals, lambda i: vars(i.finalize())),
        **{name: opt(getattr(acc, name), lambda d: {m: series_view(s) for m, s in d.items()})
           for name in ("minute_pod", "hour_pod")},
        "component_sums": opt(acc.component_sums, lambda d: {m: moments(s) for m, s in d.items()}),
        "cold_log_moments": opt(acc.cold_log_moments, moments),
        "iat": opt(acc.iat, lambda g: (g.first_ts, g.last_ts, hist_view(g.hist))),
        "category_hists": opt(acc.category_hists, lambda d: {k: hist_view(h) for k, h in d.items()}),
        "pod_join": (acc._pod_ids, acc._pod_cold_s, acc._pod_functions),
    }


def assert_identical(got, want, path: str = "") -> None:
    """``got == want`` down to the bytes: dict key order, array dtype,
    shape and ``tobytes()``, float bit patterns."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (
            f"{path}: keys {list(got)[:8]} != {list(want)[:8]}")
        for key in want:
            assert_identical(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_identical(a, b, f"{path}[{i}]")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), path
        assert (got.dtype, got.shape) == (want.dtype, want.shape), (
            f"{path}: {got.dtype}{got.shape} != {want.dtype}{want.shape}")
        assert got.tobytes() == want.tobytes(), f"{path}: values differ"
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
            f"{path}: {got!r} != {want!r}")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"

"""Composition breakdowns: pods / cold starts / functions by trigger type,
runtime, and resource configuration (paper Figs. 8 and 9).

Also hosts the two fundamental joins every grouped analysis needs:

* :func:`function_metadata` — map pod/request rows to runtime, aggregated
  trigger label, config name, and pool size class via the function table;
* :func:`pod_intervals` — per-pod activity intervals reconstructed from the
  request stream (pod lifetime = first cold start to last request end plus
  keep-alive), which is exactly how the paper's authors must derive pod
  lifetimes, since the pod-level stream only logs cold-start events.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.analysis.region_stats import dense_codes
from repro.analysis.timeseries import presence_counts
from repro.trace.tables import FunctionTable, TraceBundle
from repro.workload.catalog import SizeClass, parse_config

#: Labels kept distinct by the paper's aggregation.
_DISTINCT = {"TIMER-A", "OBS-A", "APIG-S", "workflow-S", "unknown"}
_PRIORITY = ("APIG-S", "workflow-S", "other S", "OBS-A", "other A", "TIMER-A", "unknown")


def aggregate_combo_label(combo: str) -> str:
    """Aggregate a stored trigger combo (e.g. ``"CTS-A"``, ``"APIG-S+TIMER-A"``)
    into the paper's seven analysis categories, picking the primary binding."""
    best_rank = len(_PRIORITY)
    best = "unknown"
    for part in combo.split("+"):
        if part in _DISTINCT:
            label = part
        elif part.endswith("-S"):
            label = "other S"
        elif part.endswith("-A"):
            label = "other A"
        else:
            label = "unknown"
        rank = _PRIORITY.index(label)
        if rank < best_rank:
            best_rank = rank
            best = label
    return best


@dataclass
class FunctionMetadata:
    """Row-aligned metadata arrays for an ID column joined on functions."""

    runtime: np.ndarray
    trigger: np.ndarray
    trigger_label: np.ndarray
    cpu_mem: np.ndarray
    size_class: np.ndarray

    def take(self, rows: np.ndarray) -> "FunctionMetadata":
        return FunctionMetadata(*(getattr(self, f.name)[rows] for f in fields(self)))


def _labels_at(values: np.ndarray, used: np.ndarray, label, dtype: str) -> np.ndarray:
    """``label`` of every ``used`` slot, called once per distinct value."""
    out = np.zeros(values.size, dtype=dtype)
    distinct, inverse = np.unique(values[used], return_inverse=True)
    out[used] = np.array([label(v) for v in distinct], dtype=dtype)[inverse]
    return out


def function_labels(functions: FunctionTable, rows: np.ndarray) -> FunctionMetadata:
    """Labels of every table row plus a trailing "unknown" slot. Only slots
    in ``rows`` get a trigger label and a size class, so a malformed config
    name no lookup touches is never parsed."""
    runtime, trigger, cpu_mem = map(functions.label_slots, ("runtime", "trigger", "cpu_mem"))
    used = np.zeros(len(functions) + 1, dtype=bool)
    used[rows] = True
    return FunctionMetadata(
        runtime=runtime,
        trigger=trigger,
        trigger_label=_labels_at(trigger, used, aggregate_combo_label, "U12"),
        cpu_mem=cpu_mem,
        size_class=_labels_at(
            cpu_mem, used,
            lambda c: parse_config(c).size_class.value if c != "unknown" else SizeClass.SMALL.value,
            "U8",
        ),
    )


def function_metadata(
    functions: FunctionTable | TraceBundle, function_ids: np.ndarray
) -> FunctionMetadata:
    """Join ``function_ids`` against a function-level stream.

    Accepts the :class:`FunctionTable` directly (all the join needs — the
    streaming path has no bundle) or a whole :class:`TraceBundle` for
    convenience. Each function is labelled once; rows gather the labels.
    """
    if isinstance(functions, TraceBundle):
        functions = functions.functions
    rows = functions.rows_for(function_ids)
    return function_labels(functions, rows).take(rows)


@dataclass
class PodIntervals:
    """Activity intervals of every pod observed in the request stream."""

    pod_id: np.ndarray
    function: np.ndarray
    start_s: np.ndarray
    last_end_s: np.ndarray
    n_requests: np.ndarray

    def lifetime_s(self, keepalive_s: float = 60.0) -> np.ndarray:
        """Total pod lifetime including the terminal keep-alive wait."""
        return self.last_end_s - self.start_s + keepalive_s

    def useful_s(self) -> np.ndarray:
        """Useful lifetime (total minus keep-alive tail, §4.5)."""
        return self.last_end_s - self.start_s


def pod_intervals(bundle: TraceBundle) -> PodIntervals:
    """Reconstruct per-pod activity intervals from the request stream."""
    requests = bundle.requests
    pod_ids = requests["pod_id"]
    ts = requests.timestamps_s
    ends = ts + requests.exec_time_s
    uniques, inverse = dense_codes(pod_ids)
    start = np.full(uniques.size, np.inf)
    last_end = np.full(uniques.size, -np.inf)
    counts = np.bincount(inverse, minlength=uniques.size)
    np.minimum.at(start, inverse, ts)
    np.maximum.at(last_end, inverse, ends)

    function = np.zeros(uniques.size, dtype=np.int64)
    function[inverse] = requests["function"]
    return PodIntervals(
        pod_id=uniques,
        function=function,
        start_s=start,
        last_end_s=last_end,
        n_requests=counts.astype(np.int64),
    )


def category_codes(
    functions: FunctionTable | TraceBundle, function_ids: np.ndarray, by: str
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted category names, each id's index into them) for any grouping
    kind: ``np.unique(categories, return_inverse=True)`` computed on the
    function labels, never on a row-length string array."""
    if isinstance(functions, TraceBundle):
        functions = functions.functions
    rows = functions.rows_for(function_ids)
    meta = function_labels(functions, rows)
    grouped = np.isin(meta.cpu_mem, ("300-128", "400-256", "600-512", "1000-1024"))
    slots = {
        "trigger": meta.trigger_label, "runtime": meta.runtime, "size": meta.size_class,
        "config": np.where(grouped, meta.cpu_mem, "other"),
    }.get(by)
    if slots is None:
        raise ValueError(f"unknown grouping {by!r}; use trigger/runtime/config/size")
    used = np.zeros(slots.size, dtype=bool)
    used[rows] = True
    names, inverse = np.unique(slots[used], return_inverse=True)
    codes = np.zeros(slots.size, dtype=np.intp)
    codes[used] = inverse
    return names, codes[rows]


def pods_over_time_from(
    intervals: "PodIntervals",
    functions: FunctionTable,
    by: str = "trigger",
    bin_s: float = 3600.0,
    keepalive_s: float = 60.0,
) -> dict[str, np.ndarray]:
    """Running pods per bin by category, from finalized pod intervals.

    The shared core of Fig. 8a-c: the materialised path reconstructs the
    intervals from a bundle, the streaming path accumulates them chunk by
    chunk — both finish here.
    """
    horizon = float(intervals.last_end_s.max()) + keepalive_s if intervals.pod_id.size else bin_s
    names, codes = category_codes(functions, intervals.function, by)
    out: dict[str, np.ndarray] = {}
    for code, category in enumerate(names):
        mask = codes == code
        out[str(category)] = presence_counts(
            intervals.start_s[mask],
            intervals.last_end_s[mask] + keepalive_s,
            bin_s,
            horizon,
        )
    return out


def proportions_from(
    intervals: "PodIntervals",
    cold_function_ids: np.ndarray,
    cold_counts: np.ndarray,
    functions: FunctionTable,
    by: str = "trigger",
) -> dict[str, dict[str, float]]:
    """Category shares of pod-time / cold starts / functions (Fig. 8d-f core).

    The paper computes the pod share from the mean number of active pods per
    minute — equivalent to each category's share of total pod-seconds — and
    the cold-start share from the number of newly started pods.
    ``cold_function_ids``/``cold_counts`` give cold starts per function —
    the pod-level stream reduced to its function margin, which is all the
    share computation needs.
    """
    n_pods, n_cold_ids = intervals.function.size, cold_function_ids.size
    names, codes = category_codes(
        functions,
        np.concatenate([intervals.function, cold_function_ids, functions["function"]]),
        by,
    )
    pod_codes, cold_codes, func_codes = np.split(codes, [n_pods, n_pods + n_cold_ids])
    pod_seconds = np.maximum(intervals.useful_s(), 0.0) + 60.0

    out: dict[str, dict[str, float]] = {}
    total_pod_seconds = float(pod_seconds.sum()) or 1.0
    n_cold = max(int(cold_counts.sum()), 1)
    n_funcs = max(len(functions), 1)
    for code, category in enumerate(names):
        out[str(category)] = {
            "pods": float(pod_seconds[pod_codes == code].sum()) / total_pod_seconds,
            "cold_starts": float(cold_counts[cold_codes == code].sum()) / n_cold,
            "functions": float((func_codes == code).sum()) / n_funcs,
        }
    return out


def trigger_mix_by_runtime(
    functions: FunctionTable | TraceBundle,
) -> dict[str, dict[str, float]]:
    """Share of each trigger category within each runtime (Fig. 9).

    Needs only the function-level stream; accepts a bundle for convenience.
    """
    if isinstance(functions, TraceBundle):
        functions = functions.functions
    meta = function_metadata(functions, functions["function"])
    out: dict[str, dict[str, float]] = {}
    for runtime in np.unique(meta.runtime):
        mask = meta.runtime == runtime
        labels, counts = np.unique(meta.trigger_label[mask], return_counts=True)
        total = counts.sum()
        out[str(runtime)] = {
            str(label): float(count) / total for label, count in zip(labels, counts)
        }
    return out

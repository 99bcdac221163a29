"""Cold-start statistics: Figures 10, 11, 13, 14, 15, 16."""

from __future__ import annotations

import itertools

import numpy as np

from repro.analysis.cdf import Cdf, empirical_cdf, quantiles
from repro.analysis.composition import function_metadata
from repro.analysis.timeseries import bin_counts_and_means
from repro.trace.tables import COMPONENT_COLUMNS, PodTable, TraceBundle

#: Human-readable component names in the paper's stacking order.
COMPONENT_NAMES = {
    "pod_alloc_us": "pod alloc. time",
    "deploy_code_us": "deploy code time",
    "deploy_dep_us": "deploy dep. time",
    "scheduling_us": "scheduling time",
}


def pod_metric_values(pods: PodTable) -> dict[str, np.ndarray]:
    """Total + component durations in seconds, keyed like the figures.

    The shared metric extraction for Figs. 10/11/13/15/16 — both the
    materialised analyses below and the chunk-incremental sketches in
    :mod:`repro.analysis.accumulators` iterate exactly these columns.
    """
    metrics = {"cold_start_s": pods.cold_start_s}
    for column in COMPONENT_COLUMNS:
        metrics[column] = pods.component_s(column)
    return metrics


def cold_start_cdf(pods: PodTable) -> Cdf:
    """CDF of total cold-start durations (Fig. 10a)."""
    return empirical_cdf(pods.cold_start_s)


def cold_start_iats(pods: PodTable) -> np.ndarray:
    """Inter-arrival times between consecutive cold starts (Fig. 10c).

    Computed region-wide over time-sorted cold-start events; zero gaps
    (events in the same millisecond) are kept, matching event-level data.
    """
    if len(pods) < 2:
        return np.zeros(0)
    ts = np.sort(pods.timestamps_s)
    return np.diff(ts)


def hourly_component_means(
    pods: PodTable, horizon_s: float | None = None, bin_s: float = 3600.0
) -> dict[str, np.ndarray]:
    """Per-hour (or per-``bin_s``) mean component/total times plus
    cold-start counts (Fig. 11; Fig. 12 bins by minute)."""
    ts = pods.timestamps_s
    columns = itertools.chain(
        [pods.cold_start_s], (pods.component_s(c) for c in COMPONENT_COLUMNS)
    )
    counts, means = bin_counts_and_means(ts, columns, bin_s, horizon_s)
    return {"count": counts, **dict(zip(("cold_start_s",) + COMPONENT_COLUMNS, means))}


def pool_size_quantiles(
    bundle: TraceBundle, qs=(0.25, 0.5, 0.75)
) -> dict[str, dict[str, dict[float, float]]]:
    """Component quantiles split by small/large pool (Fig. 13).

    Returns ``{metric: {"small": {q: v}, "large": {q: v}}}``; dependency
    deployment excludes zero entries (functions without layers), exactly as
    the figure caption specifies.
    """
    meta = function_metadata(bundle, bundle.pods["function"])
    out: dict[str, dict[str, dict[float, float]]] = {}
    metrics = pod_metric_values(bundle.pods)
    for name, values in metrics.items():
        per_size = {}
        for size in ("small", "large"):
            mask = meta.size_class == size
            sample = values[mask]
            if name == "deploy_dep_us":
                sample = sample[sample > 0]
            per_size[size] = quantiles(sample, qs)
        out[name] = per_size
    return out


def component_cdfs_by(
    bundle: TraceBundle, by: str = "runtime"
) -> dict[str, dict[str, Cdf]]:
    """Total + component CDFs per runtime or trigger category (Figs. 15/16).

    Returns ``{category: {metric: Cdf}}`` with an ``"all"`` category holding
    the combined distribution, like the yellow 'all' curve in the paper.
    Dependency CDFs exclude zeros (functions without layers).
    """
    if by not in ("runtime", "trigger"):
        raise ValueError("by must be 'runtime' or 'trigger'")
    meta = function_metadata(bundle, bundle.pods["function"])
    categories = meta.runtime if by == "runtime" else meta.trigger_label

    metrics = pod_metric_values(bundle.pods)

    def build(mask: np.ndarray) -> dict[str, Cdf]:
        out = {}
        for name, values in metrics.items():
            sample = values[mask]
            if name == "deploy_dep_us":
                sample = sample[sample > 0]
            out[name] = empirical_cdf(sample)
        return out

    result = {"all": build(np.ones(len(bundle.pods), dtype=bool))}
    for category in np.unique(categories):
        result[str(category)] = build(categories == category)
    return result


def pool_split_from_hists(
    hists: dict, qs=(0.25, 0.5, 0.75)
) -> dict[str, dict[str, dict[float, float]]]:
    """Fig. 13 from size-class :class:`LogHistogram` sketches.

    ``hists`` maps ``("size", size_class, metric)`` keys (the layout of
    :attr:`RegionAccumulator.category_hists`) to histograms. Quantiles carry
    the sketch's one-bin value tolerance; the dependency-deployment
    zero-exclusion is already applied at update time.
    """
    out: dict[str, dict[str, dict[float, float]]] = {}
    for name in ("cold_start_s",) + COMPONENT_COLUMNS:
        per_size = {}
        for size in ("small", "large"):
            hist = hists.get(("size", size, name))
            if hist is None:
                per_size[size] = {float(q): float("nan") for q in qs}
            else:
                per_size[size] = hist.quantiles(qs)
        out[name] = per_size
    return out


def component_cdfs_from_hists(hists: dict, by: str = "runtime") -> dict[str, dict[str, Cdf]]:
    """Figs. 15/16 from category :class:`LogHistogram` sketches.

    Mirrors :func:`component_cdfs_by` including the ``"all"`` series;
    values quantise to one histogram bin.
    """
    if by not in ("runtime", "trigger"):
        raise ValueError("by must be 'runtime' or 'trigger'")

    def build(kind: str, category: str) -> dict[str, Cdf]:
        out = {}
        for name in ("cold_start_s",) + COMPONENT_COLUMNS:
            hist = hists.get((kind, category, name))
            # a missing sketch means no (non-zero) samples: empty CDF, like
            # the materialised path's empirical_cdf of an empty sample
            out[name] = hist.cdf() if hist is not None else empirical_cdf(np.zeros(0))
        return out

    result: dict[str, dict[str, Cdf]] = {
        str(category): build(by, category)
        for category in sorted({cat for kind, cat, _m in hists if kind == by})
    }
    result["all"] = build("all", "all")
    return result


def mean_scheduling_dominates(bundle: TraceBundle) -> bool:
    """Paper §4.4: scheduling overhead is on average the largest component
    (across default runtimes)."""
    meta = function_metadata(bundle, bundle.pods["function"])
    default = ~np.isin(meta.runtime, ("Custom", "http"))
    if not default.any():
        return False
    sched = float(bundle.pods.component_s("scheduling_us")[default].mean())
    others = [
        float(bundle.pods.component_s(col)[default].mean())
        for col in COMPONENT_COLUMNS
        if col != "scheduling_us"
    ]
    return sched >= max(others)

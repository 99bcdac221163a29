"""Pod utility ratio — the paper's new metric (§4.5, Fig. 17).

``utility ratio = useful lifetime / cold-start time``, where useful lifetime
is the pod's total lifetime minus the terminal keep-alive wait. A ratio of
one or less means the pod served for no longer than its own cold start took.
The paper reports: ~20 % of pods below 1, median ≈ 4, Node.js worst
(~40 % below 1), Go 1.x best (~35 % above 100), timers the worst trigger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.cdf import Cdf, empirical_cdf
from repro.analysis.composition import function_metadata


@dataclass
class UtilitySummary:
    """Headline utility-ratio statistics for one pod population."""

    n_pods: int
    median: float
    share_below_1: float
    share_below_10: float
    share_above_100: float

    def as_row(self, name: str = "") -> dict[str, object]:
        return {
            "series": name,
            "pods": self.n_pods,
            "median": round(self.median, 3),
            "<1": round(self.share_below_1, 3),
            "<10": round(self.share_below_10, 3),
            ">100": round(self.share_above_100, 3),
        }


def utility_ratios_from(
    intervals, sorted_pod_ids: np.ndarray, cold_s_sorted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Join request-derived intervals to per-pod cold-start durations.

    ``sorted_pod_ids``/``cold_s_sorted`` are the pod-level stream reduced
    to (id, duration) pairs sorted by id — what both the materialised and
    streaming paths hold. Returns ``(pod_function_ids, ratios)``.
    """
    pos = np.searchsorted(sorted_pod_ids, intervals.pod_id)
    pos = np.clip(pos, 0, max(sorted_pod_ids.size - 1, 0))
    matched = (
        sorted_pod_ids[pos] == intervals.pod_id
        if sorted_pod_ids.size
        else np.zeros(intervals.pod_id.size, dtype=bool)
    )
    cold_s = cold_s_sorted[pos] if sorted_pod_ids.size else np.zeros(
        intervals.pod_id.size
    )
    useful_s = intervals.useful_s()
    valid = matched & (cold_s > 0)
    ratios = useful_s[valid] / cold_s[valid]
    return intervals.function[valid], ratios


def utility_summary(ratios: np.ndarray) -> UtilitySummary:
    """Summarise a ratio population with the paper's headline statistics."""
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.size == 0:
        return UtilitySummary(0, float("nan"), float("nan"), float("nan"), float("nan"))
    return UtilitySummary(
        n_pods=int(ratios.size),
        median=float(np.median(ratios)),
        share_below_1=float((ratios < 1.0).mean()),
        share_below_10=float((ratios < 10.0).mean()),
        share_above_100=float((ratios > 100.0).mean()),
    )


def utility_by_category_from(
    function_ids: np.ndarray, ratios: np.ndarray, functions, by: str = "runtime"
) -> dict[str, tuple[Cdf, UtilitySummary]]:
    """Fig. 17 grouping over precomputed (function id, ratio) pairs."""
    if by not in ("runtime", "trigger"):
        raise ValueError("by must be 'runtime' or 'trigger'")
    meta = function_metadata(functions, function_ids)
    categories = meta.runtime if by == "runtime" else meta.trigger_label
    out: dict[str, tuple[Cdf, UtilitySummary]] = {
        "all": (empirical_cdf(ratios), utility_summary(ratios))
    }
    for category in np.unique(categories):
        sample = ratios[categories == category]
        out[str(category)] = (empirical_cdf(sample), utility_summary(sample))
    return out


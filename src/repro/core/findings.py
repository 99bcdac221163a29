"""Automated findings extraction: the paper's boxed takeaways, computed.

The paper distils its measurements into boxed claims ("Cross-region
scheduling potential", "Complex origin of cold starts", ...). This module
re-derives each claim from a :class:`~repro.core.study.Study` so a
report can state, for any generated or loaded dataset, which of the
paper's conclusions hold and with what numbers.

Each extractor returns a :class:`Finding` with the claim, the supporting
measurements, and whether the dataset supports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.study import Study

#: Registry of finding extractors, keyed by finding id.
EXTRACTORS: dict[str, object] = {}


@dataclass
class Finding:
    """One derived conclusion.

    Attributes:
        finding_id: stable id, e.g. ``"cross_region_potential"``.
        claim: the paper's claim in one sentence.
        supported: whether this dataset supports the claim.
        evidence: measurement name -> value backing the verdict.
    """

    finding_id: str
    claim: str
    supported: bool
    evidence: dict[str, float] = field(default_factory=dict)

    def summary_row(self) -> dict[str, object]:
        return {
            "finding": self.finding_id,
            "supported": "yes" if self.supported else "NO",
            "evidence": ", ".join(f"{k}={v:.3g}" for k, v in self.evidence.items()),
        }


def _register(finding_id: str):
    def wrap(func):
        EXTRACTORS[finding_id] = func
        return func

    return wrap


def extract_findings(study: Study) -> list[Finding]:
    """Run every extractor applicable to the study's regions."""
    findings = []
    for finding_id in sorted(EXTRACTORS):
        extractor = EXTRACTORS[finding_id]
        finding = extractor(study)
        if finding is not None:
            findings.append(finding)
    return findings


@_register("cross_region_potential")
def cross_region_potential(study: Study) -> Finding | None:
    """§3.1 box: medians of invocations / exec time / CPU vary by large factors."""
    if len(study.regions) < 2:
        return None
    exec_medians = {n: c.median for n, c in study.fig03_exec_time().items() if c.n}
    cpu_medians = {n: c.median for n, c in study.fig03_cpu_usage().items() if c.n}
    req_medians = {n: c.median for n, c in study.fig03_requests_per_day().items() if c.n}
    if not exec_medians or not cpu_medians or not req_medians:
        return None

    def spread(medians: dict[str, float]) -> float:
        values = [v for v in medians.values() if v > 0]
        return max(values) / min(values) if values else 1.0

    evidence = {
        "exec_median_spread": spread(exec_medians),
        "cpu_median_spread": spread(cpu_medians),
        "requests_median_spread": spread(req_medians),
    }
    supported = evidence["exec_median_spread"] > 3.0
    return Finding(
        "cross_region_potential",
        "Regional profiles differ enough (exec/CPU/invocation medians) for "
        "cross-region load balancing to pay off.",
        supported,
        evidence,
    )


@_register("complex_cold_start_origin")
def complex_cold_start_origin(study: Study) -> Finding | None:
    """§3.2 box: cold starts come from bursty functions AND slow timers."""
    rows = study.fig06_peak_trough()
    if not rows:
        return None
    ptt = np.array([row["peak_to_trough"] for row in rows], dtype=float)
    colds = np.array([row["cold_starts"] for row in rows], dtype=float)
    flat = ptt < 1.5
    bursty = ptt > 10.0
    total = colds.sum() or 1.0
    evidence = {
        "cold_share_flat_functions": float(colds[flat].sum() / total),
        "cold_share_bursty_functions": float(colds[bursty].sum() / total),
        "max_peak_to_trough": float(ptt.max()),
    }
    supported = (
        evidence["cold_share_flat_functions"] > 0.05
        and evidence["cold_share_bursty_functions"] > 0.05
    )
    return Finding(
        "complex_cold_start_origin",
        "High cold-start counts come both from large invocation fluctuations "
        "and from many low-rate functions outside the keep-alive.",
        supported,
        evidence,
    )


@_register("timer_keepalive_mismatch")
def timer_keepalive_mismatch(study: Study) -> Finding | None:
    """§4.3 box: timers beyond the keep-alive cold start every firing."""
    rows = study.fig14_requests_vs_cold_starts()
    if not rows:
        return None
    requests = np.array([row["requests"] for row in rows], dtype=float)
    colds = np.array([row["cold_starts"] for row in rows], dtype=float)
    triggers = np.array([str(row["trigger"]) for row in rows])
    on_diagonal = colds >= 0.8 * requests
    if not on_diagonal.any():
        return None
    timer_share = float((triggers[on_diagonal] == "TIMER-A").mean())
    evidence = {
        "diagonal_share": float(on_diagonal.mean()),
        "timer_share_of_diagonal": timer_share,
    }
    return Finding(
        "timer_keepalive_mismatch",
        "Functions cold-started on every invocation are dominated by timers "
        "whose period exceeds the pod keep-alive.",
        timer_share > 0.4,
        evidence,
    )


@_register("custom_runtime_penalty")
def custom_runtime_penalty(study: Study) -> Finding | None:
    """§4.4: Custom images pay from-scratch allocation, medians above 10 s."""
    cdfs = study.fig15_by_runtime()
    custom = cdfs.get("Custom", {}).get("cold_start_s")
    overall = cdfs.get("all", {}).get("cold_start_s")
    if custom is None or overall is None or custom.n == 0:
        return None
    evidence = {
        "custom_median_s": custom.median,
        "overall_median_s": overall.median,
        "ratio": custom.median / max(overall.median, 1e-9),
    }
    return Finding(
        "custom_runtime_penalty",
        "Custom runtimes (no reserved pool) have cold starts an order of "
        "magnitude above the platform median.",
        evidence["ratio"] > 5.0,
        evidence,
    )


@_register("utility_inversion")
def utility_inversion(study: Study) -> Finding | None:
    """§4.5 box: long-cold-start classes can have *better* utility ratios."""
    by_runtime = study.fig17_utility(by="runtime")
    slow_classes = [name for name in ("Custom", "http") if name in by_runtime]
    if not slow_classes or "all" not in by_runtime:
        return None
    overall_summary = by_runtime["all"][1]
    evidence: dict[str, float] = {"overall_median_utility": overall_summary.median}
    inverted = False
    for name in slow_classes:
        summary = by_runtime[name][1]
        evidence[f"{name}_median_utility"] = summary.median
        if summary.median > 1.0:
            inverted = True
    return Finding(
        "utility_inversion",
        "Some classes with the longest cold starts keep their pods useful "
        "far longer than the cold start cost (utility ratio above 1).",
        inverted,
        evidence,
    )


@_register("component_count_correlation")
def component_count_correlation(study: Study) -> Finding | None:
    """§4.2 box: cold-start duration correlates with the cold-start count."""
    correlations = {}
    for name in study.regions:
        matrix = study.fig12_correlations(name)
        try:
            correlations[name] = matrix.get("cold_start_time", "num_cold_starts")
        except ValueError:
            return None
    if not correlations:
        return None
    positive = sum(1 for rho in correlations.values() if rho > 0)
    evidence = {f"rho_{name}": rho for name, rho in correlations.items()}
    return Finding(
        "component_count_correlation",
        "Mean cold-start time correlates positively with the number of "
        "concurrent cold starts in most regions.",
        positive >= max(len(correlations) - 1, 1),
        evidence,
    )


@_register("pool_size_penalty")
def pool_size_penalty(study: Study) -> Finding | None:
    """§4.2: larger resource pools have longer cold starts (Fig. 13)."""
    split = study.fig13_pool_split()
    ratios = {}
    for region, metrics in split.items():
        sizes = metrics.get("cold_start_s")
        if not sizes:
            continue
        small, large = sizes["small"].get(0.5), sizes["large"].get(0.5)
        if small and large:
            ratios[region] = large / small
    if not ratios:
        return None
    evidence = {f"large_small_ratio_{region}": r for region, r in ratios.items()}
    supported = all(r >= 0.95 for r in ratios.values()) and any(
        r > 1.5 for r in ratios.values()
    )
    return Finding(
        "pool_size_penalty",
        "Functions with larger resource allocations see longer cold starts "
        "(roughly 1x-5x the small-pool median).",
        supported,
        evidence,
    )

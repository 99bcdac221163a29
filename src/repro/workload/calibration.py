"""Calibration targets: the paper's reported shapes as machine checks.

Each paper figure's "the shape holds" claim is encoded here as one
:class:`CalibrationTarget` record (its ``description`` states the claim;
:data:`TARGETS` is the full list). :func:`check_calibration` runs them
against a generated :class:`~repro.core.study.Study` (materialised or
streamed), producing the pass/fail table ``repro calibrate`` prints.

The targets are *shape* constraints (orderings, ratios, bands), not
absolute-number matches: the substrate is a scaled simulator, not the
authors' five data centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.study import Study


@dataclass
class CalibrationResult:
    """Outcome of checking one target."""

    target_id: str
    figure: str
    description: str
    passed: bool
    measured: dict[str, float] = field(default_factory=dict)

    def summary_row(self) -> dict[str, object]:
        return {
            "target": self.target_id,
            "figure": self.figure,
            "passed": "yes" if self.passed else "NO",
            "measured": ", ".join(f"{k}={v:.3g}" for k, v in self.measured.items()),
            "description": self.description,
        }


@dataclass(frozen=True)
class CalibrationTarget:
    """One paper shape target.

    Attributes:
        target_id: stable id, e.g. ``"fig10.lognormal_band"``.
        figure: paper artefact this calibrates, e.g. ``"Fig. 10b"``.
        description: the paper claim being checked.
        check: callable producing (passed, measured-values).
    """

    target_id: str
    figure: str
    description: str
    check: Callable[[Study], tuple[bool, dict[str, float]]]

    def run(self, study: Study) -> CalibrationResult:
        passed, measured = self.check(study)
        return CalibrationResult(
            self.target_id, self.figure, self.description, passed, measured
        )


def _regions_needed(study: Study, names: tuple[str, ...]) -> bool:
    return all(name in study.regions for name in names)


# --- individual checks --------------------------------------------------------


def _check_region_spans(study: Study) -> tuple[bool, dict[str, float]]:
    rows = study.fig01_region_sizes()
    requests = [float(row["requests"]) for row in rows]
    spread = max(requests) / max(min(requests), 1.0)
    fn_leader = max(rows, key=lambda r: r["functions"])["region"]
    req_leader = max(rows, key=lambda r: r["requests"])["region"]
    return spread > 5.0 and fn_leader != req_leader, {"request_spread": spread}


def _check_share_per_minute(study: Study) -> tuple[bool, dict[str, float]]:
    shares = study.fig03_share_at_least_1_per_minute()
    measured = {f"share_{name}": value for name, value in shares.items()}
    ok = True
    if "R1" in shares:
        ok &= shares["R1"] == max(shares.values()) and shares["R1"] > 0.08
    if "R4" in shares:
        ok &= shares["R4"] < 0.06
    return ok, measured


def _check_exec_ordering(study: Study) -> tuple[bool, dict[str, float]]:
    medians = {n: c.median for n, c in study.fig03_exec_time().items() if c.n}
    measured = {f"exec_p50_{name}": value for name, value in medians.items()}
    if not _regions_needed(study, ("R1", "R5")):
        return True, measured
    ok = (
        medians["R1"] == max(medians.values())
        and medians["R5"] == min(medians.values())
        and medians["R1"] / medians["R5"] > 5.0
    )
    return ok, measured


def _check_single_function_users(study: Study) -> tuple[bool, dict[str, float]]:
    cdfs = study.fig04_functions_per_user()
    shares = {name: cdf.at(1.0) for name, cdf in cdfs.items() if cdf.n}
    measured = {f"single_fn_share_{name}": value for name, value in shares.items()}
    ok = all(0.5 <= share <= 0.97 for share in shares.values())
    return ok, measured


def _check_peak_lag(study: Study) -> tuple[bool, dict[str, float]]:
    hours = study.fig05_peak_hours()
    measured = {f"peak_hour_{name}": value for name, value in hours.items()}
    if len(hours) < 2:
        return True, measured
    values = sorted(hours.values())
    return values[-1] - values[0] > 4.0, measured


def _check_peak_trough_span(study: Study) -> tuple[bool, dict[str, float]]:
    rows = study.fig06_peak_trough()
    ptt = np.array([row["peak_to_trough"] for row in rows], dtype=float)
    measured = {"max_ptt": float(ptt.max()), "share_flat": float((ptt < 1.5).mean())}
    return ptt.max() > 100.0 and measured["share_flat"] > 0.1, measured


def _check_holiday_patterns(study: Study) -> tuple[bool, dict[str, float]]:
    effects = study.fig07_holiday()
    measured: dict[str, float] = {}
    ok = True
    for name, effect in effects.items():
        if effect.days.size == 0:
            continue
        dip = effect.holiday_mean() / max(effect.pre_holiday_mean(), 1e-9)
        measured[f"holiday_over_pre_{name}"] = dip
        if name == "R3":
            ok &= dip > 1.0  # the paper's atypical surge region
        elif name in ("R1", "R2", "R4", "R5"):
            ok &= dip < 1.0
    return ok, measured


def _check_composition(study: Study) -> tuple[bool, dict[str, float]]:
    if "R2" not in study.regions:
        return True, {}
    trigger = study.fig08_proportions(by="trigger", region="R2")
    runtime = study.fig08_proportions(by="runtime", region="R2")
    timer = trigger.get("TIMER-A", {})
    python3 = runtime.get("Python3", {})
    measured = {
        "timer_fn_share": timer.get("functions", 0.0),
        "timer_pod_share": timer.get("pods", 0.0),
        "python3_cold_share": python3.get("cold_starts", 0.0),
    }
    ok = (
        measured["timer_fn_share"] > 0.45
        and measured["timer_pod_share"] < 0.5 * measured["timer_fn_share"]
        and measured["python3_cold_share"] > 0.25
    )
    return ok, measured


def _check_lognormal_band(study: Study) -> tuple[bool, dict[str, float]]:
    fit = study.fig10_lognormal_fit()
    measured = {"mean_s": fit.mean, "std_s": fit.std, "ks": fit.ks_statistic}
    ok = 1.5 <= fit.mean <= 6.0 and fit.std > fit.mean and fit.ks_statistic < 0.12
    return ok, measured


def _check_weibull_heavy_tail(study: Study) -> tuple[bool, dict[str, float]]:
    fit = study.fig10_weibull_fit()
    measured = {"k": fit.k, "lambda": fit.lam}
    return fit.k < 1.0, measured


def _check_dominant_components(study: Study) -> tuple[bool, dict[str, float]]:
    dominant = study.fig11_dominant_component()
    expectations = {
        "R1": ("deploy_dep_us",),
        "R2": ("pod_alloc_us",),
        "R3": ("scheduling_us", "pod_alloc_us"),
        "R4": ("pod_alloc_us",),
        "R5": ("deploy_dep_us", "scheduling_us"),
    }
    ok = True
    for name, allowed in expectations.items():
        if name in dominant:
            ok &= dominant[name] in allowed
    # the verdict ranks means; medians show when a mean rests on a tail
    measured = {
        f"{name}_{column.removesuffix('_us')}_{stat}_s": value
        for name, stats in study.fig11_component_stats().items()
        for column, pair in stats.items()
        for stat, value in zip(("mean", "median"), pair)
    }
    return ok, measured


def _check_custom_penalty(study: Study) -> tuple[bool, dict[str, float]]:
    if "R2" not in study.regions:
        return True, {}
    cdfs = study.fig15_by_runtime("R2")
    measured = {}
    ok = True
    for slow in ("Custom", "http"):
        metrics = cdfs.get(slow)
        if metrics is None or metrics["cold_start_s"].n == 0:
            continue
        median = metrics["cold_start_s"].median
        measured[f"{slow}_median_s"] = median
        ok &= median > 8.0
    return ok, measured


def _check_obs_slowest(study: Study) -> tuple[bool, dict[str, float]]:
    if "R2" not in study.regions:
        return True, {}
    cdfs = study.fig16_by_trigger("R2")
    medians = {
        name: metrics["cold_start_s"].median
        for name, metrics in cdfs.items()
        if name != "all" and metrics["cold_start_s"].n
    }
    if "OBS-A" not in medians:
        return False, {}
    others = [v for k, v in medians.items() if k != "OBS-A"]
    measured = {"obs_median_s": medians["OBS-A"], "next_median_s": max(others)}
    return medians["OBS-A"] > 2.5 * max(others), measured


def _check_utility_shape(study: Study) -> tuple[bool, dict[str, float]]:
    if "R2" not in study.regions:
        return True, {}
    overall = study.fig17_utility(by="runtime", region="R2")["all"][1]
    measured = {
        "median_utility": overall.median,
        "share_below_1": overall.share_below_1,
    }
    ok = 1.0 <= overall.median <= 10.0 and 0.1 <= overall.share_below_1 <= 0.5
    return ok, measured


#: All calibration targets, one per paper figure whose shape is checked.
TARGETS: tuple[CalibrationTarget, ...] = (
    CalibrationTarget(
        "fig01.region_spans", "Fig. 1",
        "Region sizes span >5x; function leader is not the request leader.",
        _check_region_spans,
    ),
    CalibrationTarget(
        "fig03.share_per_minute", "Fig. 3a",
        "R1 leads the >=1 req/min share (~20 % in the paper); R4 sits near 1 %.",
        _check_share_per_minute,
    ),
    CalibrationTarget(
        "fig03.exec_ordering", "Fig. 3b",
        "Median execution: R1 slowest, R5 fastest, ratio above 5x.",
        _check_exec_ordering,
    ),
    CalibrationTarget(
        "fig04.single_function_users", "Fig. 4a",
        "60-90 % of users own a single function.",
        _check_single_function_users,
    ),
    CalibrationTarget(
        "fig05.peak_lag", "Fig. 5",
        "Daily peaks land at different local hours across regions.",
        _check_peak_lag,
    ),
    CalibrationTarget(
        "fig06.peak_trough_span", "Fig. 6",
        "Peak-to-trough ratios span 1 to >100 with a flat low-rate cluster.",
        _check_peak_trough_span,
    ),
    CalibrationTarget(
        "fig07.holiday_patterns", "Fig. 7",
        "R1/R2/R4/R5 dip during the holiday; R3 surges.",
        _check_holiday_patterns,
    ),
    CalibrationTarget(
        "fig08.composition", "Fig. 8d-f",
        "Timers: many functions, few pods; Python3 dominates cold starts.",
        _check_composition,
    ),
    CalibrationTarget(
        "fig10.lognormal_band", "Fig. 10b",
        "Pooled LogNormal fit near the paper's mean 3.24 s / std 7.10 s.",
        _check_lognormal_band,
    ),
    CalibrationTarget(
        "fig10.weibull_heavy_tail", "Fig. 10d",
        "Cold-start inter-arrivals are heavy-tailed Weibull (k < 1).",
        _check_weibull_heavy_tail,
    ),
    CalibrationTarget(
        "fig11.dominant_components", "Fig. 11",
        "Dependency deploy dominates R1; pod allocation dominates R2/R4.",
        _check_dominant_components,
    ),
    CalibrationTarget(
        "fig15.custom_penalty", "Fig. 15",
        "Custom and http medians exceed 8 s (no pool / server boot).",
        _check_custom_penalty,
    ),
    CalibrationTarget(
        "fig16.obs_slowest", "Fig. 16",
        "OBS-A is the slowest trigger category by a wide margin.",
        _check_obs_slowest,
    ),
    CalibrationTarget(
        "fig17.utility_shape", "Fig. 17",
        "Median pod utility near 4; a fifth-to-a-third of pods below 1.",
        _check_utility_shape,
    ),
)


def check_calibration(study: Study) -> list[CalibrationResult]:
    """Run every calibration target against a study."""
    return [target.run(study) for target in TARGETS]


def calibration_passed(results: list[CalibrationResult]) -> bool:
    """True when every target passed."""
    return all(result.passed for result in results)

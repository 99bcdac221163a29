"""One renderer per paper figure, composing :mod:`repro.viz` primitives.

Each ``render_figNN`` takes a :class:`~repro.core.study.Study` — the
materialised :class:`~repro.core.study.TraceStudy` or the bounded-memory
:class:`~repro.core.study.StreamingTraceStudy` (``repro figures --stream``)
— and returns a printable string. The CLI's ``repro figures`` command and
the examples both go through this module, so the text output of every
figure has a single authoritative shape regardless of the compute path.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_cdf_rows, format_table
from repro.core.study import Study
from repro.trace.tables import COMPONENT_COLUMNS
from repro.viz.bars import bar_chart, proportions_bars, quantile_strip
from repro.viz.chart import line_chart, multi_cdf_chart, stacked_area_legend
from repro.viz.grid import correlation_heatmap

#: Figure id -> renderer registry, populated at import time.
FIGURES: dict[str, object] = {}


def _register(fig_id: str):
    def wrap(func):
        FIGURES[fig_id] = func
        return func

    return wrap


def render(fig_id: str, study: Study) -> str:
    """Render one figure by id (e.g. ``"fig10"``)."""
    try:
        renderer = FIGURES[fig_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {fig_id!r}; available: {sorted(FIGURES)}"
        ) from None
    return renderer(study)


def render_all(study: Study) -> dict[str, str]:
    """Render every registered figure."""
    return {fig_id: render(fig_id, study) for fig_id in sorted(FIGURES)}


@_register("fig01")
def render_fig01(study: Study) -> str:
    rows = study.fig01_region_sizes()
    requests = {str(r["region"]): float(r["requests"]) for r in rows}
    header = "Figure 1 — requests, functions, and pods per region"
    return "\n".join(
        [header, format_table(rows), "", "requests per region:", bar_chart(requests)]
    )


@_register("fig03")
def render_fig03(study: Study) -> str:
    parts = ["Figure 3 — per-region CDFs"]
    parts.append(
        multi_cdf_chart(
            study.fig03_requests_per_day(),
            title="(a) requests per function per day",
            x_label="requests/day",
        )
    )
    parts.append(
        multi_cdf_chart(
            study.fig03_exec_time(),
            title="(b) mean execution time per minute",
            x_label="seconds",
        )
    )
    parts.append(
        multi_cdf_chart(
            study.fig03_cpu_usage(),
            title="(c) mean CPU usage per minute",
            x_label="cores",
        )
    )
    return "\n\n".join(parts)


@_register("fig04")
def render_fig04(study: Study) -> str:
    parts = ["Figure 4 — per-user concentration"]
    parts.append(
        multi_cdf_chart(
            study.fig04_functions_per_user(),
            title="(a) functions per user",
            x_label="functions",
        )
    )
    parts.append(
        multi_cdf_chart(
            study.fig04_requests_per_user(),
            title="(b) requests per user",
            x_label="requests",
        )
    )
    return "\n\n".join(parts)


@_register("fig05")
def render_fig05(study: Study) -> str:
    series = study.fig05_request_series()
    charts = {name: data["normalised"] for name, data in series.items()}
    peak_hours = study.fig05_peak_hours()
    rows = [
        {"region": name, "median_peak_hour": round(hour, 2)}
        for name, hour in peak_hours.items()
    ]
    return "\n\n".join(
        [
            "Figure 5 — normalized request series (smoothed) and daily peaks",
            line_chart(charts, y_label="normalized requests/min"),
            format_table(rows),
        ]
    )


@_register("fig06")
def render_fig06(study: Study) -> str:
    rows = study.fig06_peak_trough()
    ptt = np.array([row["peak_to_trough"] for row in rows], dtype=float)
    colds = np.array([row["cold_starts"] for row in rows], dtype=float)
    log_ptt, log_colds = np.log10(ptt + 1e-9), np.log10(colds + 1.0)
    # a constant series has no correlation: print nan as np.corrcoef
    # would, without its division warnings
    corr = (
        float(np.corrcoef(log_ptt, log_colds)[0, 1])
        if np.ptp(log_ptt) and np.ptp(log_colds) else float("nan")
    )
    summary = [
        {"statistic": "functions", "value": len(rows)},
        {"statistic": "max peak-to-trough", "value": round(float(ptt.max()), 1)},
        {
            "statistic": "share with PTT ~ 1",
            "value": round(float((ptt < 1.5).mean()), 3),
        },
        {
            "statistic": "corr(log PTT, log colds)",
            "value": round(corr, 3),
        },
    ]
    return "\n".join(
        ["Figure 6 — peak-to-trough vs requests/day and cold starts", format_table(summary)]
    )


@_register("fig07")
def render_fig07(study: Study) -> str:
    effects = study.fig07_holiday()
    if all(effect.days.size == 0 for effect in effects.values()):
        return "Figure 7 — (trace horizon too short to cover the holiday window)"
    rows = []
    series = {}
    for name, effect in effects.items():
        rows.append(
            {
                "region": name,
                "pre_holiday_mean": round(effect.pre_holiday_mean(), 3),
                "holiday_mean": round(effect.holiday_mean(), 3),
                "rebound": round(effect.rebound_value(), 3),
            }
        )
        series[name] = effect.pods_normalised
    return "\n\n".join(
        [
            "Figure 7 — holiday effect on pods (normalized per region)",
            line_chart(series, y_label="pods (normalized)"),
            format_table(rows),
        ]
    )


@_register("fig08")
def render_fig08(study: Study) -> str:
    parts = ["Figure 8 — composition of pods / cold starts / functions (R2)"]
    for by in ("trigger", "runtime", "config"):
        proportions = study.fig08_proportions(by=by)
        parts.append(f"(by {by})")
        parts.append(proportions_bars(proportions))
    series = study.fig08_pods_over_time("trigger")
    parts.append("running pods per hour by trigger type:")
    parts.append(stacked_area_legend(series))
    return "\n\n".join(parts)


@_register("fig09")
def render_fig09(study: Study) -> str:
    mix = study.fig09_trigger_by_runtime()
    return "\n".join(
        ["Figure 9 — trigger-type mix per runtime (R2)", proportions_bars(_transpose(mix))]
    )


def _transpose(mix: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Flip runtime->trigger->share into trigger->runtime->share for bars."""
    out: dict[str, dict[str, float]] = {}
    for runtime, shares in mix.items():
        for trigger, share in shares.items():
            out.setdefault(trigger, {})[runtime] = share
    return out


@_register("fig10")
def render_fig10(study: Study) -> str:
    ln_fit = study.fig10_lognormal_fit()
    wb_fit = study.fig10_weibull_fit()
    parts = ["Figure 10 — cold-start durations and inter-arrival times"]
    parts.append(
        multi_cdf_chart(
            study.fig10_cold_start_cdfs(),
            title="(a) cold-start time CDFs",
            x_label="seconds",
        )
    )
    parts.append(
        f"(b) LogNormal fit: mean={ln_fit.mean:.2f}s std={ln_fit.std:.2f}s "
        f"(paper: 3.24 / 7.10), KS={ln_fit.ks_statistic:.4f}"
    )
    parts.append(
        multi_cdf_chart(
            study.fig10_iat_cdfs(),
            title="(c) cold-start inter-arrival CDFs",
            x_label="seconds",
        )
    )
    parts.append(
        f"(d) Weibull fit: k={wb_fit.k:.3f} lambda={wb_fit.lam:.3f} "
        f"mean={wb_fit.mean:.2f}s, KS={wb_fit.ks_statistic:.4f}"
    )
    return "\n\n".join(parts)


@_register("fig11")
def render_fig11(study: Study) -> str:
    parts = ["Figure 11 — hourly mean cold-start components per region"]
    dominant = study.fig11_dominant_component()
    for name in study.regions:
        data = study.fig11_hourly_components(name)
        components = {col: data[col] for col in COMPONENT_COLUMNS}
        parts.append(
            f"--- {name} (dominant: {dominant[name]}, "
            f"mean total {np.nanmean(data['cold_start_s']):.2f}s) ---"
        )
        parts.append(stacked_area_legend(components))
    return "\n\n".join(parts)


@_register("fig12")
def render_fig12(study: Study) -> str:
    parts = ["Figure 12 — Spearman correlations of per-minute component means"]
    for name in study.regions:
        matrix = study.fig12_correlations(name)
        parts.append(f"--- {name} ---")
        parts.append(
            correlation_heatmap(matrix.fields, matrix.rho, matrix.significant())
        )
    return "\n\n".join(parts)


@_register("fig13")
def render_fig13(study: Study) -> str:
    split = study.fig13_pool_split()
    parts = ["Figure 13 — cold-start components by pool size (small vs large)"]
    for region, metrics in split.items():
        groups = {}
        for metric, sizes in metrics.items():
            for size_name, qs in sizes.items():
                groups[f"{metric}/{size_name}"] = qs
        parts.append(f"--- {region} ---")
        parts.append(quantile_strip(groups))
    return "\n\n".join(parts)


@_register("fig14")
def render_fig14(study: Study) -> str:
    rows = study.fig14_requests_vs_cold_starts()
    requests = np.array([row["requests"] for row in rows], dtype=float)
    colds = np.array([row["cold_starts"] for row in rows], dtype=float)
    triggers = np.array([str(row["trigger"]) for row in rows])
    on_diagonal = colds >= 0.8 * requests
    summary = [
        {"statistic": "functions", "value": len(rows)},
        {"statistic": "on 1:1 diagonal", "value": int(on_diagonal.sum())},
        {
            "statistic": "diagonal timer share",
            "value": round(float((triggers[on_diagonal] == "TIMER-A").mean()), 3)
            if on_diagonal.any()
            else 0.0,
        },
    ]
    return "\n".join(
        ["Figure 14 — requests vs cold starts per function (R2)", format_table(summary)]
    )


@_register("fig15")
def render_fig15(study: Study) -> str:
    cdfs = study.fig15_by_runtime()
    totals = {name: metrics["cold_start_s"] for name, metrics in cdfs.items()}
    return "\n\n".join(
        [
            "Figure 15 — cold-start time by runtime (R2)",
            multi_cdf_chart(totals, x_label="seconds"),
            format_table(format_cdf_rows(totals)),
        ]
    )


@_register("fig16")
def render_fig16(study: Study) -> str:
    cdfs = study.fig16_by_trigger()
    totals = {name: metrics["cold_start_s"] for name, metrics in cdfs.items()}
    return "\n\n".join(
        [
            "Figure 16 — cold-start time by trigger type (R2)",
            multi_cdf_chart(totals, x_label="seconds"),
            format_table(format_cdf_rows(totals)),
        ]
    )


@_register("fig17")
def render_fig17(study: Study) -> str:
    by_runtime = study.fig17_utility(by="runtime")
    by_trigger = study.fig17_utility(by="trigger")
    runtime_cdfs = {name: cdf for name, (cdf, _s) in by_runtime.items()}
    trigger_cdfs = {name: cdf for name, (cdf, _s) in by_trigger.items()}
    return "\n\n".join(
        [
            "Figure 17 — pod utility ratio (useful lifetime / cold-start time)",
            multi_cdf_chart(runtime_cdfs, title="(a) by runtime", x_label="ratio"),
            multi_cdf_chart(trigger_cdfs, title="(b) by trigger type", x_label="ratio"),
        ]
    )

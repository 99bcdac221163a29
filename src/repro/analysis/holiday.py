"""Holiday-effect analysis (paper §3.2, Fig. 7).

Figure 7 plots, per region, the daily number of allocated pods and the mean
CPU usage, normalised to the maximum over the pre-holiday days shown. The
dip-and-rebound (or Region-3 surge) shape is the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.tables import TraceBundle
from repro.workload.shapes import (
    HOLIDAY_FIRST_DAY,
    HOLIDAY_LAST_DAY,
    SECONDS_PER_DAY,
)


@dataclass
class HolidayEffect:
    """Daily normalised pod allocation and CPU usage around the holiday."""

    days: np.ndarray
    pods_normalised: np.ndarray
    cpu_normalised: np.ndarray
    holiday_first_day: int
    holiday_last_day: int

    def holiday_mean(self, series: str = "pods") -> float:
        values = self.pods_normalised if series == "pods" else self.cpu_normalised
        mask = (self.days >= self.holiday_first_day) & (self.days <= self.holiday_last_day)
        return float(np.nanmean(values[mask])) if mask.any() else float("nan")

    def pre_holiday_mean(self, series: str = "pods") -> float:
        values = self.pods_normalised if series == "pods" else self.cpu_normalised
        mask = self.days < self.holiday_first_day
        return float(np.nanmean(values[mask])) if mask.any() else float("nan")

    def rebound_value(self, series: str = "pods") -> float:
        """Value on the first post-holiday days (catch-up peak)."""
        values = self.pods_normalised if series == "pods" else self.cpu_normalised
        mask = (self.days > self.holiday_last_day) & (self.days <= self.holiday_last_day + 2)
        return float(np.nanmax(values[mask])) if mask.any() else float("nan")


def holiday_effect_from_series(
    daily_pods_full: np.ndarray,
    daily_cpu_full: np.ndarray,
    first_day: int = HOLIDAY_FIRST_DAY,
    last_day: int = HOLIDAY_LAST_DAY,
    window: tuple[int, int] = (10, 27),
) -> HolidayEffect:
    """Fig. 7's windowing/normalisation, from precomputed daily series.

    Pod allocation per day is the mean number of concurrently active pods;
    CPU is the mean request CPU usage that day. Both are normalised to their
    maximum over the in-window days strictly before the holiday (the paper
    normalises "to their maximum value during the same number of days
    before the holiday").
    """
    lo, hi = window
    if lo >= hi:
        raise ValueError("window must be increasing")
    n_days = daily_pods_full.size
    days = np.arange(max(lo, 0), min(hi + 1, n_days))
    if days.size == 0:
        # Horizon shorter than the holiday window: a well-formed empty
        # effect lets callers render "(no holiday in trace)" instead of
        # crashing on a short test trace.
        empty = np.zeros(0)
        return HolidayEffect(
            days=days,
            pods_normalised=empty,
            cpu_normalised=empty,
            holiday_first_day=first_day,
            holiday_last_day=last_day,
        )
    pods = daily_pods_full[days]
    cpu = daily_cpu_full[days]

    pre_mask = days < first_day
    pods_ref = float(np.nanmax(pods[pre_mask])) if pre_mask.any() else float(np.nanmax(pods))
    cpu_ref = float(np.nanmax(cpu[pre_mask])) if pre_mask.any() else float(np.nanmax(cpu))
    return HolidayEffect(
        days=days,
        pods_normalised=pods / max(pods_ref, 1e-12),
        cpu_normalised=cpu / max(cpu_ref, 1e-12),
        holiday_first_day=first_day,
        holiday_last_day=last_day,
    )


def post_holiday_cold_start_surge(bundle: TraceBundle) -> dict[str, float]:
    """Cold-start count and duration increase right after the holiday.

    The paper: "Day 23 is the first working day after the holiday, and all
    regions show an increase in number and duration of cold starts then."
    Returns ratios of the first two post-holiday days vs the holiday mean.
    """
    pods = bundle.pods
    ts_days = pods.timestamps_s / SECONDS_PER_DAY
    holiday = (ts_days >= HOLIDAY_FIRST_DAY) & (ts_days < HOLIDAY_LAST_DAY + 1)
    rebound = (ts_days >= HOLIDAY_LAST_DAY + 1) & (ts_days < HOLIDAY_LAST_DAY + 3)
    if not holiday.any() or not rebound.any():
        return {"count_ratio": float("nan"), "duration_ratio": float("nan")}
    holiday_days = HOLIDAY_LAST_DAY + 1 - HOLIDAY_FIRST_DAY
    count_ratio = (rebound.sum() / 2.0) / max(holiday.sum() / holiday_days, 1e-9)
    duration_ratio = float(
        pods.cold_start_s[rebound].mean() / max(pods.cold_start_s[holiday].mean(), 1e-12)
    )
    return {"count_ratio": float(count_ratio), "duration_ratio": duration_ratio}


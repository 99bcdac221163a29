"""Calibrated per-region profiles R1–R5.

Each :class:`RegionProfile` encodes, as generator parameters, the facts the
paper reports for that region:

* size (functions, request volume ordering) — Fig. 1;
* the share of functions with at least one request per minute
  (~20 % in R1 vs ~1 % in R4) and the requests/day CDF shape — Fig. 3a;
* median execution time (4 ms in R5 … 100 ms in R1) — Fig. 3b;
* median CPU usage (0.1–0.3 cores) — Fig. 3c;
* users-per-function concentration — Fig. 4;
* the local hour of the daily peak (peak-time lag between regions) — Fig. 5;
* holiday behaviour (dip for R1/R2/R4/R5, surge for R3) — Fig. 7;
* the runtime/trigger/config mix (calibrated in detail for R2) — Figs. 8, 9;
* cold-start component regime (which component dominates, medians,
  congestion sensitivity) — Figs. 10–13, via :mod:`repro.sim.latency`.

Production magnitudes are scaled to laptop size; per-function *rates* keep
their real-world values (the keep-alive interaction that produces cold
starts depends on per-function inter-arrival times, not on fleet size), and
only the number of functions shrinks. Per-function rates are capped
(``rate_cap_per_day``) because the top production functions would emit
billions of rows; those functions are the ones that essentially never cold
start, so the cap does not perturb the cold-start analysis (capped
functions sit in the frequent, >= 1 req/min tier of :class:`RateMix`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.latency import LatencyRegime
from repro.workload.catalog import (
    CONFIG_CATALOG,
    ResourceConfig,
    Runtime,
)
from repro.workload.shapes import DiurnalShape, HolidayCalendar, RateShape, WeeklyShape
from repro.workload.users import UserPopulation

#: Timer periods (seconds) and their sampling weights. Periods strictly above
#: the 60 s keep-alive make every firing a cold start (paper §3.2/§4.3); the
#: 60 s bucket sits exactly at the boundary, where jitter decides. Most
#: production timers are hourly/daily batch jobs — minute-scale timers are
#: rare but each one generates hundreds of cold starts per day, so regions
#: tilt these weights via ``timer_fast_weight``.
TIMER_PERIODS_S: tuple[float, ...] = (60, 120, 300, 600, 900, 1800, 3600, 10800, 86400)
TIMER_PERIOD_WEIGHTS: tuple[float, ...] = (
    0.004, 0.004, 0.008, 0.012, 0.016, 0.036, 0.36, 0.28, 0.28,
)


@dataclass(frozen=True)
class RateMix:
    """Requests-per-day distribution for non-timer functions.

    A two-component mixture: with probability ``high_share`` the function is
    a *frequent* function with rate drawn from a bounded Pareto on
    [1440/day, rate_cap] (at least one request per minute); otherwise the
    rate is log-uniform on [low_min, low_max] (the "large majority of
    functions have very few requests per day").
    """

    high_share: float = 0.10
    high_alpha: float = 1.7
    rate_cap_per_day: float = 2.0e4
    low_min_per_day: float = 0.25
    low_max_per_day: float = 1200.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.high_share <= 1.0:
            raise ValueError("high_share must be in [0, 1]")
        if self.rate_cap_per_day <= 1440.0:
            raise ValueError("rate_cap_per_day must exceed 1440 (1 req/min)")
        if not 0 < self.low_min_per_day < self.low_max_per_day:
            raise ValueError("low rate bounds must be increasing and positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` daily rates."""
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        is_high = rng.random(n) < self.high_share
        rates = np.empty(n, dtype=np.float64)
        n_low = int((~is_high).sum())
        if n_low:
            log_lo, log_hi = np.log(self.low_min_per_day), np.log(self.low_max_per_day)
            rates[~is_high] = np.exp(rng.uniform(log_lo, log_hi, size=n_low))
        n_high = int(is_high.sum())
        if n_high:
            rates[is_high] = self.sample_high(n_high, rng)
        return rates

    def sample_high(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` rates from the frequent-function component only."""
        lo, hi, a = 1440.0, self.rate_cap_per_day, self.high_alpha
        u = rng.random(n)
        # Bounded Pareto via inverse transform.
        return (lo ** -a - u * (lo ** -a - hi ** -a)) ** (-1.0 / a)


@dataclass(frozen=True)
class RegionProfile:
    """Everything the generator needs to synthesise one region's trace."""

    name: str
    n_functions: int
    clusters: int
    rate_mix: RateMix
    timer_share: float
    bursty_share: float
    exec_median_s: float
    exec_sigma_fn: float
    exec_sigma_req: float
    cpu_median_cores: float
    peak_hour: float
    peak_amplitude: float
    secondary_peak_hour: float | None
    holiday_pattern: str
    users: UserPopulation
    latency: LatencyRegime
    runtime_mix: dict[Runtime, float]
    trigger_by_runtime: dict[Runtime, dict[str, float]]
    config_weights: dict[str, float]
    dependency_share: float = 0.45
    single_cluster_share: float = 0.2
    mean_burst_factor: float = 60.0
    timer_fast_weight: float = 1.0
    sync_session_mean: float = 6.0
    async_session_mean: float = 2.5
    obs_sustained_share: float = 0.3
    description: str = ""

    def __post_init__(self) -> None:
        if self.n_functions <= 0:
            raise ValueError("n_functions must be positive")
        if self.clusters <= 0:
            raise ValueError("clusters must be positive")
        if not 0 <= self.timer_share <= 1 or not 0 <= self.bursty_share <= 1:
            raise ValueError("shares must be in [0, 1]")
        if self.timer_share + self.bursty_share > 1:
            raise ValueError("timer_share + bursty_share must be <= 1")
        total = sum(self.runtime_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"runtime_mix must sum to 1, got {total}")

    def rate_shape(self) -> RateShape:
        """Region-wide modulation for user-driven (non-timer) workloads."""
        holiday = HolidayCalendar(pattern=self.holiday_pattern)
        return RateShape(
            diurnal=DiurnalShape(
                peak_hour=self.peak_hour,
                amplitude=self.peak_amplitude,
                secondary_peak_hour=self.secondary_peak_hour,
                secondary_amplitude=0.5 if self.secondary_peak_hour is not None else 0.0,
            ),
            weekly=WeeklyShape(),
            holiday=holiday,
        )

    def scaled(self, scale: float) -> "RegionProfile":
        """Copy with the function count scaled (rates untouched, see module doc)."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        n = max(int(round(self.n_functions * scale)), 8)
        return RegionProfile(
            **{**self.__dict__, "n_functions": n}
        )


# --- shared mixes -----------------------------------------------------------

#: Region 2 runtime mix (share of functions), tuned so Python3 dominates
#: functions and cold starts (Fig. 8e: Python3 ~50 % of cold starts).
_R2_RUNTIME_MIX: dict[Runtime, float] = {
    Runtime.PYTHON3: 0.42,
    Runtime.NODEJS: 0.12,
    Runtime.JAVA: 0.10,
    Runtime.HTTP: 0.06,
    Runtime.CUSTOM: 0.05,
    Runtime.PYTHON2: 0.07,
    Runtime.PHP: 0.06,
    Runtime.GO: 0.05,
    Runtime.CSHARP: 0.03,
    Runtime.UNKNOWN: 0.04,
}

#: Trigger-combination mix per runtime (Fig. 9): Python3/PHP/Node.js are
#: mostly timer-triggered; Java and http lean APIG-S; Custom leans OBS-A;
#: Python2 has the largest "other A" share. Keys are combo labels resolved
#: by the generator; "APIG-S+TIMER-A" is the paper's 13 % dual binding.
_TRIGGER_BY_RUNTIME: dict[Runtime, dict[str, float]] = {
    Runtime.PYTHON3: {
        "TIMER-A": 0.60, "APIG-S": 0.12, "APIG-S+TIMER-A": 0.09,
        "other A": 0.12, "workflow-S": 0.04, "other S": 0.02,
        "unknown": 0.01,
    },
    Runtime.PHP: {
        "TIMER-A": 0.68, "APIG-S": 0.14, "APIG-S+TIMER-A": 0.06,
        "other A": 0.07, "workflow-S": 0.03, "other S": 0.01,
        "unknown": 0.01,
    },
    Runtime.NODEJS: {
        "TIMER-A": 0.54, "APIG-S": 0.18, "APIG-S+TIMER-A": 0.08,
        "other A": 0.10, "workflow-S": 0.07, "other S": 0.02,
        "unknown": 0.01,
    },
    Runtime.JAVA: {
        "APIG-S": 0.50, "TIMER-A": 0.12, "APIG-S+TIMER-A": 0.09,
        "workflow-S": 0.12, "other S": 0.06, "other A": 0.10,
        "unknown": 0.01,
    },
    Runtime.HTTP: {"APIG-S": 0.92, "other A": 0.08},
    # Custom images are overwhelmingly storage-event consumers. Their mix is
    # restricted to the three *largest* trigger categories so that, at bench
    # scale (a handful of Custom functions), one unlucky draw cannot park a
    # >10 s cold-start population inside a small category like "unknown" and
    # distort that category's median (Fig. 16).
    Runtime.CUSTOM: {"OBS-A": 0.90, "APIG-S": 0.05, "other A": 0.05},
    Runtime.PYTHON2: {
        "TIMER-A": 0.38, "other A": 0.34, "APIG-S": 0.14,
        "workflow-S": 0.06, "other S": 0.04, "APIG-S+TIMER-A": 0.03,
        "unknown": 0.01,
    },
    Runtime.GO: {
        "APIG-S": 0.30, "TIMER-A": 0.30, "workflow-S": 0.14, "other S": 0.08,
        "other A": 0.13, "APIG-S+TIMER-A": 0.04, "unknown": 0.01,
    },
    Runtime.CSHARP: {
        "APIG-S": 0.34, "TIMER-A": 0.34, "workflow-S": 0.08, "other S": 0.06,
        "other A": 0.14, "APIG-S+TIMER-A": 0.03, "unknown": 0.01,
    },
    Runtime.UNKNOWN: {"unknown": 1.0},
}

#: CPU-MEM configuration mix (Fig. 8f: small configs dominate functions and
#: cold starts). Keys are config names from the catalog plus "other-large".
_CONFIG_WEIGHTS: dict[str, float] = {
    "300-128": 0.46,
    "400-256": 0.22,
    "600-512": 0.13,
    "1000-1024": 0.09,
    "other": 0.10,
}

#: Larger configurations pooled behind the "other" weight above.
OTHER_CONFIGS: tuple[ResourceConfig, ...] = CONFIG_CATALOG[4:]



def _mix_with(**overrides: float) -> dict[Runtime, float]:
    """R2 mix with per-region overrides, renormalised to sum to one."""
    mix = dict(_R2_RUNTIME_MIX)
    for key, value in overrides.items():
        mix[Runtime(key)] = value
    total = sum(mix.values())
    return {runtime: share / total for runtime, share in mix.items()}


def _profile(**kwargs) -> RegionProfile:
    kwargs.setdefault("runtime_mix", dict(_R2_RUNTIME_MIX))
    kwargs.setdefault("trigger_by_runtime", {k: dict(v) for k, v in _TRIGGER_BY_RUNTIME.items()})
    kwargs.setdefault("config_weights", dict(_CONFIG_WEIGHTS))
    kwargs.setdefault("clusters", 4)
    kwargs.setdefault("secondary_peak_hour", None)
    kwargs.setdefault("holiday_pattern", "dip")
    return RegionProfile(**kwargs)


# --- the five regions -------------------------------------------------------

#: R1: the most popular region. Few functions, the heaviest traffic (about
#: 20 % of functions see >=1 request/minute), 100 ms median execution, cold
#: starts up to ~7 s dominated by dependency deployment and scheduling
#: (abstract, Fig. 11a), strong congestion coupling on all components.
R1 = _profile(
    name="R1",
    description="Most loaded region; dep-deploy & scheduling dominated cold starts.",
    n_functions=300,
    rate_mix=RateMix(high_share=0.22, high_alpha=1.9, rate_cap_per_day=1.6e4,
                     low_min_per_day=1.0, low_max_per_day=1400.0),
    timer_share=0.42,
    bursty_share=0.10,
    exec_median_s=0.100,
    exec_sigma_fn=1.5,
    exec_sigma_req=0.5,
    cpu_median_cores=0.25,
    peak_hour=10.0,
    peak_amplitude=1.8,
    users=UserPopulation(single_function_share=0.62, tail_alpha=1.4),
    latency=LatencyRegime(
        alloc_median_s=0.05, alloc_sigma=0.7,
        deep_search_p2=0.08, deep_search_p3=0.012,
        stage2_median_s=0.6, stage3_median_s=5.0,
        code_median_s=0.10, code_sigma=0.8,
        dep_median_s=0.95, dep_sigma=0.9,
        sched_median_s=0.55, sched_sigma=0.8,
        custom_alloc_median_s=8.0, http_boot_median_s=7.0,
        congestion_gain_alloc=0.3, congestion_gain_code=0.35,
        congestion_gain_dep=0.6, congestion_gain_sched=0.6,
        large_pod_deploy_factor=3.2, large_pod_sched_factor=1.5,
    ),
    runtime_mix=_mix_with(**{"Custom": 0.04, "http": 0.05}),
    dependency_share=0.60,
    timer_fast_weight=3.0,
)

#: R2: the region the paper studies in depth (Figs. 8, 9, 14-17). Pod
#: allocation dominates cold starts (up to ~3 s), oscillating in phase with
#: the cold-start count (Fig. 12b: cold~alloc 0.9, alloc~count weak).
R2 = _profile(
    name="R2",
    description="Deep-dive region; pod-allocation dominated cold starts.",
    n_functions=400,
    rate_mix=RateMix(high_share=0.06, high_alpha=1.8, rate_cap_per_day=1.2e4,
                     low_min_per_day=0.3, low_max_per_day=1200.0),
    timer_share=0.58,
    bursty_share=0.12,
    exec_median_s=0.030,
    exec_sigma_fn=1.2,
    exec_sigma_req=0.5,
    cpu_median_cores=0.20,
    peak_hour=14.0,
    peak_amplitude=1.6,
    secondary_peak_hour=9.0,
    users=UserPopulation(single_function_share=0.75, tail_alpha=1.6),
    latency=LatencyRegime(
        alloc_median_s=0.10, alloc_sigma=0.9,
        deep_search_p2=0.18, deep_search_p3=0.03,
        stage2_median_s=0.7, stage3_median_s=7.0,
        code_median_s=0.04, code_sigma=0.7,
        dep_median_s=0.10, dep_sigma=0.7,
        sched_median_s=0.12, sched_sigma=0.7,
        congestion_gain_alloc=0.9, congestion_gain_sched=0.2,
        large_pod_sched_factor=0.8, large_pod_alloc_factor=1.7,
        large_pod_stage_factor=1.4,
    ),
    dependency_share=0.45,
    timer_fast_weight=0.6,
)

#: R3: small region with the shortest cold starts (<0.3 s mean), scheduling
#: and code-deploy correlated with the total (Fig. 12c), and the atypical
#: holiday *surge* (Fig. 7).
R3 = _profile(
    name="R3",
    description="Small region; fastest cold starts; holiday surge pattern.",
    n_functions=60,
    rate_mix=RateMix(high_share=0.05, high_alpha=2.0, rate_cap_per_day=6.0e3,
                     low_min_per_day=0.25, low_max_per_day=600.0),
    timer_share=0.45,
    bursty_share=0.05,
    exec_median_s=0.012,
    exec_sigma_fn=1.1,
    exec_sigma_req=0.5,
    cpu_median_cores=0.10,
    peak_hour=20.0,
    peak_amplitude=1.5,
    holiday_pattern="surge",
    users=UserPopulation(single_function_share=0.88, tail_alpha=1.9),
    latency=LatencyRegime(
        alloc_median_s=0.02, alloc_sigma=0.5,
        deep_search_p2=0.04, deep_search_p3=0.008,
        stage2_median_s=0.25, stage3_median_s=2.5,
        code_median_s=0.012, code_sigma=0.8,
        dep_median_s=0.028, dep_sigma=0.6,
        sched_median_s=0.08, sched_sigma=0.7,
        congestion_gain_sched=0.4, congestion_gain_code=0.25,
        custom_alloc_median_s=2.5, http_boot_median_s=2.0,
    ),
    runtime_mix=_mix_with(**{"Custom": 0.02, "http": 0.02}),
    dependency_share=0.35,
    timer_fast_weight=0.3,
)

#: R4: many rarely-invoked functions (~1 % see >=1 req/min), pod-allocation
#: dominated (Fig. 12d: cold~alloc 0.8, cold~dep 0.6).
R4 = _profile(
    name="R4",
    description="Many cold functions; allocation-dominated cold starts.",
    n_functions=300,
    rate_mix=RateMix(high_share=0.01, high_alpha=2.0, rate_cap_per_day=8.0e3,
                     low_min_per_day=0.25, low_max_per_day=900.0),
    timer_share=0.52,
    bursty_share=0.06,
    exec_median_s=0.040,
    exec_sigma_fn=1.1,
    exec_sigma_req=0.5,
    cpu_median_cores=0.15,
    peak_hour=8.0,
    peak_amplitude=1.4,
    users=UserPopulation(single_function_share=0.90, tail_alpha=1.8),
    latency=LatencyRegime(
        alloc_median_s=0.15, alloc_sigma=0.9,
        deep_search_p2=0.16, deep_search_p3=0.025,
        stage2_median_s=0.8, stage3_median_s=6.0,
        code_median_s=0.05, code_sigma=0.7,
        dep_median_s=0.25, dep_sigma=0.8,
        sched_median_s=0.10, sched_sigma=0.7,
        congestion_gain_alloc=0.6, congestion_gain_sched=0.45,
    ),
    runtime_mix=_mix_with(**{"Custom": 0.03, "http": 0.04}),
    dependency_share=0.40,
    timer_fast_weight=0.05,
)

#: R5: biggest pod population and the fastest functions (4 ms median exec);
#: dependency-deploy and scheduling correlated with the total (Fig. 12e);
#: cold-start count largely uncorrelated with duration there.
R5 = _profile(
    name="R5",
    description="Largest pod fleet; 4 ms median exec; dep/sched heavy tails.",
    n_functions=250,
    rate_mix=RateMix(high_share=0.12, high_alpha=1.8, rate_cap_per_day=1.4e4,
                     low_min_per_day=0.5, low_max_per_day=1300.0),
    timer_share=0.50,
    bursty_share=0.12,
    exec_median_s=0.004,
    exec_sigma_fn=1.2,
    exec_sigma_req=0.5,
    cpu_median_cores=0.12,
    peak_hour=16.0,
    peak_amplitude=1.5,
    users=UserPopulation(single_function_share=0.70, tail_alpha=1.5),
    latency=LatencyRegime(
        alloc_median_s=0.08, alloc_sigma=0.8,
        deep_search_p2=0.12, deep_search_p3=0.02,
        stage2_median_s=0.9, stage3_median_s=3.5,
        code_median_s=0.04, code_sigma=0.7,
        dep_median_s=0.45, dep_sigma=0.8,
        sched_median_s=0.30, sched_sigma=0.8,
        custom_alloc_median_s=5.0, http_boot_median_s=4.5,
        congestion_gain_dep=0.4, congestion_gain_sched=0.4,
        congestion_gain_alloc=0.2,
        large_pod_sched_factor=0.85, large_pod_deploy_factor=2.0,
        large_pod_stage_factor=1.5,
    ),
    runtime_mix=_mix_with(**{"Custom": 0.03, "http": 0.04}),
    dependency_share=0.40,
    mean_burst_factor=120.0,
    timer_fast_weight=1.0,
)

REGION_PROFILES: dict[str, RegionProfile] = {p.name: p for p in (R1, R2, R3, R4, R5)}
REGION_NAMES: tuple[str, ...] = tuple(REGION_PROFILES)


def region_profile(name: str) -> RegionProfile:
    """Look up a built-in profile by name (``"R1"`` .. ``"R5"``)."""
    try:
        return REGION_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown region {name!r}; available: {sorted(REGION_PROFILES)}"
        ) from None

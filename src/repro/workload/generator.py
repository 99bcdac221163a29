"""Trace generator: synthesises per-region TraceBundles.

Pipeline per region (all driven by named RNG streams, fully reproducible):

1. **Population** — sample each function's runtime, trigger combination,
   CPU-MEM config, rate (or timer period), execution-time scale, resource
   usage, code/dependency footprint, and owning user.
2. **Arrivals** — generate every function's request timestamps from its
   arrival process, modulated by the region's diurnal/weekly/holiday shape.
3. **Lifecycle** — reconstruct pods and cold starts under the 60 s
   keep-alive (:mod:`repro.cluster.lifecycle`).
4. **Congestion** — bin cold starts per minute region-wide; the normalised
   intensity feeds back into component latencies (scheduling and allocation
   delays grow when many cold starts compete — paper Figs. 11/12).
5. **Components** — price every cold start with the region's
   :class:`~repro.sim.latency.LatencyModel`.
6. **Assembly** — emit the three Table 1 streams as a
   :class:`~repro.trace.tables.TraceBundle`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.cluster.lifecycle import DEFAULT_KEEPALIVE_S, reconstruct_function_pods
from repro.sim.latency import ComponentParams, LatencyModel, runtime_code
from repro.sim.rng import RngFactory
from repro.trace.tables import FunctionTable, PodTable, RequestTable, TraceBundle
from repro.workload.arrivals import make_arrival_process
from repro.workload.catalog import (
    APIG_A,
    APIG_S,
    CTS_A,
    DIS_A,
    KAFKA_A,
    KAFKA_S,
    LTS_A,
    MAIN_CONFIGS,
    OBS_A,
    SMN_A,
    TIMER_A,
    UNKNOWN_TRIGGER,
    WORKFLOW_A,
    WORKFLOW_S,
    ResourceConfig,
    Runtime,
    SizeClass,
    Trigger,
)
from repro.workload.function import FunctionSpec
from repro.workload.regions import (
    OTHER_CONFIGS,
    REGION_PROFILES,
    RegionProfile,
    TIMER_PERIOD_WEIGHTS,
    TIMER_PERIODS_S,
)
from repro.workload.shapes import SECONDS_PER_DAY
from repro.workload.users import assign_users

_OTHER_ASYNC: tuple[Trigger, ...] = (CTS_A, DIS_A, LTS_A, SMN_A, KAFKA_A, APIG_A, WORKFLOW_A)
_OTHER_SYNC: tuple[Trigger, ...] = (KAFKA_S,)

#: Runtimes biased towards larger CPU-MEM configurations. Custom images and
#: http servers follow the base config mix: their slow cold starts come from
#: the missing resource pool / server boot, not from pod size, and the paper
#: reports large-vs-small cold-start ratios of only ~1:1-5:1 (Fig. 13a).
_HEAVY_RUNTIMES = {Runtime.JAVA, Runtime.CSHARP}

#: Tilt applied to the large-config weights for heavy runtimes.
_HEAVY_CONFIG_TILT = 1.6

#: Region id multiplier keeping IDs globally unique across regions.
_REGION_ID_STRIDE = 1_000_000_000


def _triggers_for_label(label: str, rng: np.random.Generator) -> tuple[Trigger, ...]:
    """Resolve a combo label from the profile mix into concrete triggers."""
    if label == "TIMER-A":
        return (TIMER_A,)
    if label == "APIG-S":
        return (APIG_S,)
    if label == "APIG-S+TIMER-A":
        return (APIG_S, TIMER_A)
    if label == "OBS-A":
        return (OBS_A,)
    if label == "workflow-S":
        return (WORKFLOW_S,)
    if label == "other A":
        return (_OTHER_ASYNC[rng.integers(len(_OTHER_ASYNC))],)
    if label == "other S":
        return (_OTHER_SYNC[rng.integers(len(_OTHER_SYNC))],)
    if label == "unknown":
        return (UNKNOWN_TRIGGER,)
    raise ValueError(f"unknown trigger combo label: {label!r}")


#: Runtimes whose trigger mix is left untouched by the timer-share rescale:
#: custom images and http servers are container/server workloads, not cron
#: jobs, so scaling their timer weight up would misrepresent them.
_TIMER_RESCALE_EXEMPT = {Runtime.CUSTOM, Runtime.HTTP}


def _adjusted_trigger_mix(profile: RegionProfile) -> dict[Runtime, dict[str, float]]:
    """Rescale TIMER-A weights so the region hits its target timer share."""
    expected = sum(
        share * mix.get("TIMER-A", 0.0)
        for runtime, share in profile.runtime_mix.items()
        for mix in (profile.trigger_by_runtime.get(runtime, {"unknown": 1.0}),)
    )
    if expected <= 0:
        return profile.trigger_by_runtime
    scale = profile.timer_share / expected
    adjusted: dict[Runtime, dict[str, float]] = {}
    for runtime, mix in profile.trigger_by_runtime.items():
        if runtime in _TIMER_RESCALE_EXEMPT:
            adjusted[runtime] = dict(mix)
            continue
        timer_w = min(mix.get("TIMER-A", 0.0) * scale, 0.9)
        rest = {k: v for k, v in mix.items() if k != "TIMER-A"}
        rest_total = sum(rest.values())
        remaining = max(1.0 - timer_w, 1e-9)
        new_mix = {k: v / rest_total * remaining for k, v in rest.items()} if rest_total else {}
        if timer_w > 0:
            new_mix["TIMER-A"] = timer_w
        adjusted[runtime] = new_mix
    return adjusted


def _sample_config(
    runtime: Runtime,
    profile: RegionProfile,
    rng: np.random.Generator,
    is_timer: bool = False,
) -> ResourceConfig:
    """Draw a CPU-MEM configuration; heavy runtimes skew larger.

    Timer functions skew *smaller*: cron-style batch jobs are the archetypal
    minimal-resource function, and they carry a large share of all cold
    starts (Fig. 8f: small configs dominate cold starts).
    """
    names = list(profile.config_weights)
    weights = np.array([profile.config_weights[n] for n in names], dtype=np.float64)
    if runtime in _HEAVY_RUNTIMES:
        for i, name in enumerate(names):
            if name in ("600-512", "1000-1024", "other"):
                weights[i] *= _HEAVY_CONFIG_TILT
    if is_timer:
        for i, name in enumerate(names):
            if name in ("300-128", "400-256"):
                weights[i] *= 2.0
    weights = weights / weights.sum()
    chosen = names[rng.choice(len(names), p=weights)]
    if chosen == "other":
        return OTHER_CONFIGS[rng.integers(len(OTHER_CONFIGS))]
    for config in MAIN_CONFIGS:
        if config.name == chosen:
            return config
    raise ValueError(f"config weight key {chosen!r} not in catalog")


def _allocate_counts(
    weights: dict, n: int, rng: np.random.Generator
) -> dict:
    """Largest-remainder allocation of ``n`` items to weighted categories.

    The generator's mixes are *calibration targets* (the paper reports them
    as population proportions), so they are hit exactly rather than sampled
    i.i.d. — at bench scale an i.i.d. draw over 10-20 functions routinely
    flips which category dominates a runtime, which no real population does.
    Remainders go to the categories with the largest fractional parts, with
    a random perturbation breaking ties.
    """
    names = list(weights)
    w = np.array([weights[name] for name in names], dtype=np.float64)
    w = w / w.sum()
    exact = w * n
    base = np.floor(exact).astype(np.int64)
    remainder = n - int(base.sum())
    if remainder > 0:
        frac = exact - base + rng.random(len(names)) * 1e-9
        order = np.argsort(-frac)
        base[order[:remainder]] += 1
    return {name: int(count) for name, count in zip(names, base)}


def build_population(
    profile: RegionProfile, rngs: RngFactory, region_index: int = 0
) -> list[FunctionSpec]:
    """Sample the region's function population."""
    rng = rngs.stream(f"population/{profile.name}")
    n = profile.n_functions
    base_id = region_index * _REGION_ID_STRIDE

    # Exact-proportion allocation of runtimes, then trigger combos within
    # each runtime, shuffled so function ids carry no structure.
    runtime_counts = _allocate_counts(profile.runtime_mix, n, rng)
    trigger_mix = _adjusted_trigger_mix(profile)
    assigned_runtimes: list[Runtime] = []
    assigned_combos: list[str] = []
    for runtime, count in runtime_counts.items():
        if count == 0:
            continue
        mix = trigger_mix.get(runtime, {"unknown": 1.0})
        combo_counts = _allocate_counts(mix, count, rng)
        for combo, combo_count in combo_counts.items():
            assigned_runtimes.extend([runtime] * combo_count)
            assigned_combos.extend([combo] * combo_count)
    order = rng.permutation(n)
    assigned_runtimes = [assigned_runtimes[j] for j in order]
    assigned_combos = [assigned_combos[j] for j in order]

    owners = assign_users(n, profile.users, rng, first_user_id=base_id)
    rates = profile.rate_mix.sample(n, rng)

    # Region-specific tilt of timer periods: ``timer_fast_weight`` scales the
    # probability of sub-2-minute timers (R1 has many, R4 almost none).
    period_weights = np.array(TIMER_PERIOD_WEIGHTS, dtype=np.float64)
    fast = np.array(TIMER_PERIODS_S) <= 120.0
    period_weights[fast] *= profile.timer_fast_weight
    period_weights = period_weights / period_weights.sum()

    specs: list[FunctionSpec] = []
    workflow_candidates: list[int] = []
    for i in range(n):
        runtime = assigned_runtimes[i]
        combo = assigned_combos[i]
        triggers = _triggers_for_label(combo, rng)

        timer_driven = combo == "TIMER-A"
        if timer_driven:
            arrival_kind = "timer"
        else:
            p_bursty = min(profile.bursty_share / max(1.0 - profile.timer_share, 0.05), 0.8)
            arrival_kind = "bursty" if rng.random() < p_bursty else "poisson"

        config = _sample_config(runtime, profile, rng, is_timer=timer_driven)
        is_large = config.size_class is SizeClass.LARGE

        exec_median = profile.exec_median_s * float(
            np.exp(rng.normal(0.0, profile.exec_sigma_fn))
        )
        if is_large:
            exec_median *= 1.5  # larger pods host more complex code (§4.2)
        is_obs = any(t.kind.value == "OBS" for t in triggers)
        if is_obs:
            # OBS-triggered functions process storage objects: long batch
            # executions that keep several pods busy — the paper's "OBS
            # accounts for almost 30 % of running pods" with strong
            # diurnal oscillation.
            exec_median *= float(np.clip(rng.lognormal(np.log(30.0), 0.8), 3.0, 300.0))
            obs_sustained = rng.random() < profile.obs_sustained_share
        if timer_driven:
            # Timer functions are batch jobs with a wide execution spread:
            # short health pings up to minute-long periodic reports. The
            # multiplier is clipped so a single timer cannot dominate a
            # sparse region's per-minute execution statistics at bench scale.
            exec_median *= float(np.clip(rng.lognormal(np.log(8.0), 1.2), 0.5, 60.0))
        exec_median = float(np.clip(exec_median, 2e-4, 300.0))

        cpu = profile.cpu_median_cores * 1000.0 * float(np.exp(rng.normal(0.0, 0.6)))
        cpu = float(np.clip(cpu, 10.0, config.cpu_millicores))
        memory = float(rng.uniform(0.25, 0.9)) * config.memory_mb

        # Larger pods host more complex code (§4.2: "longer code and
        # dependency deployment time may point to more complex code being
        # deployed in larger pods"), so they carry dependency layers more
        # often than small pods do.
        dep_tilt = 1.3 if is_large else 0.9
        has_deps = bool(rng.random() < min(profile.dependency_share * dep_tilt, 0.95))
        # Go ships statically linked binaries and vendored modules, the
        # largest packages of any runtime (Fig. 15c/d: Go pays the heaviest
        # code + dependency deployment); other compiled runtimes ship
        # mid-size archives. Sizes are clipped so one extreme draw cannot
        # dominate a small region's component statistics at bench scale.
        if runtime is Runtime.GO:
            code_size = float(np.exp(rng.normal(np.log(28.0), 0.6)))
            dep_mb = float(np.exp(rng.normal(np.log(45.0), 0.6)))
        elif runtime in (Runtime.JAVA, Runtime.CSHARP):
            code_size = float(np.exp(rng.normal(np.log(12.0), 0.8)))
            dep_mb = float(np.exp(rng.normal(np.log(25.0), 0.9)))
        else:
            code_size = float(np.exp(rng.normal(np.log(4.0), 0.8)))
            dep_mb = float(np.exp(rng.normal(np.log(25.0), 0.9)))
        code_size = float(np.clip(code_size, 0.5, 40.0))
        dep_size = float(np.clip(dep_mb, 2.0, 80.0)) if has_deps else 0.0

        timer_period = float(
            TIMER_PERIODS_S[rng.choice(len(TIMER_PERIODS_S), p=period_weights)]
        )
        burst_factor = (
            float(np.clip(rng.lognormal(np.log(profile.mean_burst_factor), 0.8), 5.0, 3000.0))
            if arrival_kind == "bursty"
            else 1.0
        )

        # Invocation sessions: synchronous triggers (interactive users,
        # workflow chains) arrive in longer bursts than async events; timers
        # fire exactly once per period.
        daily_rate = float(rates[i])
        if timer_driven:
            session_mean, session_duration = 1.0, 20.0
        else:
            synchronous = any(t.synchronous for t in triggers)
            base_mean = profile.sync_session_mean if synchronous else profile.async_session_mean
            session_mean = float(np.clip(rng.lognormal(np.log(base_mean), 0.5), 1.0, 200.0))
            session_duration = float(np.clip(rng.lognormal(np.log(8.0), 1.0), 0.5, 600.0))
            # Workload-class adjustments observed in the paper's Region 2:
            # OBS event streams and Go services run hot (long-lived pods,
            # Fig. 17a: 35 % of Go pods above utility 100); Node.js handlers
            # come in short spiky sessions (40 % of its pods below utility 1);
            # custom-image and http functions run chunky, widely separated
            # batches (object-storage sweeps, server sessions): every batch
            # re-provisions pods from scratch — no reserved pool — yet those
            # pods then serve the whole batch, which is the paper's pairing
            # of >10 s cold starts with *better* utility ratios than several
            # default runtimes (§4.4, §4.5).
            if is_obs and runtime not in (Runtime.CUSTOM, Runtime.HTTP) and obs_sustained:
                daily_rate = float(profile.rate_mix.sample_high(1, rng)[0])
            if runtime is Runtime.GO:
                session_mean = min(session_mean * 2.0, 200.0)
                if rng.random() < 0.35:
                    daily_rate = float(profile.rate_mix.sample_high(1, rng)[0])
            elif runtime is Runtime.NODEJS:
                session_mean = max(session_mean * 0.75, 1.0)
                session_duration = max(session_duration * 0.7, 0.5)
            elif runtime is Runtime.CUSTOM:
                # Custom images: frequent, widely separated object batches.
                # Short per-object executions spread over a multi-minute
                # batch keep the pod alive for the whole batch (high
                # utility ratio, §4.5) while each batch pays a from-scratch
                # pod provisioning (no reserved pool, §4.4). Execution stays
                # proportional to the region's workload class so a handful
                # of custom images cannot drown the per-minute execution
                # statistics at bench scale (Fig. 3b).
                arrival_kind = "poisson"
                daily_rate = float(rng.uniform(400.0, 800.0))
                session_mean = float(rng.uniform(12.0, 20.0))
                session_duration = float(rng.uniform(180.0, 300.0))
                exec_median = float(np.clip(3.0 * profile.exec_median_s, 5e-3, 2.0))
            elif runtime is Runtime.HTTP:
                # http functions: long-lived server sessions of many quick
                # requests — slow cold starts (server boot) but pods that
                # stay useful for the whole session.
                arrival_kind = "poisson"
                daily_rate = float(rng.uniform(250.0, 700.0))
                session_mean = float(rng.uniform(50.0, 110.0))
                session_duration = float(rng.uniform(600.0, 1200.0))

        spec = FunctionSpec(
            function_id=base_id + i,
            user_id=int(owners[i]),
            runtime=runtime,
            triggers=triggers,
            config=config,
            mean_exec_s=exec_median,
            cpu_millicores=cpu,
            memory_mb=memory,
            arrival_kind=arrival_kind,
            daily_rate=daily_rate,
            timer_period_s=timer_period,
            burst_factor=burst_factor,
            has_dependencies=has_deps,
            code_size_mb=code_size,
            dep_size_mb=dep_size,
            session_mean_requests=session_mean,
            session_duration_s=session_duration,
            concurrency=int(rng.choice([1, 1, 1, 2, 4])),
            single_cluster=bool(rng.random() < profile.single_cluster_share),
        )
        specs.append(spec)
        if WORKFLOW_S in triggers:
            workflow_candidates.append(i)

    # Wire workflow call chains: each workflow-S function invokes 1-2
    # downstream functions.
    for idx in workflow_candidates:
        n_children = int(rng.integers(1, 3))
        children = rng.choice(n, size=min(n_children, n), replace=False)
        children_ids = tuple(
            base_id + int(c) for c in children if base_id + int(c) != specs[idx].function_id
        )
        spec = specs[idx]
        specs[idx] = FunctionSpec(**{**spec.__dict__, "workflow_children": children_ids})
    return specs


def congestion_per_minute(
    pod_starts: Iterable[np.ndarray], total_minutes: int, start_s: float = 0.0
) -> np.ndarray:
    """Normalised excess cold-start intensity of each minute.

    Counts the pod starts of every column per minute since ``start_s``
    (clipped into ``[0, total_minutes)``), divides by the mean count over
    busy minutes, subtracts one and clips to ``[0, 3]``. Quiet minutes are
    0 (baseline latency); busy minutes are > 0. The generator prices its
    cold starts with it, and the replay's
    :class:`~repro.mitigation.evaluator.CongestionProfile` reads the same
    statistic off the generated lifecycles.
    """
    counts = np.zeros(total_minutes, dtype=np.float64)
    for starts in pod_starts:
        minutes = ((starts - start_s) // 60).astype(np.int64)
        np.add.at(counts, np.clip(minutes, 0, total_minutes - 1), 1.0)
    busy = counts[counts > 0]
    mean_rate = float(busy.mean()) if busy.size else 1.0
    # Clip the excess intensity: queueing delays grow with load but the
    # platform sheds/queues beyond a point rather than stretching
    # latencies unboundedly.
    return np.clip(counts / max(mean_rate, 1e-9) - 1.0, 0.0, 3.0)


@dataclass
class FunctionTrace:
    """One function's generated request stream plus its pod reconstruction.

    Besides feeding trace assembly, these are the direct input to the
    policy evaluator in :mod:`repro.mitigation`, which replays the arrivals
    under alternative keep-alive / pre-warming / routing policies.
    """

    spec: FunctionSpec
    arrivals: np.ndarray
    exec_s: np.ndarray
    lifecycle: object


class WorkloadGenerator:
    """Generates a 31-day (configurable) trace for one region profile.

    With ``start_day > 0`` the generator produces a *day-window shard*:
    arrivals for absolute trace days ``[start_day, start_day + days)`` with
    the correct weekly/holiday phase. The function population is always
    sampled from the window-independent ``population/...`` stream, so every
    window of the same (seed, profile) sees the identical fleet, while
    arrival/latency/usage streams are window-scoped (independent draws per
    window). ``id_offset`` keeps pod/request ids unique across the windows
    of one region (see :mod:`repro.runtime.shards`).
    """

    def __init__(
        self,
        profile: RegionProfile,
        seed: int = 0,
        days: int = 31,
        keepalive_s: float = DEFAULT_KEEPALIVE_S,
        region_index: int | None = None,
        start_day: int = 0,
        id_offset: int = 0,
        windowed: bool | None = None,
    ):
        if days <= 0:
            raise ValueError("days must be positive")
        if start_day < 0:
            raise ValueError("start_day must be non-negative")
        if id_offset < 0:
            raise ValueError("id_offset must be non-negative")
        #: Windowed arrival sampling. Defaults to on for any shard that is
        #: not the legacy whole-horizon case; a multi-window plan passes
        #: ``windowed=True`` explicitly for its day-0 window too, so the
        #: exactly-once boundary semantics of ``generate_window`` (e.g. cron
        #: grid ownership) hold at *every* window seam, including the first.
        self.windowed = windowed if windowed is not None else start_day > 0
        self.profile = profile
        self.days = days
        self.keepalive_s = keepalive_s
        self.horizon_s = days * SECONDS_PER_DAY
        self.start_day = start_day
        self.start_s = start_day * SECONDS_PER_DAY
        self.end_s = self.start_s + self.horizon_s
        self.id_offset = id_offset
        #: Window-scoping suffix for RNG stream paths. Empty for the legacy
        #: whole-horizon case so unsharded runs keep their exact streams.
        self._window_tag = f"/w{start_day}+{days}" if start_day else ""
        self.region_index = (
            region_index
            if region_index is not None
            else list(REGION_PROFILES).index(profile.name) + 1
            if profile.name in REGION_PROFILES
            else 1
        )
        self._rngs = RngFactory(seed)

    # -- pipeline stages ------------------------------------------------------

    def _chain_seed_for(self, spec: FunctionSpec) -> int:
        """Seed of a bursty function's on/off chain.

        Derived from the workload's root seed so different ``--seed`` runs
        draw different burst schedules, but deliberately *not* window-tagged
        — every day window replays the same chain, which is what carries
        on/off state (and the dwell remainder) across window seams.
        """
        return self._rngs.derive_seed(
            f"bursty-chain/{self.profile.name}/{spec.function_id}"
        )

    def _generate_function_traces(
        self, specs: list[FunctionSpec]
    ) -> list[FunctionTrace]:
        shape = self.profile.rate_shape()
        traces: list[FunctionTrace] = []
        for spec in specs:
            rng = self._rngs.stream(
                f"arrivals/{self.profile.name}{self._window_tag}/{spec.function_id}"
            )
            process = make_arrival_process(
                spec, shape,
                chain_seed=(
                    self._chain_seed_for(spec)
                    if spec.arrival_kind == "bursty" else None
                ),
            )
            if self.windowed:
                arrivals = process.generate_window(self.start_s, self.end_s, rng)
            else:
                arrivals = process.generate(self.horizon_s, rng)
            if arrivals.size == 0:
                continue
            exec_s = np.exp(
                rng.normal(np.log(spec.mean_exec_s), self.profile.exec_sigma_req,
                           size=arrivals.size)
            )
            exec_s = np.clip(exec_s, 1e-4, 900.0)
            lifecycle = reconstruct_function_pods(
                arrivals, exec_s, self.keepalive_s, spec.concurrency
            )
            traces.append(FunctionTrace(spec, arrivals, exec_s, lifecycle))
        return traces

    def _assemble(self, traces: list[FunctionTrace]) -> TraceBundle:
        profile = self.profile
        latency_model = LatencyModel(
            profile.latency,
            self._rngs.stream(f"latency/{profile.name}{self._window_tag}"),
        )

        # ---- pod-level stream (one row per cold start) ----
        n_pods_total = sum(t.lifecycle.n_pods for t in traces)
        runtime_codes = np.empty(n_pods_total, dtype=np.int64)
        is_large = np.empty(n_pods_total, dtype=bool)
        has_deps = np.empty(n_pods_total, dtype=bool)
        code_size = np.empty(n_pods_total, dtype=np.float64)
        dep_size = np.empty(n_pods_total, dtype=np.float64)
        pod_ts = np.empty(n_pods_total, dtype=np.float64)
        pod_function = np.empty(n_pods_total, dtype=np.int64)
        pod_user = np.empty(n_pods_total, dtype=np.int64)
        pod_cluster = np.empty(n_pods_total, dtype=np.int16)

        pod_id_base = self.region_index * _REGION_ID_STRIDE + self.id_offset
        cluster_rng = self._rngs.stream(f"clusters/{profile.name}{self._window_tag}")
        offset = 0
        pod_offsets: list[int] = []
        for trace in traces:
            spec = trace.spec
            count = trace.lifecycle.n_pods
            sl = slice(offset, offset + count)
            runtime_codes[sl] = runtime_code(spec.runtime)
            is_large[sl] = spec.config.size_class is SizeClass.LARGE
            has_deps[sl] = spec.has_dependencies
            code_size[sl] = spec.code_size_mb
            dep_size[sl] = spec.dep_size_mb
            pod_ts[sl] = trace.lifecycle.pod_start_ts
            pod_function[sl] = spec.function_id
            pod_user[sl] = spec.user_id
            if spec.single_cluster:
                pod_cluster[sl] = cluster_rng.integers(profile.clusters)
            else:
                pod_cluster[sl] = (np.arange(count) + cluster_rng.integers(profile.clusters)) % profile.clusters
            pod_offsets.append(offset)
            offset += count

        # Cold starts are priced by the congestion of their start minute.
        total_minutes = int(self.horizon_s // 60) + 1
        per_minute = congestion_per_minute([pod_ts], total_minutes, self.start_s)
        minutes = ((pod_ts - self.start_s) // 60).astype(np.int64)
        congest = per_minute[np.clip(minutes, 0, total_minutes - 1)]

        params = ComponentParams(
            runtime_codes=runtime_codes,
            is_large=is_large,
            has_deps=has_deps,
            code_size_mb=code_size,
            dep_size_mb=dep_size,
            congestion=congest,
        )
        components = latency_model.sample_components(params)

        pods = PodTable.from_columns(
            timestamp_ms=(pod_ts * 1e3).astype(np.int64),
            pod_id=pod_id_base + np.arange(n_pods_total, dtype=np.int64),
            cluster=pod_cluster,
            function=pod_function,
            user=pod_user,
            cold_start_us=(components["total_s"] * 1e6).astype(np.int64),
            pod_alloc_us=(components["pod_alloc_s"] * 1e6).astype(np.int64),
            deploy_code_us=(components["deploy_code_s"] * 1e6).astype(np.int64),
            deploy_dep_us=(components["deploy_dep_s"] * 1e6).astype(np.int64),
            scheduling_us=(components["scheduling_s"] * 1e6).astype(np.int64),
        )

        # ---- request-level stream ----
        n_requests_total = sum(t.lifecycle.n_requests for t in traces)
        req_ts = np.empty(n_requests_total, dtype=np.float64)
        req_pod = np.empty(n_requests_total, dtype=np.int64)
        req_function = np.empty(n_requests_total, dtype=np.int64)
        req_user = np.empty(n_requests_total, dtype=np.int64)
        req_exec = np.empty(n_requests_total, dtype=np.float64)
        req_cpu = np.empty(n_requests_total, dtype=np.float64)
        req_mem = np.empty(n_requests_total, dtype=np.int64)
        req_cluster = np.empty(n_requests_total, dtype=np.int16)

        usage_rng = self._rngs.stream(f"usage/{profile.name}{self._window_tag}")
        offset = 0
        for trace, pod_offset in zip(traces, pod_offsets):
            spec = trace.spec
            count = trace.lifecycle.n_requests
            sl = slice(offset, offset + count)
            req_ts[sl] = trace.arrivals
            local_pod = trace.lifecycle.request_pod
            req_pod[sl] = pod_id_base + pod_offset + local_pod
            req_cluster[sl] = pod_cluster[pod_offset + local_pod]
            req_function[sl] = spec.function_id
            req_user[sl] = spec.user_id
            req_exec[sl] = trace.exec_s
            cpu_noise = np.exp(usage_rng.normal(0.0, 0.3, size=count))
            req_cpu[sl] = np.clip(spec.cpu_millicores * cpu_noise, 1.0,
                                  spec.config.cpu_millicores)
            mem_noise = np.exp(usage_rng.normal(0.0, 0.2, size=count))
            req_mem[sl] = np.clip(
                spec.memory_mb * mem_noise, 8.0, spec.config.memory_mb
            ).astype(np.int64) * (1024 * 1024)
            offset += count

        order = np.argsort(req_ts, kind="stable")
        requests = RequestTable.from_columns(
            timestamp_ms=(req_ts[order] * 1e3).astype(np.int64),
            pod_id=req_pod[order],
            cluster=req_cluster[order],
            function=req_function[order],
            user=req_user[order],
            request_id=pod_id_base + np.arange(n_requests_total, dtype=np.int64),
            exec_time_us=(req_exec[order] * 1e6).astype(np.int64),
            cpu_millicores=req_cpu[order],
            memory_bytes=req_mem[order],
        )

        # ---- function-level stream ----
        specs = [t.spec for t in traces]
        functions = FunctionTable.from_columns(
            function=np.array([s.function_id for s in specs], dtype=np.int64),
            runtime=np.array([s.runtime.value for s in specs], dtype="U16"),
            trigger=np.array([s.trigger_combo for s in specs], dtype="U24"),
            cpu_mem=np.array([s.config.name for s in specs], dtype="U16"),
        )

        return TraceBundle(
            region=profile.name,
            requests=requests,
            pods=pods,
            functions=functions,
            meta={
                "seed": self._rngs.seed,
                "days": self.days,
                "start_day": self.start_day,
                "keepalive_s": self.keepalive_s,
                "n_functions": profile.n_functions,
                "profile": profile.name,
            },
        )

    # -- public API ------------------------------------------------------------

    def generate(self) -> TraceBundle:
        """Run the full pipeline and return the region's trace bundle."""
        specs = build_population(self.profile, self._rngs, self.region_index)
        traces = self._generate_function_traces(specs)
        return self._assemble(traces)

    def population(self) -> list[FunctionSpec]:
        """Sample only the function population (no arrivals)."""
        return build_population(self.profile, self._rngs, self.region_index)

    def function_traces(self) -> list[FunctionTrace]:
        """Population + arrivals + lifecycle, without table assembly.

        This is the entry point used by the mitigation evaluator.
        """
        specs = build_population(self.profile, self._rngs, self.region_index)
        return self._generate_function_traces(specs)

    def function_traces_for(self, specs: list[FunctionSpec]) -> list[FunctionTrace]:
        """Arrivals + lifecycle for an explicit subset of the population.

        Arrival streams are addressed per function id, so the traces of a
        subset are bit-identical to the corresponding traces of a full
        :meth:`function_traces` run — the property function-sharded policy
        evaluation relies on (:mod:`repro.runtime`).
        """
        return self._generate_function_traces(specs)


def generate_region(
    region: str | RegionProfile,
    seed: int = 0,
    days: int = 31,
    scale: float = 1.0,
    keepalive_s: float = DEFAULT_KEEPALIVE_S,
) -> TraceBundle:
    """Generate one region's trace.

    Args:
        region: region name (``"R1"``..``"R5"``) or a custom profile.
        seed: RNG root seed.
        days: horizon in days (the paper's trace spans 31).
        scale: multiplies the number of functions (rates are never scaled;
            see :mod:`repro.workload.regions`).
        keepalive_s: pod keep-alive (production default 60 s).
    """
    profile = REGION_PROFILES[region] if isinstance(region, str) else region
    if scale != 1.0:
        profile = profile.scaled(scale)
    return WorkloadGenerator(profile, seed=seed, days=days, keepalive_s=keepalive_s).generate()


def generate_multi_region(
    regions: tuple[str, ...] = ("R1", "R2", "R3", "R4", "R5"),
    seed: int = 0,
    days: int = 31,
    scale: float = 1.0,
    keepalive_s: float = DEFAULT_KEEPALIVE_S,
    jobs: int = 1,
    chunk_days: int | None = None,
    channel: str = "pickle",
) -> dict[str, TraceBundle]:
    """Generate traces for several regions with independent streams.

    Args:
        jobs: worker processes. 1 (default) runs in-process; higher values
            execute shards on a process pool (:mod:`repro.runtime`).
        chunk_days: shard each region's horizon into day windows of this
            length (bounded memory per worker). ``None`` shards along
            regions only, in which case the merged result is identical to
            the serial output for any ``jobs``.
        channel: shard-result transport for pooled runs — ``"pickle"``
            (default) or ``"shm"`` (bundle arrays return through shared
            memory; see :class:`~repro.runtime.executor.ParallelExecutor`).
            Never changes the merged bundles, only how they travel.
    """
    # Duplicate names would shard twice and merge into a doubled bundle with
    # colliding ids; dedup up front so both paths see each region once.
    regions = tuple(dict.fromkeys(regions))
    if jobs <= 1 and not chunk_days:
        return {
            name: generate_region(name, seed=seed, days=days, scale=scale,
                                  keepalive_s=keepalive_s)
            for name in regions
        }
    # Lazy import: repro.runtime builds on this module.
    from repro.runtime import ParallelExecutor, ShardPlan, merge_bundles
    from repro.runtime.executor import run_generation_shard

    plan = ShardPlan.for_generation(
        regions=regions, seed=seed, days=days, chunk_days=chunk_days,
        scale=scale, keepalive_s=keepalive_s,
    )
    results = ParallelExecutor(jobs=jobs, channel=channel).run(
        run_generation_shard, plan.shards
    )
    by_region: dict[str, list[TraceBundle]] = {name: [] for name in regions}
    for spec, bundle in zip(plan.shards, results):
        by_region[spec.region].append(bundle)
    return {name: merge_bundles(parts) for name, parts in by_region.items()}

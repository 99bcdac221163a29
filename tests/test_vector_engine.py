"""Engine equivalence: the vectorized replay is bit-identical to the event
loop for every configuration — policy-free *and* coupled tick-phase policies
(pre-warming, peak shaving, cross-region routing, user-defined tick
policies) — across seeds, jobs, and result channels."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.cluster.lifecycle import reconstruct_function_pods
from repro.mitigation import (
    AsyncPeakShaver,
    CrossRegionEvaluator,
    DynamicKeepAlive,
    HistogramPrewarmPolicy,
    PrewarmPolicy,
    RegionEvaluator,
    RoutingPolicy,
    TickAction,
    TimerPrewarmPolicy,
)
from repro.mitigation.base import HorizonSchedule
from repro.mitigation.evaluator import (
    SharedReplay,
    build_workload,
    build_workload_shard,
    population_groups,
)
from repro.obs.telemetry import profiled
from repro.runtime import (
    EvaluationTask,
    evaluate_cross_region,
    evaluate_policies,
    make_policy_evaluator,
    run_evaluation_shard,
)
from repro.runtime.shards import ShardPlan
from repro.workload.catalog import OBS_A, ResourceConfig, Runtime, TIMER_A
from repro.workload.function import FunctionSpec
from repro.workload.generator import FunctionTrace


def _assert_identical(a, b, label=""):
    """Full bit-level EvalMetrics equality (not just the summary)."""
    assert a.summary() == b.summary(), label
    assert a.cold_wait == b.cold_wait, label
    assert a.cold_start_minutes == b.cold_start_minutes, label
    assert a.pods_gauge == b.pods_gauge, label
    assert a.pod_seconds == b.pod_seconds, label
    assert a.warm_hits == b.warm_hits, label
    assert a.prewarm_pod_seconds == b.prewarm_pod_seconds, label
    assert a.total_delay_s == b.total_delay_s, label
    assert a.cold_starts_by_region == b.cold_starts_by_region, label


def _trace(fid, arrivals, exec_s, concurrency=1, timer=False):
    arrivals = np.asarray(arrivals, dtype=np.float64)
    execs = np.full(arrivals.size, exec_s, dtype=np.float64)
    spec = FunctionSpec(
        function_id=fid, user_id=1, runtime=Runtime.PYTHON3,
        triggers=(TIMER_A,) if timer else (OBS_A,),
        config=ResourceConfig(300, 128), mean_exec_s=exec_s,
        cpu_millicores=100, memory_mb=64,
        arrival_kind="timer" if timer else "poisson",
        timer_period_s=120.0, daily_rate=100.0, concurrency=concurrency,
    )
    return FunctionTrace(
        spec=spec, arrivals=arrivals, exec_s=execs,
        lifecycle=reconstruct_function_pods(arrivals, execs, 60.0, concurrency),
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_baseline_bit_identical_across_seeds(self, r2_traces, seed):
        profile, traces = r2_traces
        event = RegionEvaluator(profile, seed=seed, engine="event").run(traces)
        vector = RegionEvaluator(profile, seed=seed, engine="vector").run(traces)
        _assert_identical(event, vector, f"seed={seed}")

    @pytest.mark.parametrize("region,seed", [("R1", 5), ("R4", 9), ("R5", 2)])
    def test_baseline_bit_identical_across_regions(self, region, seed):
        profile, traces = build_workload(region, seed=seed, days=1, scale=0.1)
        event = RegionEvaluator(profile, seed=seed + 1, engine="event").run(traces)
        vector = RegionEvaluator(profile, seed=seed + 1, engine="vector").run(traces)
        _assert_identical(event, vector, region)

    def test_dynamic_keepalive_bit_identical(self, r2_traces):
        profile, traces = r2_traces
        event = RegionEvaluator(
            profile, keepalive_policy=DynamicKeepAlive(), seed=4, engine="event"
        ).run(traces)
        vector = RegionEvaluator(
            profile, keepalive_policy=DynamicKeepAlive(), seed=4, engine="vector"
        ).run(traces)
        _assert_identical(event, vector, "dynamic-keepalive")

    def test_concurrency_override_bit_identical(self, r2_traces):
        profile, traces = r2_traces
        override = lambda spec: 2  # noqa: E731
        event = RegionEvaluator(
            profile, seed=4, concurrency_override=override, engine="event"
        ).run(traces)
        vector = RegionEvaluator(
            profile, seed=4, concurrency_override=override, engine="vector"
        ).run(traces)
        _assert_identical(event, vector, "concurrency-override")

    def test_explicit_horizon_bit_identical(self, r2_traces):
        profile, traces = r2_traces
        horizon = 86_400.0
        event = RegionEvaluator(profile, seed=2, engine="event").run(
            traces, horizon_s=horizon
        )
        vector = RegionEvaluator(profile, seed=2, engine="vector").run(
            traces, horizon_s=horizon
        )
        _assert_identical(event, vector, "horizon")

    def test_synthetic_regimes_bit_identical(self):
        """Hand-built traces hitting every walk regime: sparse timers,
        steady sessions, queueing blips, multi-pod episodes, conc > 1."""
        from repro.workload.regions import region_profile

        rng = np.random.default_rng(7)
        traces = [
            # all-cold timer (period > keep-alive)
            _trace(1, np.arange(0.0, 86_400.0, 300.0), 0.5, timer=True),
            # steady poisson stream (warm chain)
            _trace(2, np.sort(rng.uniform(0, 86_400, 4000)), 0.02),
            # bursty overlap: forces queueing + concurrent-pod episodes
            _trace(3, np.sort(np.concatenate([
                k * 3600.0 + np.sort(rng.uniform(0, 40, 300))
                for k in range(1, 8)
            ])), 2.5),
            # multi-slot pod with overlap
            _trace(4, np.sort(rng.uniform(0, 86_400, 6000)), 1.5, concurrency=4),
            # single arrival
            _trace(5, [123.0], 1.0),
        ]
        profile = region_profile("R2")
        event = RegionEvaluator(profile, seed=3, engine="event").run(traces)
        vector = RegionEvaluator(profile, seed=3, engine="vector").run(traces)
        _assert_identical(event, vector, "synthetic")
        assert event.cold_starts > 500  # the sweep actually exercised colds

    def test_empty_traces(self):
        from repro.workload.regions import region_profile

        profile = region_profile("R3")
        event = RegionEvaluator(profile, seed=1, engine="event").run([])
        vector = RegionEvaluator(profile, seed=1, engine="vector").run([])
        _assert_identical(event, vector, "empty")
        assert vector.requests == 0

    def test_vector_rejects_unsorted_arrivals(self):
        sorted_trace = _trace(1, [5.0, 10.0, 20.0], 0.1)
        unsorted = FunctionTrace(
            spec=sorted_trace.spec,
            arrivals=np.array([10.0, 5.0, 20.0]),
            exec_s=np.full(3, 0.1),
            lifecycle=sorted_trace.lifecycle,
        )
        from repro.workload.regions import region_profile

        evaluator = RegionEvaluator(region_profile("R2"), seed=1, engine="vector")
        with pytest.raises(ValueError, match="sorted"):
            evaluator.run([unsorted])


class _RecentTimerPrewarm(PrewarmPolicy):
    """A user-defined tick-native pre-warm policy: keeps a pod warm for
    every timer function seen in the last 10 minutes."""

    def __init__(self):
        self.seen: dict[int, float] = {}

    def observe_batch(self, cols):
        for fn, t in zip(cols.arrive_fn.tolist(), cols.arrive_t.tolist()):
            spec = cols.specs[fn]
            if spec.is_timer_driven:
                self.seen[spec.function_id] = t

    def decide(self, tick, now):
        return TickAction(prewarm=tuple(
            (fid, 1) for fid, t in self.seen.items() if now - t < 600.0
        ))


class _StrayPrewarm(PrewarmPolicy):
    """A user-defined policy whose every pre-warm entry is dropped: it
    names a function id no shard holds, or asks for zero pods. With
    ``closed_form`` it also answers ``horizon_schedule`` with the same
    entries, so both vector paths see the all-dropped schedule."""

    STRAY_FID = -7

    def __init__(self, known_fid, closed_form=False):
        self.known_fid = known_fid
        self.closed_form = closed_form

    def decide(self, tick, now):
        if tick % 3:
            return TickAction()
        return TickAction(prewarm=((self.STRAY_FID, 2), (self.known_fid, 0)))

    def horizon_schedule(self, span_index, specs, function_ids, interval_s, n_ticks):
        if not self.closed_form:
            return None
        ticks = np.repeat(np.arange(0, n_ticks, 3, dtype=np.int64), 2)
        fids = np.tile(
            np.array([self.STRAY_FID, self.known_fid], dtype=np.int64),
            ticks.size // 2,
        )
        targets = np.tile(np.array([2, 0], dtype=np.int64), ticks.size // 2)
        return HorizonSchedule(n_ticks, ticks, fids, targets)


class _GaugeShaver(AsyncPeakShaver):
    """Routes the replay's own pod gauge into the directive: shaves while
    the gauge runs above ``trigger`` times its long-run mean."""

    def __init__(self, trigger=1.3, **kwargs):
        super().__init__(**kwargs)
        self.trigger = trigger

    def gauge_peaking(self, tick, now):
        return self.load_ratio > self.trigger


class _ColdChasingPrewarm(PrewarmPolicy):
    """An outcome-fed pre-warm policy: keeps one pod warm for every
    function that cold-started in the last ``hold_s`` seconds. Its
    decisions read the replay's own cold starts, so the vector engine
    runs it on the event engine."""

    needs = frozenset({"colds"})

    def __init__(self, hold_s=120.0):
        self.hold_s = hold_s
        self.last_cold: dict[int, float] = {}

    def observe_batch(self, cols):
        fids = cols.function_ids
        for fn, t in zip(cols.cold_fn.tolist(), cols.cold_t.tolist()):
            self.last_cold[int(fids[fn])] = t

    def decide(self, tick, now):
        return TickAction(prewarm=tuple(
            (fid, 1) for fid, t in sorted(self.last_cold.items())
            if now - t < self.hold_s
        ))


class _ObservingTimer(TimerPrewarmPolicy):
    """Overrides ``observe``: the closed form no longer describes it."""

    def observe(self, spec, t):
        super().observe(spec, t)


class _DecidingHistogram(HistogramPrewarmPolicy):
    """Overrides ``decide``: the closed form no longer describes it."""

    def decide(self, tick, now):
        return super().decide(tick, now)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        from repro.workload.regions import region_profile

        with pytest.raises(ValueError, match="engine"):
            RegionEvaluator(region_profile("R2"), engine="warp")

    def test_auto_engine_rejected(self):
        from repro.workload.regions import region_profile

        with pytest.raises(ValueError, match=r"\('vector', 'event'\)"):
            RegionEvaluator(region_profile("R2"), engine="auto")

    @pytest.mark.parametrize("arg", ["prewarm_policy", "peak_shaver"])
    def test_duck_typed_policy_rejected(self, arg):
        from repro.workload.regions import region_profile

        class DuckPolicy:  # per-arrival hooks, no TickPolicy base
            def observe(self, spec, t):
                pass

            def plan(self, now):
                return {}

        with pytest.raises(TypeError, match="TickPolicy"):
            RegionEvaluator(region_profile("R2"), **{arg: DuckPolicy()})

    def test_coupled_policy_runs_under_default_engine(self, r2_traces):
        profile, traces = r2_traces
        metrics = RegionEvaluator(
            profile, prewarm_policy=TimerPrewarmPolicy(), seed=3
        ).run(traces)
        assert metrics.requests == sum(t.arrivals.size for t in traces)
        assert metrics.prewarm_hits > 0


class TestShardedEngineEquivalence:
    @pytest.mark.parametrize("jobs,channel", [(1, "pickle"), (2, "pickle"), (2, "shm")])
    def test_merged_metrics_identical_across_engines(self, jobs, channel):
        kwargs = dict(seed=5, days=1, scale=0.1, n_groups=4)
        event = evaluate_policies(
            "R3", ("baseline", "dynamic-keepalive"), jobs=jobs,
            channel=channel, engine="event", **kwargs
        )
        vector = evaluate_policies(
            "R3", ("baseline", "dynamic-keepalive"), jobs=jobs,
            channel=channel, engine="vector", **kwargs
        )
        for policy in ("baseline", "dynamic-keepalive"):
            _assert_identical(
                event[policy], vector[policy], f"{policy}/jobs={jobs}/{channel}"
            )

    def test_default_engine_matches_event_for_mixed_policies(self):
        kwargs = dict(seed=5, days=1, scale=0.1, n_groups=2)
        default = evaluate_policies(
            "R3", ("baseline", "timer-prewarm"), **kwargs
        )
        event = evaluate_policies(
            "R3", ("baseline", "timer-prewarm"), engine="event", **kwargs
        )
        # Both policies replay vectorized by default (timer-prewarm on the
        # tick-partitioned mode) yet merge identically to the event loop.
        _assert_identical(default["baseline"], event["baseline"], "baseline")
        _assert_identical(
            default["timer-prewarm"], event["timer-prewarm"], "prewarm"
        )

    @pytest.mark.parametrize("jobs,channel", [(1, "pickle"), (2, "shm")])
    def test_coupled_policy_shards_identical_across_engines(self, jobs, channel):
        kwargs = dict(seed=5, days=1, scale=0.1, n_groups=4)
        event = evaluate_policies(
            "R3", ("timer-prewarm", "peak-shaving"), jobs=jobs,
            channel=channel, engine="event", **kwargs
        )
        vector = evaluate_policies(
            "R3", ("timer-prewarm", "peak-shaving"), jobs=jobs,
            channel=channel, engine="vector", **kwargs
        )
        for policy in ("timer-prewarm", "peak-shaving"):
            _assert_identical(
                event[policy], vector[policy], f"{policy}/jobs={jobs}/{channel}"
            )

    @pytest.mark.parametrize("jobs,channel", [(1, "pickle"), (2, "shm")])
    def test_cross_region_shards_identical_across_engines(self, jobs, channel):
        kwargs = dict(
            remotes=("R3",), policy="best-region", seed=5, days=1,
            scale=0.1, n_groups=4, jobs=jobs, channel=channel,
        )
        event = evaluate_cross_region("R1", engine="event", **kwargs)
        vector = evaluate_cross_region("R1", engine="vector", **kwargs)
        _assert_identical(event.metrics, vector.metrics, "xregion")
        assert event.remote_share == vector.remote_share
        assert vector.metrics.cold_starts_by_region["R3"] > 0

    def test_cross_region_default_engine(self):
        result = evaluate_cross_region(
            "R1", remotes=("R3",), seed=5, days=1, scale=0.05, n_groups=2,
        )
        assert result.metrics.requests > 0
        assert sum(result.metrics.cold_starts_by_region.values()) == (
            result.metrics.cold_starts
        )


#: Every named policy of a mitigation run.
_NAMED_POLICIES = (
    "baseline", "timer-prewarm", "histogram-prewarm", "dynamic-keepalive",
    "peak-shaving",
)
_SHARD_WORKLOAD = dict(seed=3, days=1, scale=0.1)


def _shard_functions():
    return population_groups("R2", n_groups=2, **_SHARD_WORKLOAD)[0]


def _shard_traces():
    return build_workload_shard(
        "R2", functions=_shard_functions(), **_SHARD_WORKLOAD
    )


class TestSharedReplay:
    """The policies one shard replays share the walks no decision touches;
    every result still equals an evaluator built and run on its own."""

    @pytest.mark.parametrize("order", [
        _NAMED_POLICIES,
        ("peak-shaving", "dynamic-keepalive", "histogram-prewarm",
         "timer-prewarm", "baseline"),
    ])
    def test_shard_matches_independent_evaluators(self, order):
        (spec, _) = ShardPlan.for_evaluation(
            "R2", n_groups=2, **_SHARD_WORKLOAD
        ).shards
        task = EvaluationTask(
            spec=spec, policies=order,
            functions=_shard_functions(),
        )
        with profiled() as tel:
            shard = run_evaluation_shard(task)
            shared_walks = tel.counters["vector/coupled/replays"]
        profile, traces = _shard_traces()
        alone_walks = 0
        for policy in order:
            with profiled() as tel:
                alone = make_policy_evaluator(
                    profile, policy, seed=spec.shard_seed
                ).run(traces, name=policy)
                alone_walks += tel.counters.get("vector/coupled/replays", 0)
            _assert_identical(shard[policy], alone, policy)
        # A shared walk is taken (and counted) once per shard.
        assert 0 < shared_walks < alone_walks

    def test_walks_are_scoped_by_evaluator_seed(self):
        """Two evaluator seeds over one traces list and one shared state:
        each seed replays from its own walks."""
        profile, traces = _shard_traces()
        shared = SharedReplay(traces)
        results = {}
        for seed in (3, 4):
            for policy in _NAMED_POLICIES:
                got = make_policy_evaluator(profile, policy, seed=seed).run(
                    traces, name=policy, shared=shared
                )
                alone = make_policy_evaluator(profile, policy, seed=seed).run(
                    traces, name=policy
                )
                _assert_identical(got, alone, f"{policy}/seed={seed}")
                results[policy, seed] = got
        assert results["baseline", 3].cold_wait != results["baseline", 4].cold_wait

    def test_shared_state_belongs_to_its_traces_and_horizon(self):
        profile, traces = _shard_traces()
        shared = SharedReplay(traces)
        evaluator = RegionEvaluator(profile, seed=1)
        with pytest.raises(ValueError, match="shared replay state"):
            evaluator.run(list(traces), shared=shared)
        with pytest.raises(ValueError, match="shared replay state"):
            evaluator.run(traces, horizon_s=shared.horizon_s + 1.0, shared=shared)
        evaluator.run(traces, horizon_s=shared.horizon_s, shared=shared)
        for table in shared._walks.values():
            for outcome in table.values():
                assert not outcome.cold_times.flags.writeable
        columns = [
            *shared.fn_t, *shared.fn_e, *shared.merged_pos, shared.merged_t,
            shared.merged_fn, shared.function_ids, shared.congestion.per_minute,
        ]
        assert not any(column.flags.writeable for column in columns)
        # The read-only columns are views: the traces' own arrays are not
        # frozen.
        assert traces[0].arrivals.flags.writeable


class TestCoupledEngineEquivalence:
    """The tentpole property: every tick-phase configuration — the
    policy-free ones (the empty schedule) included — is bit-identical
    between the engines, across seeds, policy mixes and trace sets."""

    CONFIGS = {
        "baseline": lambda: {},
        "dynamic-keepalive": lambda: dict(keepalive_policy=DynamicKeepAlive()),
        "timer-prewarm": lambda: dict(prewarm_policy=TimerPrewarmPolicy()),
        "histogram-prewarm": lambda: dict(
            prewarm_policy=HistogramPrewarmPolicy(
                threshold=0.3, min_observations=20
            )
        ),
        "peak-shaving": lambda: dict(
            peak_shaver=AsyncPeakShaver(max_delay_s=120.0)
        ),
        "prewarm+shaving": lambda: dict(
            prewarm_policy=TimerPrewarmPolicy(),
            peak_shaver=AsyncPeakShaver(max_delay_s=45.0),
        ),
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_coupled_configs_bit_identical(self, r2_traces, config, seed):
        profile, traces = r2_traces
        make = self.CONFIGS[config]
        # Functions without arrivals, a timer among them, mixed into a
        # few busy ones; and no functions at all.
        sparse = (
            traces[:20] + [_trace(900_001, [], 0.3)] + traces[20:40]
            + [_trace(900_002, [], 0.3, timer=True)]
        )
        for label, subset in (("all", traces), ("zero-arrival", sparse),
                              ("empty", [])):
            event = RegionEvaluator(
                profile, seed=seed, engine="event", **make()
            ).run(subset)
            vector = RegionEvaluator(
                profile, seed=seed, engine="vector", **make()
            ).run(subset)
            _assert_identical(event, vector, f"{config}/seed={seed}/{label}")

    @pytest.mark.parametrize("trigger", [1.05, 1.3, 2.0])
    def test_gauge_feedback_shaver_subclass_bit_identical(
        self, r2_traces, trigger
    ):
        """A subclass routing the replay's own pod gauge into its
        directive feeds outcomes back into decisions; the vector engine
        runs it on the event engine, bit-identically."""

        profile, traces = r2_traces
        event = RegionEvaluator(
            profile, seed=1, engine="event",
            peak_shaver=_GaugeShaver(trigger, max_delay_s=45.0),
        ).run(traces)
        vector = RegionEvaluator(
            profile, seed=1, engine="vector",
            peak_shaver=_GaugeShaver(trigger, max_delay_s=45.0),
        ).run(traces)
        _assert_identical(event, vector, f"gauge-feedback@{trigger}")

    def test_gauge_feedback_subclass_is_not_outcome_free(self):
        class DecideShaver(AsyncPeakShaver):
            def decide(self, tick, now):
                return super().decide(tick, now)

        assert AsyncPeakShaver().outcome_free_decisions
        assert not _GaugeShaver().outcome_free_decisions
        assert not DecideShaver().outcome_free_decisions
        assert TimerPrewarmPolicy().outcome_free_decisions

    def test_shaving_actually_fires_in_the_sweep(self, r2_traces):
        profile, traces = r2_traces
        metrics = RegionEvaluator(
            profile, seed=0, engine="vector",
            peak_shaver=AsyncPeakShaver(max_delay_s=120.0),
        ).run(traces)
        assert metrics.delayed_requests > 0
        assert metrics.total_delay_s > 0

    def test_prewarming_actually_fires_in_the_sweep(self, r2_traces):
        profile, traces = r2_traces
        metrics = RegionEvaluator(
            profile, seed=0, engine="vector",
            prewarm_policy=TimerPrewarmPolicy(),
        ).run(traces)
        assert metrics.prewarm_hits > 0
        assert metrics.prewarm_pod_seconds > 0

    @pytest.mark.parametrize("route", ["home-only", "best-region"])
    def test_cross_region_bit_identical(self, route):
        _, traces = build_workload("R1", seed=6, days=1, scale=0.1)
        results = {}
        for engine in ("event", "vector"):
            evaluator = CrossRegionEvaluator(
                home="R1", remotes=("R3",), seed=2, engine=engine
            )
            results[engine] = evaluator.run(traces, policy=RoutingPolicy(route))
            # Reuse is deterministic: a second run on the same instance
            # replays from the same per-(function, region) stream seeds,
            # whatever the first run's engine materialised.
            rerun = evaluator.run(traces, policy=RoutingPolicy(route))
            _assert_identical(results[engine], rerun, f"{route}/rerun")
        _assert_identical(results["event"], results["vector"], route)

    def test_flipping_best_region_routes_in_one_pass(self):
        """R2's cold starts sit close to R3's plus the RTT, so the route
        keeps flipping (a fixed-point repair of this case never settled).
        The time-ordered cold merge is exact in one pass: no warning, no
        repair counters, and the router stepped only where colds fall."""
        _, traces = build_workload("R2", seed=3, days=1, scale=0.05)
        event = CrossRegionEvaluator(
            home="R2", remotes=("R3",), seed=2, engine="event"
        ).run(traces, policy=RoutingPolicy.BEST_REGION)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with profiled() as tel:
                vector = CrossRegionEvaluator(
                    home="R2", remotes=("R3",), seed=2, engine="vector"
                ).run(traces, policy=RoutingPolicy.BEST_REGION)
            counters = dict(tel.counters)
        _assert_identical(event, vector, "flipping best-region")
        assert "repair/event_fallbacks" not in counters
        assert not any(k.startswith("repair/") for k in counters)
        assert 0 < counters["tick/steps"] <= vector.cold_starts
        assert 0 < vector.cold_starts_by_region["R3"] < vector.cold_starts

    STEPPED = {
        "observe-override": lambda: dict(prewarm_policy=_ObservingTimer()),
        "decide-override": lambda: dict(
            prewarm_policy=_DecidingHistogram(
                threshold=0.3, min_observations=20
            )
        ),
        "timer+gauge-shaver": lambda: dict(
            prewarm_policy=TimerPrewarmPolicy(),
            peak_shaver=_GaugeShaver(2.0, max_delay_s=45.0),
        ),
        "cold-chasing": lambda: dict(prewarm_policy=_ColdChasingPrewarm()),
    }

    @pytest.mark.parametrize("config", sorted(STEPPED))
    def test_overriding_subclasses_step_the_machine(self, r2_traces, config):
        """Subclasses that override a decision hook step the tick
        machine over the arrival spans; outcome-fed policies (alone or
        mixed with built-ins) step it on the event engine. Either way the
        metrics are bit-identical to the event engine's."""
        profile, traces = r2_traces
        make = self.STEPPED[config]
        event = RegionEvaluator(
            profile, seed=4, engine="event", **make()
        ).run(traces)
        with profiled() as tel:
            vector = RegionEvaluator(
                profile, seed=4, engine="vector", **make()
            ).run(traces)
            counters = dict(tel.counters)
        _assert_identical(event, vector, config)
        assert counters["tick/steps"] > 0
        assert "tick/horizon_ticks" not in counters

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_builtin_configs_decide_in_closed_form(self, r2_traces, config):
        profile, traces = r2_traces
        with profiled() as tel:
            RegionEvaluator(
                profile, seed=0, engine="vector", **self.CONFIGS[config]()
            ).run(traces)
            counters = dict(tel.counters)
            timers = dict(tel.timers)
        policies = [
            policy for arg, policy in self.CONFIGS[config]().items()
            if arg != "keepalive_policy"
        ]
        if not policies:
            # Nothing decides: the empty schedule steps no machine and
            # books no tick counter or timer.
            assert counters.get("vector/coupled/replays", 0) > 0
            assert not [k for k in [*counters, *timers] if k.startswith("tick/")]
            return
        assert counters["tick/horizon_ticks"] > 0
        assert "tick/steps" not in counters
        assert all(
            timers[f"tick/policy/{type(p).__name__}_s"] > 0 for p in policies
        )

    def test_explicit_horizon_coupled_bit_identical(self, r2_traces):
        profile, traces = r2_traces
        event = RegionEvaluator(
            profile, seed=2, engine="event",
            prewarm_policy=TimerPrewarmPolicy(),
            peak_shaver=AsyncPeakShaver(max_delay_s=60.0),
        ).run(traces, horizon_s=86_400.0)
        vector = RegionEvaluator(
            profile, seed=2, engine="vector",
            prewarm_policy=TimerPrewarmPolicy(),
            peak_shaver=AsyncPeakShaver(max_delay_s=60.0),
        ).run(traces, horizon_s=86_400.0)
        _assert_identical(event, vector, "horizon")


class TestOutcomeFedDispatch:
    """Policies whose decisions read cold starts or the pod gauge run on
    the event engine under ``engine="vector"``, on deep copies: the
    caller's instances are never stepped, so a rerun replays the same."""

    OUTCOME_FED = {
        "cold-chasing": lambda: dict(prewarm_policy=_ColdChasingPrewarm()),
        "gauge-shaver": lambda: dict(
            peak_shaver=_GaugeShaver(1.3, max_delay_s=45.0)
        ),
    }

    @pytest.mark.parametrize("config", sorted(OUTCOME_FED))
    def test_rerun_matches_first_run_and_fresh_evaluator(
        self, r2_traces, config
    ):
        profile, traces = r2_traces
        make = self.OUTCOME_FED[config]
        evaluator = RegionEvaluator(profile, seed=1, engine="vector", **make())
        with profiled() as tel:
            first = evaluator.run(traces)
            counters = dict(tel.counters)
        rerun = evaluator.run(traces)
        fresh = RegionEvaluator(
            profile, seed=1, engine="vector", **make()
        ).run(traces)
        _assert_identical(first, rerun, f"{config}/rerun")
        _assert_identical(first, fresh, f"{config}/fresh")
        assert counters["tick/event_dispatches"] == 1


class TestCustomPolicies:
    """User-defined tick policies replay identically on both engines."""

    def test_custom_prewarm_policy_matches_across_engines(self, r2_traces):
        profile, traces = r2_traces
        event = RegionEvaluator(
            profile, seed=3, engine="event",
            prewarm_policy=_RecentTimerPrewarm(),
        ).run(traces)
        vector = RegionEvaluator(
            profile, seed=3, engine="vector",
            prewarm_policy=_RecentTimerPrewarm(),
        ).run(traces)
        _assert_identical(event, vector, "custom-prewarm")
        assert event.prewarm_creations > 0

    @pytest.mark.parametrize("closed_form", [False, True])
    def test_dropped_prewarm_entries_match_across_engines(
        self, r2_traces, closed_form
    ):
        """Entries for unknown function ids and zero targets are dropped
        by both engines, on the stepped and the closed-form path alike,
        even when nothing else is left in the schedule."""
        profile, traces = r2_traces
        known = traces[0].spec.function_id
        results = {}
        for engine in ("event", "vector"):
            with profiled() as tel:
                results[engine] = RegionEvaluator(
                    profile, seed=3, engine=engine,
                    prewarm_policy=_StrayPrewarm(known, closed_form),
                ).run(traces)
                counters = dict(tel.counters)
        _assert_identical(results["event"], results["vector"], "stray")
        assert results["vector"].prewarm_creations == 0
        assert ("tick/horizon_ticks" in counters) == closed_form

    def test_custom_prewarm_observes_every_timer_arrival(self):
        """The tick machine hands observe_batch every arrival — state
        after an event replay proves it."""
        policy = _RecentTimerPrewarm()
        _, traces = build_workload("R3", seed=5, days=1, scale=0.05)
        from repro.workload.regions import region_profile

        RegionEvaluator(
            region_profile("R3"), seed=1, prewarm_policy=policy,
            engine="event",
        ).run(traces)
        timer_fids = {
            t.spec.function_id for t in traces
            if t.spec.is_timer_driven and t.arrivals.size
        }
        assert set(policy.seen) == timer_fids


class TestCliEngine:
    _FAST = ["--regions", "R3", "--days", "1", "--scale", "0.08", "--seed", "5"]

    def test_mitigate_engine_invariant(self, capsys):
        from repro.cli.main import main

        assert main(["mitigate", *self._FAST, "-p", "baseline",
                     "-p", "timer-prewarm", "-p", "peak-shaving",
                     "--engine", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert main(["mitigate", *self._FAST, "-p", "baseline",
                     "-p", "timer-prewarm", "-p", "peak-shaving",
                     "--engine", "event"]) == 0
        event_out = capsys.readouterr().out
        assert vector_out == event_out

    def test_mitigate_stream_engine_invariant(self, capsys):
        from repro.cli.main import main

        base = ["mitigate", "--stream", "--regions", "R1", "--remotes", "R3",
                "--route", "best-region", "--days", "1", "--scale", "0.05",
                "--seed", "5"]
        assert main([*base, "--engine", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert main([*base, "--engine", "event"]) == 0
        event_out = capsys.readouterr().out
        assert vector_out == event_out

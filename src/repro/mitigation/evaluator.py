"""Policy evaluator: vectorized fast path + event-driven reference engine.

Replays generated request streams against a modelled region under a chosen
combination of keep-alive policy, pre-warming policy, and peak shaver, and
reports :class:`~repro.mitigation.base.EvalMetrics`. The production
baseline is ``RegionEvaluator(profile)`` with all defaults (fixed 60 s
keep-alive, no pre-warming, no shaving).

The evaluator is intentionally function-centric: cluster placement does not
change *whether* a cold start happens (only pools do, covered separately in
:mod:`~repro.mitigation.pool_prediction`), so pods are tracked per function
with the same keep-alive semantics as the trace generator.

Two engines share one semantics:

* ``engine="vector"`` (default) — the structure-of-arrays path
  (:mod:`~repro.mitigation.vector_engine`), one driver for every
  configuration whose tick policies decide from arrivals alone
  (:meth:`RegionEvaluator._run_vector`): the per-tick decision schedule
  is fixed before any replay (empty without policies), and every
  function then replays once, independently, through one per-function
  walker — under its schedule slice when a decision touches it, under
  the empty schedule otherwise.
  Policies whose decisions read the replay's own cold starts or pod
  gauge run on the event engine.
* ``engine="event"`` — the sequential reference loop, driving the same
  :class:`~repro.mitigation.base.TickPolicy` machines through the same
  span columns inline.

Both engines price the k-th cold start of a function from the same
per-function :class:`~repro.sim.latency.FunctionColdSampler` draw, look
congestion up in the same exogenous :class:`CongestionProfile`, and feed
policies through the shared :class:`~repro.mitigation.tick.TickMachine`,
assembling metrics in one canonical order — so for every configuration
the vector engine accepts they produce **bit-identical**
:class:`EvalMetrics` (``tests/test_vector_engine.py`` sweeps seeds x
policies x jobs x channels, coupled configurations included).

Congestion model: earlier versions fed the sampled latencies back into a
rolling count of the replay's own cold starts, which coupled every
function to every other through the sample order. Congestion is now an
*exogenous* per-minute profile derived from the workload's keep-alive
lifecycle reconstruction (the same signal the trace generator prices cold
starts with) — the replayed policy subset is a drop in the bucket of the
platform-wide load the congestion term models, and making it exogenous is
what renders the baseline embarrassingly parallel across functions.
"""

from __future__ import annotations

import copy
import heapq
from collections.abc import Sequence

import numpy as np

from repro.cluster.lifecycle import FixedKeepAlive, KeepAlivePolicy
from repro.mitigation.base import (
    EvalMetrics,
    HorizonSchedule,
    PeakShaver,
    PrewarmPolicy,
    ShaveDirective,
    TickPolicy,
)
from repro.mitigation.tick import (
    EMPTY_F,
    EMPTY_I,
    SpanIndex,
    TickMachine,
    canonical_event_order,
    closed_form_schedule,
    last_tick_index,
    tick_indices_of,
    tick_interval,
)
from repro.mitigation.vector_engine import (
    _congestion_values,
    replay_function_coupled,
)
from repro.obs.telemetry import get_telemetry
from repro.sim.latency import LatencyModel
from repro.sim.rng import RngFactory
from repro.workload.catalog import SizeClass
from repro.workload.function import FunctionSpec
from repro.workload.generator import (
    FunctionTrace,
    WorkloadGenerator,
    congestion_per_minute,
)
from repro.workload.regions import REGION_PROFILES, RegionProfile

#: Valid values of the ``engine`` argument.
ENGINES = ("vector", "event")


def _resolve_region(region: str | RegionProfile) -> RegionProfile:
    """Region name → profile, failing with the valid names spelled out.

    A bare ``KeyError`` from a pool worker is useless once it has crossed
    the process boundary; sharded runs wrap this in a
    :class:`~repro.runtime.faults.ShardError` that also names the shard.
    """
    if not isinstance(region, str):
        return region
    try:
        return REGION_PROFILES[region]
    except KeyError:
        raise ValueError(
            f"unknown region {region!r} (choose from "
            f"{sorted(REGION_PROFILES)})"
        ) from None


def build_workload(
    region: str | RegionProfile,
    seed: int = 0,
    days: int = 3,
    scale: float = 0.3,
) -> tuple[RegionProfile, list[FunctionTrace]]:
    """Generate a (profile, traces) workload for policy experiments."""
    profile = _scaled_profile(region, scale)
    generator = WorkloadGenerator(profile, seed=seed, days=days)
    return profile, generator.function_traces()


def _scaled_profile(region: str | RegionProfile, scale: float) -> RegionProfile:
    profile = _resolve_region(region)
    return profile.scaled(scale) if scale != 1.0 else profile


def build_workload_shard(
    region: str | RegionProfile,
    seed: int = 0,
    days: int = 3,
    scale: float = 0.3,
    *,
    functions: Sequence[FunctionSpec],
) -> tuple[RegionProfile, list[FunctionTrace]]:
    """One function-group shard of :func:`build_workload`.

    ``functions`` is the group's slice of the population, as
    :func:`population_groups` splits it (sharded evaluation samples the
    population once for all its shards); traces are generated only for
    those functions. Because arrival streams are addressed per function
    id, each shard's traces are bit-identical to the corresponding subset
    of the unsharded workload, and the union over all groups is exactly
    :func:`build_workload`.
    """
    profile = _scaled_profile(region, scale)
    generator = WorkloadGenerator(profile, seed=seed, days=days)
    return profile, generator.function_traces_for(list(functions))


def population_groups(
    region: str | RegionProfile,
    seed: int = 0,
    days: int = 3,
    scale: float = 0.3,
    n_groups: int = 1,
) -> list[tuple[FunctionSpec, ...]]:
    """The population of :func:`build_workload`, split into the function
    groups of :func:`build_workload_shard` (group ``g`` at index ``g``)."""
    specs = WorkloadGenerator(
        _scaled_profile(region, scale), seed=seed, days=days
    ).population()
    return [tuple(specs[group::n_groups]) for group in range(n_groups)]


class CongestionProfile:
    """Exogenous per-minute cold-start congestion over a workload.

    The same statistic the trace generator feeds its latency model
    (:func:`~repro.workload.generator.congestion_per_minute`): per-minute
    counts of keep-alive lifecycle pod starts, normalised to the mean over
    busy minutes, minus one, clipped to ``[0, 3]``. Quiet minutes are 0
    (baseline latency); busy minutes are > 0. Being derived from the
    *workload* rather than from the replay's own running state, it is
    identical for every engine, policy, and shard schedule over the same
    traces.
    """

    def __init__(self, per_minute: np.ndarray):
        self.per_minute = np.asarray(per_minute, dtype=np.float64)
        if self.per_minute.size == 0:
            self.per_minute = np.zeros(1, dtype=np.float64)

    @classmethod
    def from_traces(
        cls, traces: list[FunctionTrace], horizon_s: float
    ) -> "CongestionProfile":
        columns = (
            getattr(getattr(trace, "lifecycle", None), "pod_start_ts", None)
            for trace in traces
        )
        return cls(congestion_per_minute(
            [np.asarray(starts) for starts in columns if starts is not None],
            int(horizon_s // 60) + 1,
        ))

    def at(self, t: float) -> float:
        """Congestion at time ``t`` (same float ops as the vector lookup)."""
        idx = int(np.float64(t) // 60.0)
        if idx >= self.per_minute.size:
            idx = self.per_minute.size - 1
        return float(self.per_minute[idx])


def _arrival_columns(traces) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-function ``(arrivals, exec_s)`` float64 columns for the vector
    engines; raises ``ValueError`` unless each function's arrivals are
    sorted in time."""
    fn_t = [np.asarray(t.arrivals, dtype=np.float64) for t in traces]
    for arrivals in fn_t:
        if arrivals.size and np.any(np.diff(arrivals) < 0):
            raise ValueError(
                "the vector engine needs per-function arrivals sorted in "
                "time (the generator always produces them sorted); use "
                "engine='event' for unsorted streams"
            )
    return fn_t, [np.asarray(t.exec_s, dtype=np.float64) for t in traces]


#: The pre-warm slice of a function no schedule entry names.
_NO_PREWARM = ((), ())


def _finish(walker, prewarm):
    """Run a paused walker's trailing pre-warm sweep over ``prewarm``, the
    final schedule's slice; returns its outcome."""
    try:
        walker.send((prewarm, np.inf))
    except StopIteration as done:
        return done.value


def _prewarm_by_fn(tick, fid, target, spec_by_id, interval_s) -> dict[int, tuple]:
    """Per-function pre-warm slices of a schedule: ``(tick times, targets)``.

    Takes the schedule's pre-warm entries as arrays in tick order (plan
    order within a tick) and mirrors the event engine's application rule:
    unknown function ids and non-positive targets are dropped; entries
    keep (tick, plan) order. A tick's time is the engine's own
    ``tick * interval_s`` product.
    """
    if not tick.size:
        return {}
    uniq, inverse = np.unique(fid, return_inverse=True)
    fn = np.array(
        [spec_by_id.get(f, -1) for f in uniq.tolist()], dtype=np.int64
    )[inverse]
    keep = (fn >= 0) & (target > 0)
    fn, tick, target = fn[keep], tick[keep], target[keep]
    if not fn.size:
        return {}
    order = np.argsort(fn, kind="stable")
    fn = fn[order]
    tick_t = (tick[order] * interval_s).tolist()
    target = target[order].tolist()
    cut = (np.flatnonzero(fn[1:] != fn[:-1]) + 1).tolist()
    return {
        int(fn[lo]): (tick_t[lo:hi], target[lo:hi])
        for lo, hi in zip([0] + cut, cut + [fn.size])
    }


def _schedule_columns(actions) -> tuple[HorizonSchedule, list | None]:
    """A stepped ``list[TickAction]`` in :class:`HorizonSchedule` form,
    plus its per-tick directive objects (``None`` when no tick shaves).
    Directive types other than :class:`ShaveDirective` have no columns:
    their trigger is ``-inf``, so :func:`_reads_shave` counts them active
    wherever present."""
    n_ticks = len(actions)
    entries = [
        (k, function_id, int(target))
        for k, action in enumerate(actions)
        for function_id, target in action.prewarm
    ]
    prewarm = np.array(entries, dtype=np.int64).reshape(-1, 3)
    directives = [action.shave for action in actions]
    pure = [d if type(d) is ShaveDirective else None for d in directives]
    schedule = HorizonSchedule(
        n_ticks, prewarm[:, 0], prewarm[:, 1], prewarm[:, 2],
        shave_present=np.array(
            [d is not None for d in directives], dtype=bool
        ),
        shave_gauge_active=np.array(
            [
                d is not None and bool(getattr(d, "gauge_active", True))
                for d in directives
            ],
            dtype=bool,
        ),
        shave_trigger=np.array(
            [-np.inf if d is None else d.congestion_trigger for d in pure],
            dtype=np.float64,
        ),
        shave_max_delay=np.array(
            [0.0 if d is None else d.max_delay_s for d in pure],
            dtype=np.float64,
        ),
    )
    return schedule, directives if schedule.shave_present.any() else None


def _reads_shave(schedule, interval_s, congestion):
    """Predicate: does an empty-schedule replay's outcome meet an active
    shave directive?

    A replay consults the shave schedule only at cold-bound original
    arrivals, so an empty-schedule outcome none of whose cold starts falls
    under an *active* directive — the gauge flag set at its tick, or the
    congestion at its minute above the tick's trigger — is also the exact
    replay under the schedule.
    """
    present = schedule.shave_present
    if present is None or not present.any():
        return lambda outcome: False
    gauge_active = schedule.shave_gauge_active
    trigger = schedule.shave_trigger

    def reads(outcome) -> bool:
        cold_t = outcome.cold_times
        if not cold_t.size:
            return False
        k = tick_indices_of(cold_t, interval_s, schedule.n_ticks)
        return bool(np.any(present[k] & (
            gauge_active[k]
            | (_congestion_values(congestion, cold_t) > trigger[k])
        )))

    return reads


def default_horizon(traces) -> float:
    """The replay horizon a run without one closes out at: two minutes
    past the last arrival."""
    return max(
        (float(t.arrivals[-1]) for t in traces if t.arrivals.size), default=0.0
    ) + 120.0


def _read_only(column: np.ndarray) -> np.ndarray:
    """A read-only view of ``column``; the array itself (which a caller
    may own) stays writeable, and slices of the view are read-only too."""
    view = column.view()
    view.flags.writeable = False
    return view


class SharedReplay:
    """The policy-free half of vector replays over one traces list.

    Every vector replay of ``traces`` up to ``horizon_s`` reads the same
    congestion profile, arrival columns and merged arrival order, and a
    function no decision touches replays the same under any policy: its
    empty-schedule replay (its *walk*) is taken once and shared. One
    evaluation shard (:func:`~repro.runtime.executor.run_evaluation_shard`)
    builds one instance for all its §5 policy replays, so each of these is
    paid once per shard; its cross-region replays read the traces
    directly, and a shard with no policy to replay builds none. The
    instance lives as long as its caller holds it.

    A walk also reads what the traces do not fix: the queue patience and
    the function's cold sampler (the evaluator's profile and seed) — its
    *scope* — plus the function's keep-alive and concurrency. Each scope
    gets its own table of walks (:meth:`walks`), keyed by ``(function
    index, keep-alive, concurrency)``, so an evaluator with another seed or
    a policy with its own keep-alive never reads a walk it would not have
    taken. What it holds is read-only: its columns (the congestion
    profile's included) are read-only views, and the stored walks' arrays
    are frozen.
    """

    def __init__(self, traces: list[FunctionTrace], horizon_s: float | None = None):
        self.traces = traces
        self.horizon_s = default_horizon(traces) if horizon_s is None else horizon_s
        self.congestion = CongestionProfile.from_traces(traces, self.horizon_s)
        self.specs = [t.spec for t in traces]
        self.spec_by_id = {s.function_id: i for i, s in enumerate(self.specs)}
        self.function_ids = _read_only(np.array(
            [s.function_id for s in self.specs], dtype=np.int64
        ))
        self.congestion.per_minute = _read_only(self.congestion.per_minute)
        fn_t, fn_e = _arrival_columns(traces)
        sizes = [a.size for a in fn_t]
        all_t = np.concatenate(fn_t) if fn_t else EMPTY_F
        all_fn = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        order = np.argsort(all_t, kind="stable")
        inv = np.empty(order.size, dtype=np.int64)
        inv[order] = np.arange(order.size)
        inv = _read_only(inv)
        bounds = np.cumsum([0] + sizes).tolist()
        #: Per function, its arrival and execution columns (read-only views
        #: of the traces' own arrays), and the merged (global time-order)
        #: position of each arrival.
        self.fn_t = [_read_only(a) for a in fn_t]
        self.fn_e = [_read_only(a) for a in fn_e]
        self.merged_pos = [inv[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        #: Every arrival in merged order, and its function index.
        self.merged_t = _read_only(all_t[order])
        self.merged_fn = _read_only(all_fn[order])
        self._walks: dict[tuple, dict] = {}

    def walks(self, scope: tuple) -> dict:
        """The walks table of one scope: ``(function index, keep-alive,
        concurrency) -> outcome``; store outcomes with :meth:`keep`."""
        return self._walks.setdefault(scope, {})

    @staticmethod
    def keep(table: dict, key: tuple, outcome):
        """Store ``outcome`` under ``key``, its arrays frozen (empty ones
        hold nothing to protect and may be module constants); returns it."""
        for value in vars(outcome).values():
            if isinstance(value, np.ndarray) and value.size:
                value.flags.writeable = False
        table[key] = outcome
        return outcome


class RegionEvaluator:
    """Replays a workload under pluggable mitigation policies."""

    def __init__(
        self,
        profile: RegionProfile,
        keepalive_policy: KeepAlivePolicy | None = None,
        prewarm_policy: PrewarmPolicy | None = None,
        peak_shaver: PeakShaver | None = None,
        seed: int = 0,
        concurrency_override=None,
        queue_patience_s: float = 30.0,
        prewarm_grace_s: float = 150.0,
        engine: str = "vector",
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
        for arg, policy in (
            ("prewarm_policy", prewarm_policy), ("peak_shaver", peak_shaver)
        ):
            if policy is not None and not isinstance(policy, TickPolicy):
                raise TypeError(
                    f"{arg} must implement the TickPolicy protocol "
                    f"(repro.mitigation.base.TickPolicy: observe_batch/"
                    f"decide), got {type(policy).__name__}"
                )
        self.profile = profile
        self.keepalive_policy = keepalive_policy or FixedKeepAlive()
        self.prewarm_policy = prewarm_policy
        self.peak_shaver = peak_shaver
        self.concurrency_override = concurrency_override
        #: A request will queue behind a busy/initialising pod rather than
        #: trigger another cold start when it would run within this wait —
        #: the load balancers track in-flight requests and dispatch queued
        #: work to the pod being started (§2.1).
        self.queue_patience_s = queue_patience_s
        #: Untouched pre-warmed pods survive at least this long, even under
        #: aggressive keep-alive policies (they exist *for* a future
        #: request; releasing them defeats the pre-warming).
        self.prewarm_grace_s = prewarm_grace_s
        self.engine = engine
        self._rngs = RngFactory(seed)
        self._latency = LatencyModel(
            profile.latency, self._rngs.stream(f"eval/{profile.name}")
        )

    # -- shared per-run setup --------------------------------------------------

    def _tick_policies(self) -> list[TickPolicy]:
        """The run's policies, in the order the tick machine steps them."""
        return [
            p for p in (self.prewarm_policy, self.peak_shaver) if p is not None
        ]

    def _sampler_for(self, spec):
        # ``fresh`` (not the memoized ``stream``): every run rebuilds the
        # per-function draw stream from its deterministic path seed, so a
        # reused evaluator replays identically whichever engine (or how
        # many speculative block draws) a prior run consumed.
        return self._latency.function_sampler(
            runtime=spec.runtime,
            is_large=spec.config.size_class is SizeClass.LARGE,
            has_deps=spec.has_dependencies,
            code_size_mb=spec.code_size_mb,
            dep_size_mb=max(spec.dep_size_mb, 0.5),
            rng=self._rngs.fresh(
                f"eval/{self.profile.name}/f{spec.function_id}"
            ),
        )

    def _concurrency(self, spec) -> int:
        if self.concurrency_override:
            return int(self.concurrency_override(spec))
        return int(spec.concurrency)

    # -- main entry ------------------------------------------------------------

    def run(
        self,
        traces: list[FunctionTrace],
        horizon_s: float | None = None,
        name: str = "",
        shared: SharedReplay | None = None,
    ) -> EvalMetrics:
        """Replay ``traces``; returns the metrics of this policy run.

        Policy instances are consumed per run: the event engine steps
        them in place, the vectorized engine steps deep copies, so a rerun
        replays identically (post-run policy state is only defined under
        ``engine="event"`` — see :class:`~repro.mitigation.base.TickPolicy`).
        Under ``engine="vector"``, policies whose decisions read the
        replay's own cold starts or pod gauge run on the event engine.
        ``shared`` is the :class:`SharedReplay` of ``traces`` and the
        horizon that the vector engine reads and adds its walks to; without
        it the run builds a private one.
        """
        if horizon_s is None:
            horizon_s = default_horizon(traces)
        if shared is not None and (
            shared.traces is not traces or shared.horizon_s != horizon_s
        ):
            raise ValueError(
                "shared replay state belongs to another traces list or horizon"
            )
        metrics = EvalMetrics(name=name or self._default_name())
        policies = self._tick_policies()
        if self.engine == "vector":
            policies = copy.deepcopy(policies)
            if all(p.outcome_free_decisions for p in policies):
                self._run_vector(
                    shared or SharedReplay(traces, horizon_s), metrics, policies
                )
                return metrics
            # Decisions fed by outcomes are only known in time order,
            # which is the sequential engine's.
            get_telemetry().count("tick/event_dispatches")
        self._run_event(traces, horizon_s, metrics, policies)
        return metrics

    # -- vectorized engine -----------------------------------------------------

    def _run_vector(
        self, shared: SharedReplay, metrics: EvalMetrics,
        policies: list[TickPolicy],
    ) -> None:
        """Policies that decide from arrivals alone, on the vector engine.

        The tick protocol confines all cross-function coupling to tick
        boundaries: given the decision schedule, every function replays
        independently. These policies' decisions read only arrivals, so
        the schedule is known before any replay — in closed form when
        every policy has one (the empty schedule when there are none),
        else from one tick-machine pass over the arrival spans. A function
        the schedule touches replays once under its slice
        (``replay_function_coupled``); every other one replays under the
        empty schedule through the same walker, read from ``shared`` when
        a policy replayed over the same traces already took it. Under a
        shaver, a function whose empty-schedule outcome meets an active
        directive (``_reads_shave``) replays again under the schedule.
        Delayed re-arrivals can run the clock past the last arrival's
        tick: the schedule then grows to the ticks they reach (decisions
        are causal, so the longer schedule extends the shorter one), and
        the walkers' trailing pre-warm sweeps wait until every function's
        events have fixed the tick count.
        """
        horizon_s = shared.horizon_s
        congestion = shared.congestion
        specs = shared.specs
        spec_by_id = shared.spec_by_id
        function_ids = shared.function_ids
        fn_t, fn_e, merged_pos = shared.fn_t, shared.fn_e, shared.merged_pos
        n_fns = len(specs)
        kas = [self.keepalive_policy.keepalive_for(s, 0.0) for s in specs]
        concs = [self._concurrency(s) for s in specs]
        sync = [s.synchronous for s in specs]
        interval = tick_interval(policies)
        span_index = SpanIndex(shared.merged_t, shared.merged_fn, interval)

        # Ticks fire while events remain, never past the horizon.
        max_ticks = last_tick_index(horizon_s, interval) + 1
        n_ticks = min(
            last_tick_index(float(shared.merged_t[-1]), interval) + 1, max_ticks
        ) if shared.merged_t.size else 0
        closed = closed_form_schedule(
            policies, span_index, specs, function_ids, interval, n_ticks
        )
        machine = (
            None if closed is not None
            else TickMachine(policies, specs, function_ids, interval)
        )
        actions: list = []

        def decide(n: int):
            """The schedule of ticks ``[0, n)`` and its per-tick directives."""
            nonlocal closed
            if machine is None:
                if closed.n_ticks != n:
                    closed = closed_form_schedule(
                        policies, span_index, specs, function_ids, interval, n
                    )
                return closed, closed.shave_directives()
            edges = span_index.edges(n)
            for k in range(len(actions), n):
                arrive_fn, arrive_t = span_index.span(k, edges)
                actions.append(machine.step(
                    k, arrive_fn=arrive_fn, arrive_t=arrive_t, alive_pods=0,
                    congestion=congestion.at(k * interval),
                ))
            return _schedule_columns(actions)

        schedule, shave_schedule = decide(n_ticks)
        reads_shave = _reads_shave(schedule, interval, congestion)
        n_decided = n_ticks
        slices = first_slices = _prewarm_by_fn(
            schedule.prewarm_tick, schedule.prewarm_fid,
            schedule.prewarm_target, spec_by_id, interval,
        )

        def covered_s() -> float:
            return n_decided * interval if n_decided < max_ticks else np.inf

        def walker_of(i: int, prewarm, covered: float, shaves):
            return replay_function_coupled(
                fn_t[i], fn_e[i], merged_pos[i], kas[i], concs[i],
                self.queue_patience_s, self._sampler_for(specs[i]), congestion,
                specs[i], sync[i], self.prewarm_grace_s,
                interval, n_ticks, prewarm, covered, shaves,
            )

        def walk(i: int):
            """Function ``i``'s walker, paused before its trailing sweep."""
            nonlocal n_decided, slices
            walker = walker_of(
                i, slices.get(i, _NO_PREWARM), covered_s(), shave_schedule
            )
            t = next(walker)
            while t != np.inf:
                n_decided = min(last_tick_index(t, interval) + 1, max_ticks)
                grown, _ = decide(n_decided)
                slices = _prewarm_by_fn(
                    grown.prewarm_tick, grown.prewarm_fid,
                    grown.prewarm_target, spec_by_id, interval,
                )
                t = walker.send((slices.get(i, _NO_PREWARM), covered_s()))
            return walker

        outcomes: list = [None] * n_fns
        walkers = {}
        walks = shared.walks((
            self.profile.name, self.profile.latency, self._rngs.seed,
            self.queue_patience_s,
        ))
        for i in range(n_fns):
            if i not in first_slices:
                key = (i, kas[i], concs[i])
                outcome = walks.get(key)
                if outcome is None:
                    alone = walker_of(i, _NO_PREWARM, np.inf, None)
                    next(alone)  # nothing to decide: on to the sweep
                    outcome = shared.keep(walks, key, _finish(alone, _NO_PREWARM))
                outcomes[i] = outcome
                if sync[i] or not reads_shave(outcome):
                    continue
            walkers[i] = walk(i)
        # Every event is replayed, so ``n_decided`` ticks fired. A function
        # whose only pre-warm ticks lie past the last arrival's tick replays
        # now: its events read no decision, so nothing it does moves the
        # clock.
        for i in sorted(slices.keys() - walkers.keys()):
            walkers[i] = walk(i)
        for i, walker in walkers.items():
            outcomes[i] = _finish(walker, slices.get(i, _NO_PREWARM))
        if policies and machine is None and n_decided:
            get_telemetry().count("tick/horizon_ticks", n_decided)
        n_fired, gauge = self._pod_gauge(outcomes, horizon_s, interval)
        self._assemble(outcomes, n_fired, gauge, interval, horizon_s, metrics)

    @staticmethod
    def _pod_gauge(outcomes, horizon_s: float, interval_s: float):
        """Tick count and alive-pod gauge implied by the outcomes.

        Ticks fire while replay events (arrivals *and* delayed
        re-arrivals) remain, never past the horizon, and a pod is counted
        at every tick strictly inside ``(created, death)``.
        """
        t_last = max(
            (o.last_event_t for o in outcomes), default=-np.inf
        )
        if not np.isfinite(t_last) or t_last < 0.0:
            return 0, EMPTY_F
        n_ticks = last_tick_index(min(t_last, horizon_s), interval_s) + 1
        if n_ticks <= 0:
            return 0, EMPTY_F
        grid = np.arange(n_ticks) * interval_s
        all_created = np.concatenate(
            [o.pod_created for o in outcomes]
        ) if outcomes else EMPTY_F
        all_death = np.concatenate(
            [o.pod_death for o in outcomes]
        ) if outcomes else EMPTY_F
        lo = np.searchsorted(grid, all_created, side="right")
        hi = np.searchsorted(grid, all_death, side="left")
        mask = hi > lo
        delta = np.bincount(
            lo[mask], minlength=n_ticks + 1
        ) - np.bincount(hi[mask].clip(max=n_ticks), minlength=n_ticks + 1)
        return n_ticks, np.cumsum(delta[:n_ticks])

    def _assemble(
        self, outcomes, n_ticks, gauge, interval, horizon_s, metrics
    ) -> None:
        """Fold per-function outcomes into canonical metrics.

        Every batched float accumulation runs in the event engine's
        processing order: cold sketches by (time, original-before-delayed,
        merged position), delay totals by the delaying arrival's merged
        position, pod credits in (trace, creation) order with the shared
        expiry/closeout rule.
        """
        metrics.requests = sum(o.requests for o in outcomes)
        metrics.warm_hits = sum(o.warm_hits for o in outcomes)
        metrics.prewarm_hits = sum(o.prewarm_hits for o in outcomes)
        metrics.prewarm_creations = sum(o.prewarm_creations for o in outcomes)
        metrics.delayed_requests = int(sum(o.delay_s.size for o in outcomes))
        delay_s = np.concatenate([o.delay_s for o in outcomes]) if outcomes else EMPTY_F
        if delay_s.size:
            delay_pos = np.concatenate([o.delay_pos for o in outcomes])
            metrics.total_delay_s = float(
                np.sum(delay_s[np.argsort(delay_pos, kind="stable")])
            )
        cold_t = np.concatenate([o.cold_times for o in outcomes]) if outcomes else EMPTY_F
        cold_w = np.concatenate([o.cold_waits for o in outcomes]) if outcomes else EMPTY_F
        cold_delayed = (
            np.concatenate([o.cold_delayed for o in outcomes])
            if outcomes else np.zeros(0, dtype=bool)
        )
        cold_tie = (
            np.concatenate([o.cold_tiebreak for o in outcomes])
            if outcomes else EMPTY_I
        )
        cold_order = canonical_event_order(cold_t, cold_delayed, cold_tie)
        metrics.record_cold_batch(cold_w[cold_order], cold_t[cold_order])
        if n_ticks > 0:
            metrics.record_tick_batch(gauge)
        last_tick_time = (n_ticks - 1) * interval if n_ticks else -np.inf
        credit_parts = []
        prewarm_parts = []
        for o in outcomes:
            if not o.pod_created.size:
                continue
            expiry_seen = max(o.last_event_t, last_tick_time)
            credits = np.where(
                o.pod_death <= expiry_seen,
                np.minimum(o.pod_death, horizon_s) - o.pod_created,
                horizon_s - o.pod_created,
            )
            credits = np.maximum(credits, 0.0)
            credit_parts.append(credits)
            if o.pod_prewarmed.any():
                prewarm_parts.append(credits[o.pod_prewarmed])
        metrics.pod_seconds = (
            float(np.sum(np.concatenate(credit_parts))) if credit_parts else 0.0
        )
        metrics.prewarm_pod_seconds = (
            float(np.sum(np.concatenate(prewarm_parts))) if prewarm_parts else 0.0
        )

    # -- event-driven reference engine -----------------------------------------

    def _run_event(
        self, traces: list[FunctionTrace], horizon_s: float, metrics: EvalMetrics,
        policies: list[TickPolicy],
    ) -> None:
        congestion = CongestionProfile.from_traces(traces, horizon_s)
        specs = [t.spec for t in traces]
        spec_by_id = {s.function_id: i for i, s in enumerate(specs)}
        function_ids = np.array(
            [s.function_id for s in specs], dtype=np.int64
        )
        n_fns = len(specs)
        kas = [self.keepalive_policy.keepalive_for(s, 0.0) for s in specs]
        concs = [self._concurrency(s) for s in specs]
        samplers = [self._sampler_for(s) for s in specs]

        all_t = np.concatenate([t.arrivals for t in traces]) if traces else np.zeros(0)
        all_fn = np.concatenate(
            [np.full(t.arrivals.size, i, dtype=np.int64) for i, t in enumerate(traces)]
        ) if traces else np.zeros(0, dtype=np.int64)
        all_exec = np.concatenate([t.exec_s for t in traces]) if traces else np.zeros(0)
        order = np.argsort(all_t, kind="stable")
        all_t, all_fn, all_exec = all_t[order], all_fn[order], all_exec[order]

        # Structure-of-arrays pod tables, one column set per function:
        # parallel lists indexed by pod ordinal (creation order). ``alive``
        # holds the ordinals not yet expired; aliveness is the death-time
        # rule ``now < last_act + ka_eff`` (last_act bounds every slot end,
        # so a pod with in-flight work always passes).
        created: list[list[float]] = [[] for _ in range(n_fns)]
        ready: list[list[float]] = [[] for _ in range(n_fns)]
        last_act: list[list[float]] = [[] for _ in range(n_fns)]
        ends: list[list[list[float]]] = [[] for _ in range(n_fns)]
        prewarmed: list[list[bool]] = [[] for _ in range(n_fns)]
        touched: list[list[bool]] = [[] for _ in range(n_fns)]
        credit: list[list[float]] = [[] for _ in range(n_fns)]
        alive: list[list[int]] = [[] for _ in range(n_fns)]
        active_fns: set[int] = set()

        cold_t: list[float] = []
        cold_w: list[float] = []
        delayed: list[tuple[float, int, int, float]] = []  # (time, seq, fn, exec)
        seq = 0
        n_sweeps = 0
        grace = self.prewarm_grace_s

        # Tick-phase policy protocol: the machine observes each span's
        # arrival/outcome columns at the tick and decides the next span's
        # actions; within a span the current action is the whole coupling
        # surface (the property the vectorized engine replays exactly).
        interval = tick_interval(policies)
        machine = (
            TickMachine(policies, specs, function_ids, interval)
            if policies else None
        )
        current_shave = None
        delayed_counts = [0] * n_fns
        delay_values: list[float] = []
        span_cold_fn: list[int] = []
        span_cold_t: list[float] = []
        span_cold_w: list[float] = []
        span_edge = 0

        def pod_ka(fn: int, p: int) -> float:
            ka = kas[fn]
            if prewarmed[fn][p] and not touched[fn][p]:
                return ka if ka > grace else grace
            return ka

        def new_pod(
            fn: int, created_at: float, ready_at: float, last: float,
            pod_ends: list[float], is_prewarmed: bool,
        ) -> None:
            """Append one pod across every SoA column, in lockstep."""
            p = len(created[fn])
            created[fn].append(created_at)
            ready[fn].append(ready_at)
            last_act[fn].append(last)
            ends[fn].append(pod_ends)
            prewarmed[fn].append(is_prewarmed)
            touched[fn].append(not is_prewarmed)
            credit[fn].append(-1.0)
            alive[fn].append(p)
            active_fns.add(fn)

        def expire(fn: int, now: float) -> None:
            nonlocal n_sweeps
            n_sweeps += 1
            still = []
            fn_created = created[fn]
            fn_credit = credit[fn]
            fn_last = last_act[fn]
            for p in alive[fn]:
                death = fn_last[p] + pod_ka(fn, p)
                if now >= death:
                    if death > horizon_s:
                        death = horizon_s
                    value = death - fn_created[p]
                    fn_credit[p] = value if value > 0.0 else 0.0
                else:
                    still.append(p)
            alive[fn] = still
            if not still:
                active_fns.discard(fn)

        def handle_request(fn: int, now: float, exec_s: float, was_delayed: bool) -> None:
            nonlocal seq
            spec = specs[fn]
            metrics.requests += 1
            expire(fn, now)
            conc = concs[fn]
            fn_ready = ready[fn]
            fn_ends = ends[fn]
            fn_last = last_act[fn]
            best = -1
            best_start = np.inf
            for p in alive[fn]:
                pod_ends = [x for x in fn_ends[p] if x > now]
                fn_ends[p] = pod_ends
                if len(pod_ends) < conc:
                    start = now if now >= fn_ready[p] else fn_ready[p]
                else:
                    start = min(pod_ends)
                    if start < fn_ready[p]:
                        start = fn_ready[p]
                    if start - now > self.queue_patience_s:
                        continue
                # Earliest feasible start wins; ties go to the earliest
                # created pod (iteration order) — the shared rule both
                # engines implement.
                if start < best_start:
                    best, best_start = p, start
            if best >= 0:
                if prewarmed[fn][best] and not touched[fn][best]:
                    metrics.prewarm_hits += 1
                touched[fn][best] = True
                pod_ends = fn_ends[best]
                if len(pod_ends) >= conc:
                    pod_ends.remove(min(pod_ends))
                end = best_start + exec_s
                pod_ends.append(end)
                if end > fn_last[best]:
                    fn_last[best] = end
                metrics.warm_hits += 1
                return
            # Cold-bound: maybe shave the peak instead. The directive was
            # frozen at the tick; the stampede trigger reads the exogenous
            # profile at the arrival's own minute.
            if (
                current_shave is not None
                and not was_delayed
                and not spec.synchronous
            ):
                delay = current_shave.delay_for(
                    spec, now, congestion.at(now), delayed_counts[fn]
                )
                if delay > 0:
                    delayed_counts[fn] += 1
                    metrics.delayed_requests += 1
                    delay_values.append(delay)
                    metrics.requests -= 1  # re-counted when it re-arrives
                    heapq.heappush(delayed, (now + delay, seq, fn, exec_s))
                    seq += 1
                    return
            cold = samplers[fn].next_total(congestion.at(now))
            cold_t.append(now)
            cold_w.append(cold)
            if machine is not None:
                span_cold_fn.append(fn)
                span_cold_t.append(now)
                span_cold_w.append(cold)
            end = now + cold + exec_s
            new_pod(fn, now, now + cold, end, [end], is_prewarmed=False)

        def do_tick(tick: int) -> None:
            nonlocal current_shave, span_edge
            now = tick * interval
            n_alive = 0
            for fn in list(active_fns):
                expire(fn, now)
                n_alive += len(alive[fn])
            metrics.record_tick(n_alive)
            if machine is None:
                return
            hi = int(np.searchsorted(all_t, now, side="left"))
            n_cold = len(span_cold_fn)
            action = machine.step(
                tick,
                arrive_fn=all_fn[span_edge:hi],
                arrive_t=all_t[span_edge:hi],
                alive_pods=n_alive,
                congestion=congestion.at(now),
                cold_fn=np.asarray(span_cold_fn, dtype=np.int64),
                cold_t=np.asarray(span_cold_t, dtype=np.float64),
                cold_wait=np.asarray(span_cold_w, dtype=np.float64),
                cold_region=np.zeros(n_cold, dtype=np.int64),
            )
            span_edge = hi
            span_cold_fn.clear()
            span_cold_t.clear()
            span_cold_w.clear()
            current_shave = action.shave
            for function_id, target in action.prewarm:
                fn = spec_by_id.get(function_id)
                if fn is None or target <= 0:
                    continue
                idle = 0
                for p in alive[fn]:
                    if ready[fn][p] <= now:
                        pod_ends = [x for x in ends[fn][p] if x > now]
                        ends[fn][p] = pod_ends
                        if not pod_ends:
                            idle += 1
                for _ in range(target - idle):
                    metrics.prewarm_creations += 1
                    new_pod(fn, now, now, now, [], is_prewarmed=True)

        # Merge arrivals, delayed re-arrivals, and ticks on the exact
        # ``k * interval`` grid (a tick ties with an event fire first).
        ai = 0
        n = all_t.size
        next_tick = 0
        while ai < n or delayed:
            t_arrival = all_t[ai] if ai < n else np.inf
            t_delayed = delayed[0][0] if delayed else np.inf
            t_event = min(t_arrival, t_delayed)
            while next_tick * interval <= t_event and next_tick * interval <= horizon_s:
                do_tick(next_tick)
                next_tick += 1
            if t_delayed < t_arrival:
                t, _seq, fn, exec_s = heapq.heappop(delayed)
                handle_request(fn, float(t), float(exec_s), was_delayed=True)
            else:
                handle_request(
                    int(all_fn[ai]), float(all_t[ai]), float(all_exec[ai]),
                    was_delayed=False,
                )
                ai += 1
        metrics.total_delay_s = (
            float(np.sum(np.asarray(delay_values, dtype=np.float64)))
            if delay_values else 0.0
        )
        tel = get_telemetry()
        if tel.enabled:
            tel.count_many((
                ("event/ticks", next_tick),
                ("event/expiry_sweeps", n_sweeps),
            ))

        # Cold-start sketches in one canonical batch (same arrays, same
        # float accumulation order as the vector engine's sorted batch).
        metrics.record_cold_batch(
            np.asarray(cold_w, dtype=np.float64), np.asarray(cold_t, dtype=np.float64)
        )

        # Close out: pods never caught by an expiry check are credited to
        # the horizon; then sum every credit in canonical (trace, creation)
        # order so the float total matches the vector engine exactly.
        credit_parts = []
        prewarm_parts = []
        for fn in range(n_fns):
            if not created[fn]:
                continue
            values = np.asarray(credit[fn], dtype=np.float64)
            open_mask = values < 0.0
            if open_mask.any():
                closeout = horizon_s - np.asarray(created[fn], dtype=np.float64)
                values = np.where(open_mask, np.maximum(closeout, 0.0), values)
            credit_parts.append(values)
            if any(prewarmed[fn]):
                prewarm_parts.append(values[np.asarray(prewarmed[fn], dtype=bool)])
        metrics.pod_seconds = (
            float(np.sum(np.concatenate(credit_parts))) if credit_parts else 0.0
        )
        metrics.prewarm_pod_seconds = (
            float(np.sum(np.concatenate(prewarm_parts))) if prewarm_parts else 0.0
        )

    def _default_name(self) -> str:
        parts = [self.keepalive_policy.describe()]
        parts.extend(p.describe() for p in self._tick_policies())
        return "+".join(parts)

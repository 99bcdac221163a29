"""Cross-region workload scheduling (paper §5).

"The most popular regions consistently have much longer average, median,
and tail cold-start times ... the latency between regions can be
insignificant compared to the longer cold starts and execution times in
the more popular regions."

The evaluator replays one region's workload over several regions. Warm
requests stay wherever their pod lives; when a request is cold-bound, the
routing policy may place the new pod in a remote region, paying the
inter-region network latency but enjoying that region's (possibly much
faster) cold-start regime. The baseline pins everything to the home region.

Routing is a coupled policy on the tick protocol
(:class:`BestRegionRouter`): per-region EMAs of observed cold-start
durations update at tick boundaries from the span's outcome columns, and
the placement decision is frozen per span. Cold-start durations are drawn
from per-(function, region) :class:`~repro.sim.latency.FunctionColdSampler`
streams — the k-th cold start of a function *in a region* prices
identically however cold starts of different functions interleave — so a
function's replay couples to the others only through the directives its
cold starts read. ``engine="event"`` is the sequential reference;
``engine="vector"`` runs per-function walkers (steady warm chains jump
wholesale, cold runs price in blocks) and merges their cold starts in
event order, so the router decides each tick from exactly the colds the
event loop would have shown it — one pass, bit-identical. Pod
bookkeeping is shared per-(function, region) slot columns with
death-time expiry — no per-arrival region-list identity scans.
"""

from __future__ import annotations

import enum
import heapq
import math
import time
from bisect import bisect_left

import numpy as np

from repro.mitigation.base import (
    EvalMetrics,
    RouteDirective,
    TickAction,
    TickColumns,
    TickPolicy,
)
from repro.mitigation.tick import (
    EMPTY_F,
    TickMachine,
    last_tick_index,
    tick_interval,
)
from repro.obs.telemetry import get_telemetry
from repro.sim.latency import LatencyModel, LatencyRegime
from repro.sim.rng import RngFactory
from repro.workload.catalog import SizeClass
from repro.workload.generator import FunctionTrace
from repro.workload.regions import RegionProfile

from repro.mitigation.evaluator import ENGINES as _ENGINES, _arrival_columns
from repro.mitigation.vector_engine import _SPEC_MIN_RUN

DEFAULT_INTER_REGION_RTT_S = 0.120  # round trip, tens-to-hundreds of ms

#: Upper bound on cold starts priced per batched slot-exhaustion sweep.
_COLD_BLOCK_CAP = 1024


class RoutingPolicy(str, enum.Enum):
    """Where cold-bound requests may start their pod."""

    HOME_ONLY = "home-only"
    BEST_REGION = "best-region"


def _ema_seed(regime: LatencyRegime) -> float:
    """Rough cold-start baseline seeding a region's EMA before any sample."""
    return (
        regime.alloc_median_s
        + regime.code_median_s
        + regime.dep_median_s * 0.5
        + regime.sched_median_s
    )


class BestRegionRouter(TickPolicy):
    """Tick-phase EMA routing: place the next span's cold starts where the
    expected cold start plus network penalty is lowest.

    The per-region EMA updates once per tick from the span's observed raw
    cold-start durations (in the engines' canonical event order), and the
    decision holds for the whole next span — the tick-phase restatement of
    the per-cold EMA the pre-tick evaluator kept, and what makes routing
    replayable by the vectorized engine.
    """

    needs = frozenset({"colds"})

    #: a remote region must beat home by this factor before a cold start is
    #: routed away (hysteresis against marginal, latency-costly moves).
    improvement_gate: float = 0.85

    #: EMA smoothing per observed cold start.
    alpha: float = 0.05

    def __init__(self, ema_seeds: list[float], rtt_s: float):
        self.emas = [float(x) for x in ema_seeds]
        self.rtt_s = float(rtt_s)
        # One immutable action per region: a step picks one, builds none.
        self._actions = [
            TickAction(route=RouteDirective(
                region=ridx, penalty_s=self.rtt_s if ridx else 0.0
            ))
            for ridx in range(len(self.emas))
        ]

    def observe_batch(self, cols: TickColumns) -> None:
        if cols.cold_wait.size:
            self.observe_colds(
                cols.cold_region.tolist(), cols.cold_wait.tolist()
            )

    def observe_colds(self, regions, waits) -> None:
        """Fold cold starts into the EMAs: placement region indices and
        raw cold-start durations, in the engines' canonical event order."""
        emas = self.emas
        alpha = self.alpha
        for ridx, wait in zip(regions, waits):
            emas[ridx] += alpha * (wait - emas[ridx])

    def decide(self, tick: int, now: float) -> TickAction:
        emas = self.emas
        best = 0
        best_cost = emas[0] * self.improvement_gate
        for ridx in range(1, len(emas)):
            cost = emas[ridx] + self.rtt_s
            if cost < best_cost:
                best, best_cost = ridx, cost
        return self._actions[best]

    def describe(self) -> str:
        return "best-region"


class CrossRegionEvaluator:
    """Replays a workload with optional cross-region cold-start routing."""

    def __init__(
        self,
        home: str | RegionProfile = "R1",
        remotes: tuple[str, ...] = ("R3",),
        rtt_s: float = DEFAULT_INTER_REGION_RTT_S,
        seed: int = 0,
        engine: str = "vector",
    ):
        if rtt_s < 0:
            raise ValueError("rtt_s must be non-negative")
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r} (choose from {_ENGINES})")
        self._rngs = RngFactory(seed)
        from repro.mitigation.evaluator import _resolve_region

        home_profile = _resolve_region(home)
        self.profiles: list[RegionProfile] = [home_profile] + [
            _resolve_region(r) for r in remotes
        ]
        self.region_names = [p.name for p in self.profiles]
        self.rtt_s = rtt_s
        self.engine = engine
        self._models = [
            LatencyModel(p.latency, self._rngs.stream(f"xr/{p.name}"))
            for p in self.profiles
        ]

    @property
    def home(self) -> RegionProfile:
        return self.profiles[0]

    def _router(self, policy: RoutingPolicy) -> BestRegionRouter | None:
        if policy is RoutingPolicy.HOME_ONLY:
            return None
        return BestRegionRouter(
            [_ema_seed(p.latency) for p in self.profiles], self.rtt_s
        )

    def _sampler(self, spec, ridx: int):
        """The (function, region) cold-start stream.

        Streams are addressed by name, so the k-th cold start of function
        ``f`` in region ``r`` prices identically in both engines and under
        any routing history of *other* functions. ``fresh`` (not the
        memoized ``stream``) makes every ``run`` start from the
        deterministic path seed — a reused evaluator replays identically
        whichever engine (or how many speculative draws) a prior run used.
        """
        profile = self.profiles[ridx]
        return self._models[ridx].function_sampler(
            runtime=spec.runtime,
            is_large=spec.config.size_class is SizeClass.LARGE,
            has_deps=spec.has_dependencies,
            code_size_mb=spec.code_size_mb,
            dep_size_mb=max(spec.dep_size_mb, 0.5),
            rng=self._rngs.fresh(f"xr/{profile.name}/f{spec.function_id}"),
        )

    # -- main entry ------------------------------------------------------------

    def run(
        self,
        traces: list[FunctionTrace],
        policy: RoutingPolicy = RoutingPolicy.HOME_ONLY,
        keepalive_s: float = 60.0,
    ) -> EvalMetrics:
        """Replay; request latency = cold wait + network penalty (if routed).

        Warm-pod bookkeeping is per (function, region): a function routed
        to R3 keeps its warm pod there, so follow-up requests within the
        keep-alive stay remote and pay only the RTT. Per-region placement
        counts land on ``metrics.cold_starts_by_region`` (merge-safe), so
        routing shares are pure functions of the returned metrics.
        """
        policy = RoutingPolicy(policy)
        metrics = EvalMetrics(name=f"xregion:{policy.value}")
        for name in self.region_names:
            metrics.cold_starts_by_region.setdefault(name, 0)
        if not traces:
            return metrics
        with get_telemetry().span(
            f"xregion/route/{policy.value}[{self.engine}]"
        ):
            if self.engine == "vector":
                self._run_vector(traces, policy, keepalive_s, metrics)
            else:
                self._run_event(traces, policy, keepalive_s, metrics)
        return metrics

    def remote_share(self, metrics: EvalMetrics) -> float:
        """Fraction of cold starts placed away from home — read directly
        off the metrics (pure; works on merged shard results too)."""
        return metrics.remote_cold_share(self.region_names[0])

    # -- event-driven reference engine -----------------------------------------

    def _run_event(
        self, traces, policy: RoutingPolicy, keepalive_s: float, metrics: EvalMetrics
    ) -> None:
        specs = [t.spec for t in traces]
        function_ids = np.array([s.function_id for s in specs], dtype=np.int64)
        n_regions = len(self.profiles)
        samplers = [
            [self._sampler(spec, ridx) for ridx in range(n_regions)]
            for spec in specs
        ]

        merged_t = np.concatenate([t.arrivals for t in traces])
        merged_fn = np.concatenate(
            [np.full(t.arrivals.size, i, dtype=np.int64) for i, t in enumerate(traces)]
        )
        merged_exec = np.concatenate([t.exec_s for t in traces])
        order = np.argsort(merged_t, kind="stable")
        merged_t, merged_fn, merged_exec = (
            merged_t[order], merged_fn[order], merged_exec[order],
        )

        router = self._router(policy)
        interval = tick_interval([router]) if router else 60.0
        machine = (
            TickMachine([router], specs, function_ids, interval)
            if router else None
        )
        current_route = RouteDirective(region=0, penalty_s=0.0)

        # Per (function, region): pod columns [warm_until, busy_until] in
        # creation order; expiry is the death-time rule (warm_until <= t).
        pods: list[list[list[list[float]]]] = [
            [[] for _ in range(n_regions)] for _ in traces
        ]
        cold_t: list[float] = []
        cold_w: list[float] = []
        latency: list[float] = []
        region_counts = [0] * n_regions
        span_cold_fn: list[int] = []
        span_cold_t: list[float] = []
        span_cold_w: list[float] = []
        span_cold_r: list[int] = []
        span_edge = 0

        def do_tick(tick: int) -> None:
            nonlocal current_route, span_edge
            now = tick * interval
            hi = int(np.searchsorted(merged_t, now, side="left"))
            action = machine.step(
                tick,
                arrive_fn=merged_fn[span_edge:hi],
                arrive_t=merged_t[span_edge:hi],
                alive_pods=0,
                congestion=0.0,
                cold_fn=np.asarray(span_cold_fn, dtype=np.int64),
                cold_t=np.asarray(span_cold_t, dtype=np.float64),
                cold_wait=np.asarray(span_cold_w, dtype=np.float64),
                cold_region=np.asarray(span_cold_r, dtype=np.int64),
            )
            span_edge = hi
            span_cold_fn.clear()
            span_cold_t.clear()
            span_cold_w.clear()
            span_cold_r.clear()
            if action.route is not None:
                current_route = action.route

        ai = 0
        n = merged_t.size
        next_tick = 0
        while ai < n:
            t = float(merged_t[ai])
            if machine is not None:
                while next_tick * interval <= t:
                    do_tick(next_tick)
                    next_tick += 1
            fn = int(merged_fn[ai])
            exec_s = float(merged_exec[ai])
            ai += 1
            metrics.requests += 1
            fn_pods = pods[fn]
            served = False
            for ridx in range(n_regions):
                region_pods = fn_pods[ridx]
                if not region_pods:
                    continue
                region_pods[:] = [p for p in region_pods if p[0] > t]
                for pod in region_pods:
                    if pod[1] <= t:
                        pod[1] = t + exec_s
                        pod[0] = pod[1] + keepalive_s
                        metrics.warm_hits += 1
                        if ridx > 0:
                            latency.append(self.rtt_s)
                        served = True
                        break
                if served:
                    break
            if served:
                continue
            ridx, penalty = current_route.region, current_route.penalty_s
            wait = samplers[fn][ridx].next_total(0.0)
            cold_t.append(t)
            cold_w.append(wait + penalty)
            if penalty:
                latency.append(penalty)
            region_counts[ridx] += 1
            if machine is not None:
                span_cold_fn.append(fn)
                span_cold_t.append(t)
                span_cold_w.append(wait)
                span_cold_r.append(ridx)
            end = t + wait + exec_s
            fn_pods[ridx].append([end + keepalive_s, end])

        metrics.record_cold_batch(
            np.asarray(cold_w, dtype=np.float64), np.asarray(cold_t, dtype=np.float64)
        )
        metrics.total_delay_s = (
            float(np.sum(np.asarray(latency, dtype=np.float64))) if latency else 0.0
        )
        for name, count in zip(self.region_names, region_counts):
            metrics.record_region_cold(name, count)

    # -- vectorized engine ----------------------------------------------------

    def _run_vector(
        self, traces, policy: RoutingPolicy, keepalive_s: float, metrics: EvalMetrics
    ) -> None:
        specs = [t.spec for t in traces]
        n_regions = len(self.profiles)
        fn_t, fn_e = _arrival_columns(traces)

        all_t = np.concatenate(fn_t)
        order = np.argsort(all_t, kind="stable")
        inv = np.empty(order.size, dtype=np.int64)
        inv[order] = np.arange(order.size)

        router = self._router(policy)
        sink = _ColdSink()
        walkers = []
        offset = 0
        for i, spec in enumerate(specs):
            size = fn_t[i].size
            walkers.append(_replay_fn_cross_region(
                fn_t[i], fn_e[i], inv[offset:offset + size], keepalive_s,
                [self._sampler(spec, ridx) for ridx in range(n_regions)],
                self.rtt_s, router is not None, sink,
            ))
            offset += size
        if router is None:
            for walker in walkers:
                next(walker, None)  # unrouted walkers run to the end
        else:
            _route_in_time_order(walkers, router, sink)

        # Canonical assembly (the event loop's processing order).
        metrics.requests = int(all_t.size)
        cold_order = np.argsort(
            np.asarray(sink.pos, dtype=np.int64), kind="stable"
        )
        metrics.warm_hits = metrics.requests - int(cold_order.size)
        metrics.record_cold_batch(
            np.asarray(sink.w, dtype=np.float64)[cold_order],
            np.asarray(sink.t, dtype=np.float64)[cold_order],
        )
        lat_v = np.concatenate(sink.lat_v) if sink.lat_v else EMPTY_F
        if lat_v.size:
            lat_pos = np.concatenate(sink.lat_p)
            metrics.total_delay_s = float(
                np.sum(lat_v[np.argsort(lat_pos, kind="stable")])
            )
        region_counts = np.bincount(
            np.asarray(sink.region, dtype=np.int64), minlength=n_regions
        )
        for name, count in zip(self.region_names, region_counts.tolist()):
            metrics.record_region_cold(name, count)


class _ColdSink:
    """Cold starts emitted by every walker of one vector replay, in
    emission order (the router reads the unseen tail; assembly re-sorts
    all of it by merged position). Latency entries arrive per walker."""

    __slots__ = ("t", "w", "raw", "region", "pos", "lat_v", "lat_p")

    def __init__(self):
        self.t: list[float] = []
        self.w: list[float] = []
        self.raw: list[float] = []
        self.region: list[int] = []
        self.pos: list[int] = []
        self.lat_v: list[np.ndarray] = []
        self.lat_p: list[np.ndarray] = []


def _route_in_time_order(walkers, router: BestRegionRouter, sink: _ColdSink) -> None:
    """Drive routed walkers as one time-ordered merge of their cold starts.

    Each walker yields its pending cold start as ``(t, merged_pos)`` and
    waits for the route directive that governs it; a heap always resumes
    the walker whose pending cold comes first in the event loop's order.
    When that cold falls in tick ``k``, every cold before ``k * interval``
    has already been emitted: the other walkers' pending colds sort after
    it, and a walker's later colds never precede its pending one. Before
    tick ``k``'s directive is read, the router folds every cold it has not
    seen yet straight from the sink, in merged order
    (:meth:`BestRegionRouter.observe_colds`) — so it has folded exactly
    the colds the event loop would have shown it, and each directive is
    the event engine's: exact by causality rather than by iteration. A
    walker prices colds under a directive only up to the tick edge sent
    with it and yields again at its first cold past that edge, so no cold
    it emits belongs to a later tick than the one decided.

    Ticks no cold falls in are not stepped. That is exact for the router:
    it decides from its EMAs alone, and they move only on observed colds
    (the skipped ticks' colds reach it, in the same order, at the next
    step). Each step decides: the first from the seeded EMAs, which may
    route away before any cold is seen, and every later one after folding
    at least the cold that triggered the step before it. The router reads
    no arrival columns (``needs``), so none are built. Profiled runs count
    the steps on ``tick/steps`` and time the router's own calls
    (``observe_colds`` and ``decide``, not the gather from the sink) on its
    ``tick/policy`` timer, as the event engine's tick machine does.
    """
    interval = tick_interval([router])
    heap = []
    for i, walker in enumerate(walkers):
        pending = next(walker, None)
        if pending is not None:
            heap.append((*pending, i))
    heapq.heapify(heap)

    s_raw, s_r, s_pos = sink.raw, sink.region, sink.pos
    tel = get_telemetry()
    timed = tel.enabled
    spent = 0.0
    steps = 0
    route = RouteDirective(region=0, penalty_s=0.0)  # before tick 0 fires
    reply = None
    edge = -math.inf
    fed = 0
    while heap:
        t, _, i = heap[0]
        if t >= edge:
            k = last_tick_index(t, interval)
            edge = (k + 1) * interval
            if k >= 0:
                new = len(s_pos) - fed
                if new == 1:  # the common step: one cold since the last
                    regions, waits = (s_r[fed],), (s_raw[fed],)
                else:
                    seen = sorted(range(fed, fed + new), key=s_pos.__getitem__)
                    regions = [s_r[j] for j in seen]
                    waits = [s_raw[j] for j in seen]
                fed += new
                t0 = time.perf_counter() if timed else 0.0
                router.observe_colds(regions, waits)
                route = router.decide(k, k * interval).route
                steps += 1
                if timed:
                    spent += time.perf_counter() - t0
            reply = (route.region, route.penalty_s, edge)
        try:
            pending = walkers[i].send(reply)
        except StopIteration:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (*pending, i))
    if timed and steps:
        tel.count("tick/steps", steps)
        tel.time_add(f"tick/policy/{type(router).__name__}_s", spent)


def _replay_fn_cross_region(
    t: np.ndarray,
    e: np.ndarray,
    merged_pos: np.ndarray,
    keepalive_s: float,
    samplers,
    rtt_s: float,
    routed: bool,
    sink: _ColdSink,
):
    """Exact per-function cross-region replay, resumable at cold starts.

    Scalar port of the event loop's per-request logic for one function
    — same region-order warm search, same creation-order pod scan,
    same float updates — with wholesale regimes replacing per-arrival
    stepping wherever the trajectory is forced:

    * *steady chains*: when the first alive pod in scan order is idle it
      must serve (earlier pods are dead forever, later pods are never
      reached), so the warm chain is consumed to the next deviation
      candidate whatever other pods exist;
    * *two-/three-lane walks*: one or two alive-but-busy pods precede the
      server in scan order, and the arrivals are stepped with just those
      lane states until a lane would die or every lane is busy;
    * *cold blocks*: a run of arrivals is provably all-cold when every
      existing pod is busy or dead at each arrival (a searchsorted sweep
      over the creation-sorted busy/warm columns — slot exhaustion) and
      every pod the block itself creates is still busy (prefix-min of
      the new busy ends) or already dead (prefix-max of the new warm
      ends) at each later arrival. The run is then priced in one batched
      slice of the sampler's zero-congestion totals column under one
      route directive, accepting the longest valid prefix, when at least
      ``_SPEC_MIN_RUN`` arrivals fall before the tick edge. This covers
      both sparse stretches (every pod dies between arrivals) and
      saturated bursts (arrivals outpace pod turnaround).

    A generator: when ``routed``, its first cold start at or past
    ``t_cap`` yields ``(t, merged_pos)`` and receives
    ``(region, penalty_s, t_cap)`` — the directive governing that tick
    and the tick's end. Later colds before ``t_cap`` reuse it (a cold
    block stops at ``t_cap``), since a tick's directive never changes
    once decided. Unrouted walkers price every cold at home and never
    yield. Emitted colds and latency entries go to ``sink``.

    Cold pricing reads each region sampler's cached zero-congestion
    totals column directly (cross-region replay never models
    congestion), with one local cursor per region. Dead pods are skipped
    lazily during the scan (expiry is by death time, so removal timing
    is semantically free); a region is emptied once the scan finds all
    its pods dead, and compacted once it accumulates them.
    """
    n = t.size
    n_regions = len(samplers)
    region_pods: list[list[list[float]]] = [[] for _ in range(n_regions)]
    s_t, s_w, s_raw = sink.t, sink.w, sink.raw
    s_r, s_pos = sink.region, sink.pos
    lat_v_l: list[float] = []
    lat_p_l: list[int] = []

    tl, el, ml = t.tolist(), e.tolist(), merged_pos.tolist()
    idle_end = t + e
    if n > 1:
        steady_prev = idle_end[:-1]
        expiry_gap = t[1:] >= steady_prev + keepalive_s
        deviating = expiry_gap | (t[1:] < steady_prev)
        cand_list = (np.flatnonzero(deviating) + 1).tolist()
        # Hint that a *sparse* cold run starts at arrival ``j``: even a
        # zero-wait pod created at ``j`` dies before ``j + 1``, and one
        # created at ``j + 1`` before ``j + 2`` (waits only push the real
        # deaths later). A lone gap mostly heads a session whose next
        # arrival is warm, where a block would cost more than it retires.
        sparse = expiry_gap.copy()
        sparse[:-1] &= expiry_gap[1:]
        sparse[-1] = False
        sparse_list = sparse.tolist()
    else:
        cand_list = []
        sparse_list = []
    cand_list.append(n)
    ci = 0

    # Zero-congestion cold pricing: one cached totals column and one
    # local cursor per region (the samplers are private to this replay).
    zt_l: list = [None] * n_regions
    zt_a: list = [None] * n_regions
    zcur = [0] * n_regions

    # Regime counters: local ints, flushed once at the end (zero-overhead
    # discipline — see repro.obs.telemetry).
    x_jumps = x_jumped = x_scalar = 0
    x_blocks = x_block_arrivals = 0
    x_il = x_il_arrivals = 0

    # Chain-jump RTT latency, recorded as [start, limit) spans and
    # materialised vectorized at the end (assembly re-sorts every latency
    # entry by merged position, so accumulation order is free).
    rtt_sp_s: list[int] = []
    rtt_sp_e: list[int] = []

    # Batched-sweep pacing: enter after a short scalar cold streak (or at a
    # sparse run), speculate ``spec_w`` arrivals, and track the accepted
    # width so saturated bursts grow toward the cap while choppy regimes
    # fall back to cheap scalar steps.
    cold_streak = 0
    spec_w = 64

    # The route directive in force and the tick edge it holds until.
    route_r, route_p, t_cap = 0, 0.0, (-math.inf if routed else math.inf)

    ai = 0
    while ai < n:
        tk = tl[ai]
        # One scan, event order (region-major, creation order): find the
        # first alive & idle pod, remembering the alive-but-busy pods —
        # potential stealers — that precede it.
        serve_pod = None
        serve_r = 0
        n_busy = 0
        blk_pod = blk2_pod = None
        blk_r = blk2_r = 0
        for ridx in range(n_regions):
            pods = region_pods[ridx]
            if not pods:
                continue
            dead = 0
            for pod in pods:
                if pod[0] <= tk:
                    dead += 1
                    continue
                if pod[1] <= tk:
                    serve_pod = pod
                    serve_r = ridx
                    break
                n_busy += 1
                blk2_pod = blk_pod
                blk2_r = blk_r
                blk_pod = pod
                blk_r = ridx
            if dead:
                if dead == len(pods):
                    pods.clear()
                elif dead >= 8:
                    pods[:] = [p for p in pods if p[0] > tk]
            if serve_pod is not None:
                break
        if serve_pod is not None:
            if n_busy == 0:
                # Steady-chain jump: the serving pod is the first alive
                # pod anywhere, so it keeps serving (and stays warm)
                # until the next deviation candidate.
                while cand_list[ci] <= ai:
                    ci += 1
                limit = cand_list[ci]
                x_jumps += 1
                x_jumped += limit - ai
                if serve_r > 0:
                    rtt_sp_s.append(ai)
                    rtt_sp_e.append(limit)
                end = float(idle_end[limit - 1])
                serve_pod[1] = end
                serve_pod[0] = end + keepalive_s
                cold_streak = 0
                ai = limit
                continue
            if n_busy == 1 and blk_r == serve_r:
                # Two-lane walk: exactly one alive-but-busy pod A
                # precedes the server B in scan order — the dominant
                # depth-1 burst shape. Step arrivals with just the two
                # lane states: A serves whenever it is idle and warm
                # (scan precedence), otherwise B does, and any other
                # configuration (both busy, a lane found dead) falls
                # back to the full scan. Each comparison is the exact
                # float test the scan would make (warm ends are always
                # busy + keepalive, recomputed with the identical add),
                # so the walk is bit-identical while skipping the
                # per-arrival pod scan entirely.
                ab = blk_pod[1]
                aw = blk_pod[0]
                bb = serve_pod[1]
                bw = serve_pod[0]
                k = ai
                while k < n:
                    tkk = tl[k]
                    if tkk >= ab:
                        if tkk >= aw:
                            break
                        ab = tkk + el[k]
                        aw = ab + keepalive_s
                    elif tkk >= bb:
                        if tkk >= bw:
                            break
                        bb = tkk + el[k]
                        bw = bb + keepalive_s
                    else:
                        break
                    k += 1
                L = k - ai
                serve_pod[1] = bb
                serve_pod[0] = bw
                blk_pod[1] = ab
                blk_pod[0] = aw
                if serve_r > 0:
                    rtt_sp_s.append(ai)
                    rtt_sp_e.append(k)
                if L > 1:
                    x_il += 1
                    x_il_arrivals += L
                else:
                    x_scalar += 1
                cold_streak = 0
                ai = k
                continue
            if n_busy == 2 and blk_r == serve_r and blk2_r == serve_r:
                # Three-lane walk — the same shape one burst level
                # deeper (two alive-but-busy pods A, B precede the
                # server C in scan order).
                ab = blk2_pod[1]
                aw = blk2_pod[0]
                bb = blk_pod[1]
                bw = blk_pod[0]
                cb = serve_pod[1]
                cw = serve_pod[0]
                k = ai
                while k < n:
                    tkk = tl[k]
                    if tkk >= ab:
                        if tkk >= aw:
                            break
                        ab = tkk + el[k]
                        aw = ab + keepalive_s
                    elif tkk >= bb:
                        if tkk >= bw:
                            break
                        bb = tkk + el[k]
                        bw = bb + keepalive_s
                    elif tkk >= cb:
                        if tkk >= cw:
                            break
                        cb = tkk + el[k]
                        cw = cb + keepalive_s
                    else:
                        break
                    k += 1
                L = k - ai
                serve_pod[1] = cb
                serve_pod[0] = cw
                blk_pod[1] = bb
                blk_pod[0] = bw
                blk2_pod[1] = ab
                blk2_pod[0] = aw
                if serve_r > 0:
                    rtt_sp_s.append(ai)
                    rtt_sp_e.append(k)
                if L > 1:
                    x_il += 1
                    x_il_arrivals += L
                else:
                    x_scalar += 1
                cold_streak = 0
                ai = k
                continue
            # Exact scalar warm hit (an alive-but-busy pod precedes the
            # server, so it could steal a later arrival — no chain).
            serve_pod[1] = tk + el[ai]
            serve_pod[0] = serve_pod[1] + keepalive_s
            if serve_r > 0:
                lat_v_l.append(rtt_s)
                lat_p_l.append(ml[ai])
            x_scalar += 1
            cold_streak = 0
            ai += 1
            continue
        if tk >= t_cap:
            # First cold past the directive's tick: ask for the next one.
            route_r, route_p, t_cap = yield tk, ml[ai]
        ridx, penalty = route_r, route_p
        if ai + 1 < n and (cold_streak >= 2 or sparse_list[ai]):
            # Batched slot-exhaustion sweep over the cold run, stopped
            # before the next tick edge (one directive per block); a
            # shorter run costs less priced one cold at a time.
            m = bisect_left(tl, t_cap, ai, min(n, ai + spec_w)) - ai
            if m >= _SPEC_MIN_RUN:
                tb = t[ai:ai + m]
                # Static sweep: an arrival can only stay cold while every
                # pre-existing pod is busy or dead. Pods keep the exact
                # invariant warm = busy + keepalive, so sorting by busy
                # end sorts warm ends too, and the idle-warm test reduces
                # to one searchsorted per arrival against the stored
                # float columns.
                prior = [
                    (pod[1], pod[0])
                    for pods in region_pods
                    for pod in pods
                    if pod[0] > tk
                ]
                if prior:
                    prior.sort()
                    busy_arr = np.fromiter(
                        (p[0] for p in prior), dtype=np.float64, count=len(prior)
                    )
                    warm_arr = np.maximum.accumulate(np.fromiter(
                        (p[1] for p in prior), dtype=np.float64, count=len(prior)
                    ))
                    wpad = np.concatenate(([-np.inf], warm_arr))
                    ok_static = wpad[np.searchsorted(busy_arr, tb, side="right")] <= tb
                else:
                    ok_static = None
                cur = zcur[ridx]
                za = zt_a[ridx]
                if za is None or za.size < cur + m:
                    zt_l[ridx], za = samplers[ridx].zero_cols(cur + m)
                    zt_a[ridx] = za
                waits = za[cur:cur + m]
                nb = (tb + waits) + e[ai:ai + m]
                nw = nb + keepalive_s
                # In-block sweep: every pod the block creates must be
                # still busy (prefix-min busy end) or already dead
                # (prefix-max warm end) at each later arrival.
                minb = np.minimum.accumulate(nb)
                maxw = np.maximum.accumulate(nw)
                ok = np.empty(m, dtype=bool)
                ok[0] = True
                ok[1:] = (minb[:-1] > tb[1:]) | (maxw[:-1] <= tb[1:])
                if ok_static is not None:
                    ok[1:] &= ok_static[1:]
                acc = m if bool(ok.all()) else max(int(np.argmin(ok)), 1)
                zcur[ridx] = cur + acc
                s_t.extend(tb[:acc].tolist())
                s_w.extend((waits[:acc] + penalty).tolist())
                s_raw.extend(waits[:acc].tolist())
                s_r.extend([ridx] * acc)
                s_pos.extend(ml[ai:ai + acc])
                if penalty:
                    lat_v_l.extend([penalty] * acc)
                    lat_p_l.extend(ml[ai:ai + acc])
                # Keep only pods that can still serve a future arrival
                # (expiry is by death time, so dropping the already-dead
                # ones is semantically free).
                if ai + acc < n:
                    tnext = tl[ai + acc]
                    pods_r = region_pods[ridx]
                    for bv, wv in zip(nb[:acc].tolist(), nw[:acc].tolist()):
                        if wv > tnext:
                            pods_r.append([wv, bv])
                x_blocks += 1
                x_block_arrivals += acc
                spec_w = min(_COLD_BLOCK_CAP, max(64, 2 * acc))
                cold_streak = 2
                ai += acc
                continue
        # Exact scalar cold start.
        cur = zcur[ridx]
        zl = zt_l[ridx]
        if zl is None or cur >= len(zl):
            zl, zt_a[ridx] = samplers[ridx].zero_cols(cur + 1)
            zt_l[ridx] = zl
        wait = zl[cur]
        zcur[ridx] = cur + 1
        s_t.append(tk)
        s_w.append(wait + penalty)
        s_raw.append(wait)
        s_r.append(ridx)
        s_pos.append(ml[ai])
        if penalty:
            lat_v_l.append(penalty)
            lat_p_l.append(ml[ai])
        end = tk + wait + el[ai]
        region_pods[ridx].append([end + keepalive_s, end])
        x_scalar += 1
        cold_streak += 1
        ai += 1

    lat_v = np.asarray(lat_v_l, dtype=np.float64)
    lat_p = np.asarray(lat_p_l, dtype=np.int64)
    if rtt_sp_s:
        st = np.asarray(rtt_sp_s, dtype=np.int64)
        ln = np.asarray(rtt_sp_e, dtype=np.int64) - st
        total = int(ln.sum())
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            st - np.concatenate(([0], np.cumsum(ln)[:-1])), ln
        )
        lat_v = np.concatenate([lat_v, np.full(total, rtt_s)])
        lat_p = np.concatenate([lat_p, merged_pos[idx]])

    tel = get_telemetry()
    if tel.enabled:
        tel.count_many((
            ("xregion/replay/calls", 1),
            ("xregion/replay/scalar_arrivals", x_scalar),
            ("xregion/replay/chain_jumps", x_jumps),
            ("xregion/replay/jumped_arrivals", x_jumped),
            ("xregion/replay/cold_blocks", x_blocks),
            ("xregion/replay/block_arrivals", x_block_arrivals),
            ("xregion/replay/interleave_jumps", x_il),
            ("xregion/replay/interleaved_arrivals", x_il_arrivals),
        ))
    sink.lat_v.append(lat_v)
    sink.lat_p.append(lat_p)

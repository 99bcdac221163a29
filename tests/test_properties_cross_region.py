"""Differential property tests: vector vs event cross-region replay.

The vector engine merges per-function walkers' cold starts in event order
and steps the best-region router once per tick a cold falls in; the event
engine steps it at every tick inline. Both must produce bit-identical
:class:`EvalMetrics` on any workload. Traces are drawn to hit the cases
the merge has to get exactly right:

* arrivals exactly at tick times ``k * interval_s`` (they belong to the
  tick that fires at them, not the one before);
* equal-time cold starts in different functions (the router folds them
  by merged position, i.e. trace order);
* saturated cold bursts straddling a tick edge (a cold block must stop
  at the edge, since the next tick may route elsewhere);
* an inter-region RTT that puts the router's EMA seeds at or near its
  ``improvement_gate``, so the route flips back and forth;
* a router subclass whose ``decide`` builds actions of its own.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.mitigation import (
    CrossRegionEvaluator,
    RouteDirective,
    RoutingPolicy,
    TickAction,
    cross_region,
)
from repro.mitigation.cross_region import BestRegionRouter, _ema_seed
from repro.obs.telemetry import profiled
from repro.workload.catalog import OBS_A, ResourceConfig, Runtime
from repro.workload.function import FunctionSpec
from repro.workload.generator import FunctionTrace
from repro.workload.regions import region_profile

_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_TICK = BestRegionRouter.interval_s

#: (home, remotes): congested homes next to faster remotes, and one pair
#: whose remote is slower than home.
_REGIONS = st.sampled_from([
    ("R2", ("R3",)), ("R1", ("R3",)), ("R2", ("R3", "R4")), ("R3", ("R2",)),
])

#: Offsets from the RTT that puts the best remote's seeded cost exactly on
#: the gate: on it, just either side of it, and far enough above it that
#: only observed cold starts can move the decision.
_GATE_OFFSETS = st.sampled_from([0.0, 1e-9, -1e-9, 0.05, -0.05, 0.5, 1.5])

#: Execution times: warm chains, overlapping sessions, saturating bursts.
_EXECS = st.sampled_from([0.01, 0.5, 2.0, 30.0])


def _gate_rtt(home: str, remotes: tuple[str, ...], offset: float) -> float:
    seeds = [_ema_seed(region_profile(r).latency) for r in (home, *remotes)]
    edge = seeds[0] * BestRegionRouter.improvement_gate - min(seeds[1:])
    return max(edge + offset, 0.0)


@st.composite
def _tick_edge_times(draw):
    """Arrivals exactly on tick times, some repeated."""
    ticks = draw(st.lists(st.integers(0, 90), min_size=1, max_size=30))
    return [k * _TICK for k in ticks]


@st.composite
def _burst_times(draw):
    """A dense run starting just before a tick edge and crossing it."""
    edge = draw(st.integers(1, 60)) * _TICK
    lead = draw(st.sampled_from([0.0, 0.01, 0.5, 3.0]))
    gap = draw(st.sampled_from([0.001, 0.05, 0.25]))
    count = draw(st.integers(2, 120))
    return (edge - lead + gap * np.arange(count)).tolist()


@st.composite
def _grid_times(draw):
    """Sparse to dense arrivals on a grid (cold runs and warm chains)."""
    quantum = draw(st.sampled_from([0.5, 7.0, 30.0, 61.0, 600.0]))
    steps = draw(st.lists(st.integers(0, 400), max_size=60))
    return [s * quantum for s in steps]


@st.composite
def _function(draw, shared):
    kind = draw(st.sampled_from(["edges", "burst", "grid", "shared"]))
    if kind == "edges":
        times = draw(_tick_edge_times())
    elif kind == "burst":
        times = draw(_burst_times()) + draw(_grid_times())
    elif kind == "grid":
        times = draw(_grid_times())
    else:
        # A subset of times every "shared" function draws from: equal-time
        # cold starts in different functions.
        keep = draw(st.lists(
            st.booleans(), min_size=len(shared), max_size=len(shared)
        ))
        times = [t for t, k in zip(shared, keep) if k]
    return sorted(times), draw(_EXECS)


@st.composite
def cases(draw):
    home, remotes = draw(_REGIONS)
    shared = draw(st.one_of(_tick_edge_times(), _burst_times()))
    functions = draw(st.lists(_function(shared), min_size=1, max_size=6))
    return (
        home, remotes, draw(_GATE_OFFSETS),
        draw(st.sampled_from([60.0, 10.0, 0.5])), draw(st.integers(0, 3)),
        functions,
    )


def _traces(functions) -> list[FunctionTrace]:
    traces = []
    for i, (times, exec_s) in enumerate(functions):
        spec = FunctionSpec(
            function_id=3000 + 11 * i, user_id=1, runtime=Runtime.PYTHON3,
            triggers=(OBS_A,), config=ResourceConfig(300, 128),
            mean_exec_s=exec_s, cpu_millicores=100, memory_mb=64,
            arrival_kind="poisson", daily_rate=100.0,
        )
        arrivals = np.asarray(times, dtype=np.float64)
        traces.append(FunctionTrace(
            spec=spec, arrivals=arrivals,
            exec_s=np.full(arrivals.size, exec_s), lifecycle=None,
        ))
    return traces


class _RecordingRouter(BestRegionRouter):
    """Logs every cold start it folds into its EMAs, in folding order.

    ``seen`` holds ``(function index, time, raw wait, region)``. The event
    engine hands the router tick columns (``observe_batch``), which carry
    all four. The vector merge folds ``(region, wait)`` pairs gathered from
    its cold sink (``observe_colds``); with ``sink`` and ``merged_fn`` set
    (see :func:`_replay`), each fold is resolved to the sink entries the
    router had not seen, in merged order. ``folded`` holds the pairs
    ``observe_colds`` actually received, under either engine.
    """

    sink = None
    merged_fn = None

    def __init__(self, ema_seeds, rtt_s):
        super().__init__(ema_seeds, rtt_s)
        self.seen: list[tuple] = []
        self.folded: list[tuple] = []
        self._fed = 0

    def observe_batch(self, cols):
        self.seen.extend(zip(
            cols.cold_fn.tolist(), cols.cold_t.tolist(),
            cols.cold_wait.tolist(), cols.cold_region.tolist(),
        ))
        super().observe_batch(cols)

    def observe_colds(self, regions, waits):
        regions, waits = list(regions), list(waits)
        self.folded.extend(zip(regions, waits))
        if self.sink is not None:
            sink = self.sink
            new = sorted(range(self._fed, len(sink.pos)), key=sink.pos.__getitem__)
            self._fed = len(sink.pos)
            self.seen.extend(
                (int(self.merged_fn[sink.pos[j]]), sink.t[j], sink.raw[j],
                 sink.region[j])
                for j in new
            )
        super().observe_colds(regions, waits)


class _RecordingEvaluator(CrossRegionEvaluator):
    router: _RecordingRouter | None = None

    def _router(self, policy):
        router = super()._router(policy)
        if router is not None:
            router = self.router = _RecordingRouter(router.emas, router.rtt_s)
        return router


def _merged_fn(traces) -> np.ndarray:
    """The function index of each arrival in merged (time, then trace)
    order: what a merged position names."""
    sizes = [t.arrivals.size for t in traces]
    all_t = np.concatenate([t.arrivals for t in traces])
    return np.repeat(np.arange(len(traces)), sizes)[
        np.argsort(all_t, kind="stable")
    ]


def _replay(case, engine: str, policy: RoutingPolicy):
    """``(metrics, recording router or None, tick/steps)`` of one profiled
    replay."""
    home, remotes, offset, keepalive_s, seed, functions = case
    traces = _traces(functions)
    evaluator = _RecordingEvaluator(
        home=home, remotes=remotes, rtt_s=_gate_rtt(home, remotes, offset),
        seed=seed, engine=engine,
    )
    route = cross_region._route_in_time_order

    def recording_route(walkers, router, sink):
        router.sink, router.merged_fn = sink, _merged_fn(traces)
        route(walkers, router, sink)

    with profiled() as tel, mock.patch.object(
        cross_region, "_route_in_time_order", recording_route
    ):
        metrics = evaluator.run(traces, policy=policy, keepalive_s=keepalive_s)
        steps = tel.counters.get("tick/steps", 0)
    return metrics, evaluator.router, steps


def _seen(router) -> list[tuple]:
    return router.seen if router else []


#: Two functions cold-starting together on tick edges, and a saturated
#: burst across the edge at 10 min, with the seeds on the gate.
_KNIFE_EDGE = (
    "R2", ("R3",), 0.0, 10.0, 1,
    [
        ([k * _TICK for k in range(0, 40, 2)], 0.5),
        ([k * _TICK for k in range(0, 40, 2)], 0.5),
        ((600.0 - 0.5 + 0.05 * np.arange(80)).tolist(), 30.0),
    ],
)


#: Zero RTT and a remote faster than home: the seeded EMAs route away at
#: the first tick, before any cold start has been observed.
_AWAY_AT_TICK_ZERO = (
    "R2", ("R3",), -1e9, 60.0, 0,
    [([0.0, 0.0, 5.0, 200.0, 4000.0], 0.5), ([30.0, 3000.0], 2.0)],
)

#: The knife-edge flips, then a long warm chain and a silent stretch with
#: no cold start for over a hundred ticks, then late cold starts: the route
#: decided at the flip must hold until new colds move the EMAs.
_FLIP_THEN_QUIET = (
    *_KNIFE_EDGE[:5],
    [
        *_KNIFE_EDGE[5],
        ([2400.0 + 5.0 * k for k in range(600)], 0.01),
        ([9000.0, 9000.0, 9600.5, 12000.0], 0.5),
    ],
)


@_SETTINGS
@given(case=cases())
@example(case=_KNIFE_EDGE)
@example(case=_AWAY_AT_TICK_ZERO)
@example(case=_FLIP_THEN_QUIET)
def test_vector_matches_event(case):
    for policy in (RoutingPolicy.BEST_REGION, RoutingPolicy.HOME_ONLY):
        event, event_router, _ = _replay(case, "event", policy)
        vector, vector_router, steps = _replay(case, "vector", policy)
        event_seen, vector_seen = _seen(event_router), _seen(vector_router)
        # The router folds the same colds — function, time, wait, region —
        # in the same order. The event engine keeps stepping to the last
        # arrival, so it may see more.
        assert vector_seen == event_seen[:len(vector_seen)]
        # Each engine's fold is exactly the colds it logged.
        for router in (event_router, vector_router):
            if router is not None:
                assert router.folded == [(r, w) for _, _, w, r in router.seen]
        # The vector merge steps the router only at ticks a cold falls in.
        if policy is RoutingPolicy.BEST_REGION and vector.cold_starts:
            assert 0 < steps <= vector.cold_starts
        else:
            assert steps == 0
        assert vector.summary() == event.summary()
        assert vector.cold_wait == event.cold_wait
        assert vector.cold_start_minutes == event.cold_start_minutes
        assert vector.warm_hits == event.warm_hits
        assert vector.total_delay_s == event.total_delay_s
        assert vector.cold_starts_by_region == event.cold_starts_by_region


def test_knife_edge_case_flips_the_route():
    """The hand-placed case really routes both ways, and its burst
    crosses a tick edge while cold."""
    metrics, _, _ = _replay(_KNIFE_EDGE, "event", RoutingPolicy.BEST_REGION)
    by_region = metrics.cold_starts_by_region
    assert by_region["R2"] > 0 and by_region["R3"] > 0
    assert metrics.cold_starts >= 80


def test_zero_rtt_case_routes_away_from_the_first_cold():
    """The seeded EMAs alone send the very first cold start remote."""
    metrics, router, _ = _replay(
        _AWAY_AT_TICK_ZERO, "vector", RoutingPolicy.BEST_REGION
    )
    assert _gate_rtt(*_AWAY_AT_TICK_ZERO[:2], _AWAY_AT_TICK_ZERO[2]) == 0.0
    assert router.seen and all(region == 1 for *_, region in router.seen)
    assert metrics.cold_starts_by_region["R2"] == 0


def test_flip_then_quiet_case_routes_both_ways_across_the_silence():
    """The route flips before the silent stretch, and cold starts on both
    sides of it are placed."""
    metrics, router, _ = _replay(
        _FLIP_THEN_QUIET, "vector", RoutingPolicy.BEST_REGION
    )
    by_region = metrics.cold_starts_by_region
    assert by_region["R2"] > 0 and by_region["R3"] > 0
    assert len(router.seen) > 80


#: The flipping case with two remotes, as ``_REGIONS`` draws them.
_TWO_REMOTES = ("R2", ("R3", "R4"), *_FLIP_THEN_QUIET[2:])


def test_router_steps_on_pinned_cases():
    """The merge steps the router once per tick a cold start falls in:
    the counts are fixed by the traces and the routes, not by how the
    walkers price their colds (one at a time or in blocks)."""
    for case, steps in ((_FLIP_THEN_QUIET, 25), (_TWO_REMOTES, 25)):
        assert _replay(case, "vector", RoutingPolicy.BEST_REGION)[2] == steps


class _HomeOnOddTicks(BestRegionRouter):
    """Overrides ``decide`` with actions it builds itself: the EMA choice
    on even ticks, home on odd ones."""

    def decide(self, tick, now):
        if tick % 2:
            return TickAction(route=RouteDirective(region=0, penalty_s=0.0))
        route = super().decide(tick, now).route
        return TickAction(
            route=RouteDirective(region=route.region, penalty_s=route.penalty_s)
        )


class _HomeOnOddTicksEvaluator(CrossRegionEvaluator):
    def _router(self, policy):
        router = super()._router(policy)
        return router and _HomeOnOddTicks(router.emas, router.rtt_s)


def test_router_subclass_overriding_decide_matches_event():
    """A subclass's own ``decide`` governs both engines alike, and it
    changes the routing of the flipping cases."""
    moved = False
    for case in (_KNIFE_EDGE, _AWAY_AT_TICK_ZERO, _FLIP_THEN_QUIET, _TWO_REMOTES):
        home, remotes, offset, keepalive_s, seed, functions = case
        runs = [
            evaluator_type(
                home=home, remotes=remotes,
                rtt_s=_gate_rtt(home, remotes, offset), seed=seed,
                engine=engine,
            ).run(_traces(functions), policy=RoutingPolicy.BEST_REGION,
                  keepalive_s=keepalive_s)
            for evaluator_type, engine in (
                (_HomeOnOddTicksEvaluator, "event"),
                (_HomeOnOddTicksEvaluator, "vector"),
                (CrossRegionEvaluator, "vector"),
            )
        ]
        event, vector, plain = runs
        assert vector.summary() == event.summary()
        assert vector.cold_wait == event.cold_wait
        assert vector.total_delay_s == event.total_delay_s
        assert vector.cold_starts_by_region == event.cold_starts_by_region
        moved |= vector.cold_starts_by_region != plain.cold_starts_by_region
    assert moved

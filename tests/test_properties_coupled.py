"""Differential property tests: vector vs event coupled region replay.

For policies whose decisions read only arrivals, the vector engine fixes
the decision schedule before any replay (in closed form, or by stepping
the tick machine over the arrival spans) and replays each function once
under its slice; the event engine steps the same policies inline. Both
must produce bit-identical :class:`EvalMetrics` on any workload. Traces
reuse the cross-region suite's generators and add the cases the one-pass
replay has to get exactly right:

* arrivals exactly at tick times (they belong to the tick that fires at
  them);
* bursts straddling a tick edge;
* peak-shaving delays from half a second to several ticks, so delayed
  re-arrivals cross ticks and run the clock past the last arrival's tick,
  while timer pre-warm entries sit at those late ticks;
* an explicit horizon before the last arrival (ticks stop there, later
  events stay governed by the last tick);
* re-arrivals landing exactly on a tick edge;
* closed-form and stepped (``_ObservingTimer``, a custom directive)
  schedules;
* per-pod concurrency 1 to 4, and multi-slot bursts longer than the slot
  sweep's first block and than its largest (``_EP_CHUNK``), so block
  edges fall mid-burst;
* long idle gaps that many pre-warm ticks fall into (a function warm on
  one day and sparse on the next, or pre-warmed at every tick);
* a stepped pre-warm policy asking for two or three pods, so skipping
  the ticks earlier pods already cover must compare targets;
* single-slot episodes in which an untouched pre-warmed pod ties with a
  pod whose slot ends exactly at the arrival;
* runs of >keep-alive gaps long enough to be priced as speculative cold
  blocks, around a burst whose shaved cold starts re-arrive among them,
  so blocks must stop before pre-warm ticks, arrivals a shave directive
  could delay, and pending re-arrivals;
* pre-warm grace shorter than a tick (30 s), and graces of two and three
  ticks (120 s, 180 s) that put pre-warmed pods' deaths exactly on tick
  edges, where the strict ``T < death`` test decides whether a tick
  makes a pod;
* runs of one-pod ticks that the one-pod loop applies itself: across
  hours of idle time, and starting while its pod is busy (which it must
  hand to the main loop), beside runs asking for two pods (which it
  never takes).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cluster.lifecycle import FixedKeepAlive, reconstruct_function_pods
from repro.mitigation import (
    AsyncPeakShaver,
    HistogramPrewarmPolicy,
    RegionEvaluator,
    TickAction,
    TickPolicy,
    TimerPrewarmPolicy,
)
from repro.mitigation.base import PrewarmPolicy
from repro.mitigation.evaluator import CongestionProfile
from repro.mitigation.tick import last_tick_index
from repro.mitigation.vector_engine import (
    _EP_CHUNK,
    _SPEC_MIN_RUN,
    replay_function_coupled,
)
from repro.obs.telemetry import profiled
from repro.workload.catalog import APIG_S, OBS_A, ResourceConfig, Runtime, TIMER_A
from repro.workload.function import FunctionSpec
from repro.workload.generator import FunctionTrace
from repro.workload.regions import region_profile
from test_properties_cross_region import _burst_times, _grid_times, _tick_edge_times
from test_vector_engine import _ObservingTimer, _assert_identical

_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_TICK = 60.0


def _shaver(max_delay_s: float, trigger: float) -> AsyncPeakShaver:
    """The built-in shaver with its stampede trigger moved: at -1 every
    cold-bound asynchronous arrival is delayed."""
    shaver = AsyncPeakShaver(max_delay_s=max_delay_s)
    shaver.congestion_trigger = trigger
    return shaver


class _EdgeDirective:
    """Delays a cold-bound arrival to the tick edge after next (exactly,
    for arrivals past the second tick)."""

    def delay_for(self, spec, now, congestion, n_delayed):
        return (int(now // _TICK) + 2) * _TICK - now


class _EdgeShaver(TickPolicy):
    """An outcome-free shaver with a directive type of its own: the vector
    engine steps it, and its re-arrivals land on tick edges."""

    def decide(self, tick, now):
        return TickAction(shave=_EdgeDirective())


class _SteppedTargets(PrewarmPolicy):
    """Pre-warms every function seen so far at five ticks in seven, two
    or three pods by tick: a stepped schedule with targets above one."""

    def __init__(self):
        self._seen: tuple = ()

    def observe_batch(self, cols):
        if cols.arrive_fn.size:
            fids = cols.function_ids[cols.arrive_fn].tolist()
            self._seen = tuple(sorted(set(self._seen).union(fids)))

    def decide(self, tick, now):
        if tick % 7 in (4, 6):
            return TickAction()
        target = 3 if tick % 3 == 1 else 2
        return TickAction(prewarm=tuple((f, target) for f in self._seen))


class _UnitTargets(_SteppedTargets):
    """Pre-warms one pod of every function seen so far at every tick: a
    stepped schedule of one-pod runs that never ends."""

    def decide(self, tick, now):
        return TickAction(prewarm=tuple((f, 1) for f in self._seen))


#: Policy sets by name: ``make(max_delay_s, trigger)`` -> evaluator kwargs.
_POLICY_SETS = {
    "timer": lambda d, g: dict(prewarm_policy=TimerPrewarmPolicy()),
    "histogram": lambda d, g: dict(
        prewarm_policy=HistogramPrewarmPolicy(
            threshold=0.05, min_observations=3, smooth_minutes=1
        )
    ),
    "histogram+shaving": lambda d, g: dict(
        prewarm_policy=HistogramPrewarmPolicy(
            threshold=0.05, min_observations=3, smooth_minutes=1
        ),
        peak_shaver=_shaver(d, g),
    ),
    "shaving": lambda d, g: dict(peak_shaver=_shaver(d, g)),
    "timer+shaving": lambda d, g: dict(
        prewarm_policy=TimerPrewarmPolicy(), peak_shaver=_shaver(d, g)
    ),
    "stepped-timer": lambda d, g: dict(prewarm_policy=_ObservingTimer()),
    "stepped-timer+shaving": lambda d, g: dict(
        prewarm_policy=_ObservingTimer(), peak_shaver=_shaver(d, g)
    ),
    "stepped-timer+edge-shaver": lambda d, g: dict(
        prewarm_policy=_ObservingTimer(), peak_shaver=_EdgeShaver()
    ),
    "stepped-targets": lambda d, g: dict(prewarm_policy=_SteppedTargets()),
    "stepped-targets+shaving": lambda d, g: dict(
        prewarm_policy=_SteppedTargets(), peak_shaver=_shaver(d, g)
    ),
    "stepped-unit": lambda d, g: dict(prewarm_policy=_UnitTargets()),
    "stepped-unit+shaving": lambda d, g: dict(
        prewarm_policy=_UnitTargets(), peak_shaver=_shaver(d, g)
    ),
}

#: Pre-warm graces: shorter than a tick, two and three ticks (deaths on
#: tick edges), and the evaluator's default.
_GRACES = [30.0, 120.0, 150.0, 180.0]


@st.composite
def _timer_times(draw):
    """A periodic timer, eligible for pre-warming (period >= 90 s)."""
    start = draw(st.sampled_from([0.0, _TICK, 17.0, 30.0]))
    period = draw(st.sampled_from([90.0, 120.0, 300.0]))
    count = draw(st.integers(2, 25))
    return (start + period * np.arange(count)).tolist()


@st.composite
def _long_burst_times(draw):
    """A burst longer than the slot sweep's first block, or than its
    largest, crossing a tick edge."""
    edge = draw(st.integers(1, 30)) * _TICK
    gap = draw(st.sampled_from([0.001, 0.02, 0.05]))
    count = draw(st.sampled_from([40, 70, _EP_CHUNK + 50, 2 * _EP_CHUNK + 7]))
    return (edge - 0.5 + gap * np.arange(count)).tolist()


@st.composite
def _diurnal_times(draw):
    """Dense arrivals over a window of day one, then a few in the same
    window of day two: the histogram policy pre-warms every minute of it,
    so long idle gaps hold many pre-warm ticks."""
    start = draw(st.integers(0, 600)) * 60.0
    width = draw(st.sampled_from([20, 90]))
    step = draw(st.sampled_from([10.0, 30.0]))
    dense = start + step * np.arange(int(width * 60.0 / step))
    sparse = draw(st.lists(st.integers(0, width * 60), max_size=4))
    return dense.tolist() + [86_400.0 + start + s for s in sparse]


@st.composite
def _sparse_times(draw):
    """A run of >keep-alive gaps across tick edges, long enough for a
    speculative cold block, plus a burst inside it whose shaved cold
    starts re-arrive among the run's arrivals."""
    start = draw(st.sampled_from([0.0, 17.0, _TICK - 0.5]))
    gap = draw(st.sampled_from([61.0, 90.0, 150.0, 601.0]))
    count = draw(st.integers(_SPEC_MIN_RUN + 1, 80))
    return (start + gap * np.arange(count)).tolist() + draw(_burst_times())


@st.composite
def _function(draw):
    kind = draw(st.sampled_from(
        ["edges", "burst", "grid", "timer", "long-burst", "diurnal", "sparse"]
    ))
    if kind == "edges":
        times = draw(_tick_edge_times())
    elif kind == "burst":
        times = draw(_burst_times()) + draw(_grid_times())
    elif kind == "grid":
        times = draw(_grid_times())
    elif kind == "timer":
        times = draw(_timer_times())
    elif kind == "long-burst":
        times = draw(_long_burst_times()) + draw(_grid_times())
    elif kind == "diurnal":
        times = draw(_diurnal_times())
    else:
        times = draw(_sparse_times())
    # A sparse timer is pre-warmed once the timer policy learns its period.
    timer = kind == "timer" or kind == "sparse" and draw(st.booleans())
    return (
        timer, draw(st.booleans()), sorted(times),
        draw(st.sampled_from([0.01, 0.1, 0.5, 2.0, 30.0])),
        draw(st.sampled_from([1, 1, 2, 3, 4])),
    )


@st.composite
def cases(draw):
    return (
        draw(st.sampled_from(sorted(_POLICY_SETS))),
        draw(st.sampled_from([0.5, 45.0, 150.0, 400.0])),
        draw(st.sampled_from([-1.0, 0.0, 0.5])),
        draw(st.sampled_from([60.0, 10.0])),
        draw(st.sampled_from([None, 0.6])),
        draw(st.integers(0, 3)),
        draw(st.sampled_from(_GRACES)),
        draw(st.lists(_function(), min_size=1, max_size=6)),
    )


def _traces(functions) -> list[FunctionTrace]:
    traces = []
    for i, (timer, sync, times, exec_s, concurrency) in enumerate(functions):
        spec = FunctionSpec(
            function_id=5000 + 7 * i, user_id=1, runtime=Runtime.PYTHON3,
            triggers=(APIG_S,) if sync else (TIMER_A,) if timer else (OBS_A,),
            config=ResourceConfig(300, 128), mean_exec_s=exec_s,
            cpu_millicores=100, memory_mb=64,
            arrival_kind="timer" if timer else "poisson",
            timer_period_s=120.0, daily_rate=100.0, concurrency=concurrency,
        )
        arrivals = np.asarray(times, dtype=np.float64)
        execs = np.full(arrivals.size, exec_s)
        traces.append(FunctionTrace(
            spec=spec, arrivals=arrivals, exec_s=execs,
            lifecycle=reconstruct_function_pods(
                arrivals, execs, 60.0, concurrency
            ) if arrivals.size else None,
        ))
    return traces


def _replay(case, engine: str):
    (name, max_delay_s, trigger, keepalive_s, horizon_share, seed, grace_s,
     functions) = case
    traces = _traces(functions)
    last = max((t.arrivals[-1] for t in traces if t.arrivals.size), default=0.0)
    horizon_s = None if horizon_share is None else horizon_share * float(last)
    evaluator = RegionEvaluator(
        region_profile("R2"), seed=seed, engine=engine,
        keepalive_policy=FixedKeepAlive(keepalive_s), prewarm_grace_s=grace_s,
        **_POLICY_SETS[name](max_delay_s, trigger),
    )
    return evaluator.run(traces, horizon_s=horizon_s)


#: Timer pre-warm plus a shaver delaying every cold-bound asynchronous
#: arrival by up to 400 s: the last burst, just before a tick edge, is
#: delayed past the last arrival's tick, and the timers' next firings are
#: pre-warmed at ticks only those delays make fire. The synchronous timer
#: fires twice, so its only pre-warm ticks are those late ones.
_LATE_CLOCK = (
    "timer+shaving", 400.0, -1.0, 60.0, None, 1, 150.0,
    [
        (True, False, (120.0 * np.arange(10)).tolist(), 0.5, 1),
        (False, False, (1_080.0 - 0.5 + 0.05 * np.arange(40)).tolist(), 2.0, 1),
        (False, True, [k * _TICK for k in range(0, 19, 3)], 0.5, 3),
        (True, True, [600.0, 900.0], 0.5, 1),
    ],
)


#: Multi-slot bursts at concurrency 2 and 4, pre-warmed at most ticks: one
#: keeps its pod busy without filling its slots, so it is swept (not
#: chain-jumped) past two of the sweep's largest blocks; one fills them
#: and queues, so blocks stop short and restart.
_LONG_BURSTS = (
    "stepped-targets", 45.0, 0.0, 60.0, None, 2, 150.0,
    [
        (False, True, (119.5 + 0.05 * np.arange(2 * _EP_CHUNK + 7)).tolist(),
         0.1, 4),
        (False, False, (59.5 + 0.001 * np.arange(_EP_CHUNK + 50)).tolist(),
         0.01, 2),
        (True, False, (120.0 * np.arange(12)).tolist(), 0.5, 1),
    ],
)

#: A function warm over an hour and a half of day one and nearly idle in
#: that window on day two, where the histogram policy pre-warms it every
#: minute: long idle gaps each hold many pre-warm ticks.
_IDLE_GAPS = (
    "histogram", 45.0, 0.0, 10.0, None, 3, 150.0,
    [
        (False, False,
         (3_600.0 + 30.0 * np.arange(180)).tolist()
         + [90_000.0 + 1_200.0, 90_000.0 + 4_000.0], 0.5, 1),
        (False, True,
         (3_600.0 + 10.0 * np.arange(540)).tolist() + [90_000.0 + 2_000.0],
         2.0, 3),
    ],
)

#: Two or three pre-warmed pods per tick. Arrival 120.5 takes the first
#: (busy until 121.0), 120.7 a second, and at 121.0 the first pod's slot
#: end ties with the untouched third: the earliest created wins.
_EPISODE_TIE = (
    "stepped-targets", 45.0, 0.0, 60.0, None, 0, 150.0,
    [
        (False, False, [10.0, 120.5, 120.7, 121.0, 121.2, 121.5, 300.0],
         0.5, 1),
        (False, True, [30.0, 200.0, 200.25, 200.5, 200.5, 201.0], 0.5, 2),
    ],
)


#: A pre-warmed sparse timer beside a function whose >keep-alive run
#: surrounds a burst: the shaver delays the burst's cold starts, so that
#: function replays under the shave schedule, and its run is priced in
#: speculative blocks that stop at each arrival the shaver could delay.
_SPARSE_GAPS = (
    "timer+shaving", 45.0, 0.0, 60.0, None, 1, 150.0,
    [
        (True, False, (17.0 + 150.0 * np.arange(40)).tolist(), 0.5, 1),
        (False, False, sorted(
            (30.0 + 90.0 * np.arange(80)).tolist()
            + (600.0 - 0.5 + 0.05 * np.arange(40)).tolist()
        ), 0.5, 1),
    ],
)


#: One pod pre-warmed at every tick, graces of three ticks: a function
#: idle for five hours between two short sessions, where each pre-warmed
#: pod dies exactly on a tick edge and that tick makes the next; and a
#: single-slot function whose hour-long requests keep its pod busy.
_IDLE_HOURS = (
    "stepped-unit", 45.0, 0.0, 60.0, None, 1, 180.0,
    [
        (False, False, [30.0, 45.0, 100.0, 18_007.0, 18_030.0], 0.5, 1),
        (False, True, [20.0, 3_650.0, 7_300.0], 3_600.0, 1),
    ],
)

#: A one-pod run starting at tick 1, while the lone pod serves the 45 s
#: request that arrived at 30 s: that tick makes a second pod. From the
#: request at 250 s on, one pod idles or dies at each tick.
_BUSY_AT_RUN_START = (
    "stepped-unit", 45.0, 0.0, 60.0, None, 0, 120.0,
    [(False, False, [30.0, 250.0, 1_000.0, 3_000.0], 45.0, 1)],
)


@_SETTINGS
@given(case=cases())
@example(case=_LATE_CLOCK)
@example(case=("stepped-timer+shaving",) + _LATE_CLOCK[1:])
@example(case=("stepped-timer+edge-shaver",) + _LATE_CLOCK[1:])
@example(case=_LONG_BURSTS)
@example(case=("stepped-targets+shaving", 45.0, -1.0) + _LONG_BURSTS[3:])
@example(case=_IDLE_GAPS)
@example(case=("stepped-targets",) + _IDLE_GAPS[1:])
@example(case=_EPISODE_TIE)
@example(case=("stepped-targets+shaving", 45.0, -1.0) + _EPISODE_TIE[3:])
@example(case=_SPARSE_GAPS)
@example(case=_IDLE_HOURS)
@example(case=_BUSY_AT_RUN_START)
@example(case=("stepped-targets",) + _IDLE_HOURS[1:])
def test_vector_matches_event(case):
    event = _replay(case, "event")
    vector = _replay(case, "vector")
    _assert_identical(event, vector, case[0])
    assert vector.requests == sum(len(f[2]) for f in case[-1])


def test_late_clock_case_extends_past_the_last_arrival():
    """The hand-placed case really delays re-arrivals past the last
    arrival's tick, and pre-warms at ticks only they make fire."""
    metrics = _replay(_LATE_CLOCK, "event")
    last_arrival = max(max(f[2]) for f in _LATE_CLOCK[-1])
    assert len(metrics.pods_gauge) > last_tick_index(last_arrival, _TICK) + 1
    assert metrics.delayed_requests > 0
    no_delays = _replay(("timer",) + _LATE_CLOCK[1:], "event")
    assert metrics.prewarm_creations > no_delays.prewarm_creations


def _counters(case) -> dict:
    with profiled() as tel:
        _replay(case, "vector")
        return dict(tel.counters)


def test_pinned_cases_reach_the_new_regimes():
    """The hand-placed cases exercise what they are named for."""
    bursts = _counters(_LONG_BURSTS)
    assert bursts["vector/coupled/slot_swept"] > 2 * _EP_CHUNK
    assert bursts["vector/coupled/sweep_blocks"] > 2
    gaps = _replay(_IDLE_GAPS, "event")
    assert gaps.prewarm_creations > 10
    tie = _counters(_EPISODE_TIE)
    assert tie["vector/coupled/episode_arrivals"] > 0
    assert _replay(_EPISODE_TIE, "event").prewarm_hits > 0
    # A shaver that never triggers (congestion stays within [0, 3]) leaves
    # only schedule-free replays: the extra speculation is the re-replay
    # under the shave schedule, between the arrivals it delays.
    sparse = _counters(_SPARSE_GAPS)
    quiet = _counters(_SPARSE_GAPS[:2] + (3.0,) + _SPARSE_GAPS[3:])
    assert sparse["vector/spec/accepted"] > quiet["vector/spec/accepted"] > 0
    sparse_run = _replay(_SPARSE_GAPS, "event")
    assert sparse_run.delayed_requests > 0 and sparse_run.prewarm_creations > 0
    # One-pod runs: the one-pod loop applies their ticks across the idle
    # hours (about 300 ticks), hands the main loop the ticks its pod is
    # busy at, and takes no tick that asks for two pods.
    inline = "vector/coupled/inline_ticks"
    assert _counters(_IDLE_HOURS).get(inline, 0) > 250
    busy_run = _replay(_BUSY_AT_RUN_START, "event")
    fired = len(busy_run.pods_gauge)
    assert 0 < _counters(_BUSY_AT_RUN_START).get(inline, 0) < fired - 1
    two = ("stepped-targets",) + _IDLE_HOURS[1:]
    assert inline not in _counters(two)
    assert _replay(two, "event").prewarm_creations > 0


def test_walker_asks_for_the_tick_an_event_lands_on():
    """An event exactly at the end of the decided ticks needs the tick
    that fires at it: the walker asks for it before handling the event,
    and a pre-warm there serves the event warm."""
    trace = _traces([(False, False, [0.0, 2 * _TICK], 0.5, 1)])[0]
    evaluator = RegionEvaluator(region_profile("R2"), engine="vector")
    walker = replay_function_coupled(
        trace.arrivals, trace.exec_s, np.arange(2), 60.0, 1, 30.0,
        evaluator._sampler_for(trace.spec), CongestionProfile(np.zeros(1)),
        trace.spec, False, 150.0, _TICK, 2, ((), ()), 2 * _TICK, None,
    )
    assert next(walker) == 2 * _TICK
    assert walker.send((([2 * _TICK], [1]), np.inf)) == np.inf
    try:
        walker.send((([2 * _TICK], [1]), np.inf))
    except StopIteration as done:
        outcome = done.value
    assert outcome.prewarm_hits == 1
    assert outcome.cold_times.tolist() == [0.0]

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
  schedules.
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
from repro.mitigation.evaluator import CongestionProfile
from repro.mitigation.tick import last_tick_index
from repro.mitigation.vector_engine import replay_function_coupled
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
}


@st.composite
def _timer_times(draw):
    """A periodic timer, eligible for pre-warming (period >= 90 s)."""
    start = draw(st.sampled_from([0.0, _TICK, 17.0, 30.0]))
    period = draw(st.sampled_from([90.0, 120.0, 300.0]))
    count = draw(st.integers(2, 25))
    return (start + period * np.arange(count)).tolist()


@st.composite
def _function(draw):
    kind = draw(st.sampled_from(["edges", "burst", "grid", "timer"]))
    if kind == "edges":
        times = draw(_tick_edge_times())
    elif kind == "burst":
        times = draw(_burst_times()) + draw(_grid_times())
    elif kind == "grid":
        times = draw(_grid_times())
    else:
        times = draw(_timer_times())
    return (
        kind == "timer", draw(st.booleans()), sorted(times),
        draw(st.sampled_from([0.01, 0.5, 2.0, 30.0])),
        draw(st.sampled_from([1, 1, 3])),
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
    name, max_delay_s, trigger, keepalive_s, horizon_share, seed, functions = case
    traces = _traces(functions)
    last = max((t.arrivals[-1] for t in traces if t.arrivals.size), default=0.0)
    horizon_s = None if horizon_share is None else horizon_share * float(last)
    evaluator = RegionEvaluator(
        region_profile("R2"), seed=seed, engine=engine,
        keepalive_policy=FixedKeepAlive(keepalive_s),
        **_POLICY_SETS[name](max_delay_s, trigger),
    )
    return evaluator.run(traces, horizon_s=horizon_s)


#: Timer pre-warm plus a shaver delaying every cold-bound asynchronous
#: arrival by up to 400 s: the last burst, just before a tick edge, is
#: delayed past the last arrival's tick, and the timers' next firings are
#: pre-warmed at ticks only those delays make fire. The synchronous timer
#: fires twice, so its only pre-warm ticks are those late ones.
_LATE_CLOCK = (
    "timer+shaving", 400.0, -1.0, 60.0, None, 1,
    [
        (True, False, (120.0 * np.arange(10)).tolist(), 0.5, 1),
        (False, False, (1_080.0 - 0.5 + 0.05 * np.arange(40)).tolist(), 2.0, 1),
        (False, True, [k * _TICK for k in range(0, 19, 3)], 0.5, 3),
        (True, True, [600.0, 900.0], 0.5, 1),
    ],
)


@_SETTINGS
@given(case=cases())
@example(case=_LATE_CLOCK)
@example(case=("stepped-timer+shaving",) + _LATE_CLOCK[1:])
@example(case=("stepped-timer+edge-shaver",) + _LATE_CLOCK[1:])
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


def test_walker_asks_for_the_tick_an_event_lands_on():
    """An event exactly at the end of the decided ticks needs the tick
    that fires at it: the walker asks for it before handling the event,
    and a pre-warm there serves the event warm."""
    trace = _traces([(False, False, [0.0, 2 * _TICK], 0.5, 1)])[0]
    evaluator = RegionEvaluator(region_profile("R2"), engine="vector")
    walker = replay_function_coupled(
        trace.arrivals, trace.exec_s, np.arange(2), 60.0, 1, 30.0,
        evaluator._sampler_for(trace.spec), CongestionProfile(np.zeros(1)),
        trace.spec, False, 150.0, _TICK, 2, (), 2 * _TICK, None,
    )
    assert next(walker) == 2 * _TICK
    assert walker.send((((2, 1),), np.inf)) == np.inf
    try:
        walker.send((((2, 1),), np.inf))
    except StopIteration as done:
        outcome = done.value
    assert outcome.prewarm_hits == 1
    assert outcome.cold_times.tolist() == [0.0]

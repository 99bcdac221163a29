"""Differential property tests: closed-form schedules vs the tick machine.

For each built-in tick policy, :meth:`TickPolicy.horizon_schedule` must
return exactly the decisions that stepping a fresh policy through
:class:`~repro.mitigation.tick.TickMachine` produces over the same arrival
columns. Arrivals are drawn on coarse grids so the float edge cases land
exactly: arrivals at tick times, minute and day boundaries, bursts inside
one span, timer gaps at and below 1 s, periods equal to ``min_period_s``,
fire times exactly ``0`` and exactly ``lead_s + interval_s`` ahead of a
tick, and observation counts equal to ``min_observations``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.mitigation import (
    AsyncPeakShaver,
    HistogramPrewarmPolicy,
    TimerPrewarmPolicy,
)
from repro.mitigation.base import HorizonSchedule
from repro.mitigation.tick import SpanIndex, TickMachine, closed_form_schedule
from repro.workload.catalog import OBS_A, ResourceConfig, Runtime, TIMER_A
from repro.workload.function import FunctionSpec

_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Machine intervals: the default minute, divisors and non-divisors of it.
_INTERVALS = st.sampled_from([60.0, 30.0, 45.0, 90.0, 600.0])

#: Grid steps arrivals are drawn on: sub-second bursts, the timer-gap edge
#: (exactly 1 s), half minutes, minutes, and a step that walks day edges.
_QUANTA = st.sampled_from([0.5, 1.0, 30.0, 60.0, 120.0, 5_400.0])

#: Arrivals stay within the first day and a quarter: past one day edge,
#: few enough ticks to step the machine per example.
_T_MAX = 108_000.0


def _spec(fid: int, timer: bool) -> FunctionSpec:
    return FunctionSpec(
        function_id=fid, user_id=1, runtime=Runtime.PYTHON3,
        triggers=(TIMER_A,) if timer else (OBS_A,),
        config=ResourceConfig(300, 128), mean_exec_s=1.0,
        cpu_millicores=100, memory_mb=64,
        arrival_kind="timer" if timer else "poisson",
        timer_period_s=120.0, daily_rate=100.0, concurrency=1,
    )


@st.composite
def _grid_arrivals(draw):
    """Arbitrary arrivals on one grid: bursts, minute and day edges."""
    quantum = draw(_QUANTA)
    steps = draw(st.lists(
        st.integers(0, min(int(_T_MAX // quantum), 3_000)), max_size=40
    ))
    jitter = draw(st.sampled_from([0.0, 0.25, 1.0]))
    return np.asarray(steps, dtype=np.float64) * quantum + jitter


@st.composite
def _timer_arrivals(draw):
    """A periodic firing with echoes 0, 0.5 or exactly 1 s after some
    firings (gaps the period EMA must skip) and a few dropped firings."""
    period = draw(st.sampled_from([60.0, 90.0, 120.0, 150.0, 300.0]))
    phase = draw(st.sampled_from([0.0, 0.25, 30.0, 59.0]))
    count = draw(st.integers(0, min(int(_T_MAX // period), 400)))
    times = phase + period * np.arange(count, dtype=np.float64)
    keep = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    times = times[np.asarray(keep, dtype=bool) | (np.arange(count) < 3)]
    echo_gap = draw(st.sampled_from([0.0, 0.5, 1.0]))
    echoes = times[:: draw(st.integers(2, 9))] + echo_gap
    return np.concatenate([times, echoes])


@st.composite
def _function(draw):
    timer = draw(st.booleans())
    times = draw(_timer_arrivals() if draw(st.booleans()) else _grid_arrivals())
    return timer, np.sort(times)


def _workload(functions, interval, n_ticks=None):
    """``(specs, function_ids, span_index, interval_s, n_ticks)`` for a
    list of ``(is_timer, sorted arrival times)``; ``n_ticks=None`` is the
    whole clock (one tick past the last arrival's span)."""
    specs = [
        _spec(1000 + 7 * i, timer) for i, (timer, _) in enumerate(functions)
    ]
    fids = np.array([s.function_id for s in specs], dtype=np.int64)
    fn_t = [np.asarray(times, dtype=np.float64) for _, times in functions]
    all_t = np.concatenate(fn_t) if fn_t else np.zeros(0)
    all_fn = np.concatenate(
        [np.full(t.size, i, dtype=np.int64) for i, t in enumerate(fn_t)]
    ) if fn_t else np.zeros(0, dtype=np.int64)
    order = np.argsort(all_t, kind="stable")
    span_index = SpanIndex(all_t[order], all_fn[order], interval)
    if n_ticks is None:
        t_last = float(all_t.max()) if all_t.size else 0.0
        n_ticks = int(t_last // interval) + 2
    return specs, fids, span_index, interval, n_ticks


@st.composite
def workloads(draw):
    interval = draw(_INTERVALS)
    functions = draw(st.lists(_function(), max_size=5))
    full = _workload(functions, interval)
    # Mostly the whole clock; sometimes a cut one or the degenerate clocks.
    n_ticks = draw(st.sampled_from(
        [full[-1]] * 4 + [max(full[-1] // 2, 1), 1, 0]
    ))
    return full[:-1] + (n_ticks,)


#: Hand-placed edges every run checks, whatever hypothesis draws: timers
#: whose period equals ``min_period_s`` (120 s) and whose fire time sits
#: exactly ``0`` (phase 0) or exactly ``lead_s + interval_s`` (phase 30)
#: ahead of a tick, an echo exactly 1 s after a firing, a burst of equal
#: times, and a diurnal function crossing the day edge.
_EDGES = _workload(
    [
        (True, 120.0 * np.arange(40)),
        (True, 30.0 + 120.0 * np.arange(40)),
        (True, np.sort(np.r_[120.0 * np.arange(12), 241.0, 961.0])),
        (False, np.r_[[60.0] * 3, 86_340.0, 86_400.0, 86_400.0, 86_460.0]),
        (False, np.zeros(0)),
    ],
    60.0,
)


def _stepped(policies, specs, fids, span_index, interval, n_ticks):
    """Per-tick ``(sorted prewarm, shave)`` from stepping the machine."""
    machine = TickMachine(policies, specs, fids, interval)
    edges = span_index.edges(n_ticks)
    out = []
    for k in range(n_ticks):
        arrive_fn, arrive_t = span_index.span(k, edges)
        action = machine.step(
            k, arrive_fn=arrive_fn, arrive_t=arrive_t,
            alive_pods=0, congestion=0.0,
        )
        out.append((tuple(sorted(action.prewarm)), action.shave))
    return out


def _closed(schedule: HorizonSchedule):
    """The same per-tick view of a closed-form schedule."""
    per_tick = [[] for _ in range(schedule.n_ticks)]
    for k, fid, target in zip(
        schedule.prewarm_tick.tolist(), schedule.prewarm_fid.tolist(),
        schedule.prewarm_target.tolist(),
    ):
        per_tick[k].append((fid, target))
    shave = schedule.shave_directives() or [None] * schedule.n_ticks
    return [(tuple(sorted(p)), d) for p, d in zip(per_tick, shave)]


def _assert_sorted_per_function(schedule: HorizonSchedule):
    fid, tick = schedule.prewarm_fid, schedule.prewarm_tick
    for f in np.unique(fid):
        assert np.all(np.diff(tick[fid == f]) >= 0)


def _check(make_policies, workload):
    specs, fids, span_index, interval, n_ticks = workload
    policies = make_policies()
    closed = closed_form_schedule(
        policies, span_index, specs, fids, interval, n_ticks
    )
    assert closed is not None and closed.n_ticks == n_ticks
    _assert_sorted_per_function(closed)
    stepped = _stepped(
        make_policies(), specs, fids, span_index, interval, n_ticks
    )
    assert _closed(closed) == stepped
    # Causal: a shorter clock decides a prefix of the horizon (the vector
    # engine grows a schedule by deciding a longer one).
    half = n_ticks // 2
    shorter = closed_form_schedule(
        make_policies(), span_index, specs, fids, interval, half
    )
    assert _closed(shorter) == stepped[:half]
    # Pure: the caller's policies are untouched (still closed-form-able).
    again = closed_form_schedule(
        policies, span_index, specs, fids, interval, n_ticks
    )
    assert _closed(again) == _closed(closed)


@_SETTINGS
@given(
    workloads(),
    st.sampled_from([30.0, 15.0, 60.0]),
    st.sampled_from([90.0, 120.0, 60.0, 1e9]),
)
@example(_EDGES, 30.0, 120.0)
def test_timer_prewarm_matches_tick_machine(workload, lead_s, min_period_s):
    _check(
        lambda: [TimerPrewarmPolicy(lead_s=lead_s, min_period_s=min_period_s)],
        workload,
    )


@_SETTINGS
@given(
    workloads(),
    st.sampled_from([0.05, 0.3, 0.4, 1.0]),
    st.integers(0, 4),
    st.sampled_from([0, 1, 5, 1_439, 1_440]),
)
@example(_EDGES, 0.3, 3, 5)
def test_histogram_prewarm_matches_tick_machine(
    workload, threshold, min_observations, smooth_minutes
):
    _check(
        lambda: [HistogramPrewarmPolicy(
            threshold=threshold, min_observations=min_observations,
            smooth_minutes=smooth_minutes,
        )],
        workload,
    )


@_SETTINGS
@given(workloads(), st.sampled_from([45.0, 120.0]))
def test_peak_shaver_matches_tick_machine(workload, max_delay_s):
    _check(lambda: [AsyncPeakShaver(max_delay_s=max_delay_s)], workload)


@_SETTINGS
@given(workloads())
def test_combined_policies_match_tick_machine(workload):
    _check(
        lambda: [
            TimerPrewarmPolicy(lead_s=30.0, min_period_s=60.0),
            AsyncPeakShaver(max_delay_s=45.0),
        ],
        workload,
    )


def test_policy_interval_differs_from_machine_interval():
    """The timer's lead window adds the *policy's* interval while ``now``
    runs on the machine's — a finer clock set by another policy."""
    times = np.arange(0.0, 3_600.0, 120.0)
    specs = [_spec(5, True)]
    fids = np.array([5])
    span_index = SpanIndex(times, np.zeros(times.size, dtype=np.int64), 20.0)

    def make():
        policy = TimerPrewarmPolicy(lead_s=10.0, min_period_s=60.0)
        policy.interval_s = 45.0
        return [policy]

    _check(make, (specs, fids, span_index, 20.0, 190))


def test_stateful_or_overridden_policies_are_stepped():
    """Closed forms describe a fresh built-in policy and nothing else."""
    times = np.arange(0.0, 1_200.0, 60.0)
    specs = [_spec(3, True)]
    fids = np.array([3])
    span_index = SpanIndex(times, np.zeros(times.size, dtype=np.int64), 60.0)
    args = (span_index, specs, fids, 60.0, 21)

    used = TimerPrewarmPolicy()
    used.observe(specs[0], 0.0)
    assert used.horizon_schedule(*args) is None

    class Observing(TimerPrewarmPolicy):
        def observe(self, spec, t):
            super().observe(spec, t)

    class Deciding(HistogramPrewarmPolicy):
        def decide(self, tick, now):
            return super().decide(tick, now)

    class Gauged(AsyncPeakShaver):
        def gauge_peaking(self, tick, now):
            return self.load_ratio > 1.2

    for policy in (Observing(), Deciding(), Gauged()):
        assert policy.horizon_schedule(*args) is None
    assert closed_form_schedule([TimerPrewarmPolicy(), Gauged()], *args) is None
    assert TimerPrewarmPolicy().horizon_schedule(*args) is not None


def test_two_shavers_are_stepped():
    """Per-tick precedence between two shavers is the machine's to
    settle: the closed form declines, and the fold refuses them."""
    times = np.arange(0.0, 1_200.0, 60.0)
    specs = [_spec(3, False)]
    fids = np.array([3])
    span_index = SpanIndex(times, np.zeros(times.size, dtype=np.int64), 60.0)
    args = (span_index, specs, fids, 60.0, 21)
    shavers = [AsyncPeakShaver(max_delay_s=45.0), AsyncPeakShaver()]
    assert closed_form_schedule(shavers, *args) is None
    parts = [s.horizon_schedule(*args) for s in shavers]
    with pytest.raises(ValueError, match="shave columns"):
        HorizonSchedule.combine(parts)

"""Shared tick-clock machinery for the tick-phase policy protocol.

Both replay engines drive :class:`~repro.mitigation.base.TickPolicy`
machines through this module, which is what makes them bit-identical for
coupled policies:

* :class:`TickMachine` builds each tick's :class:`TickColumns` and folds
  the policies' :class:`TickAction` decisions — one code path, so a policy
  sees the identical arrays whichever engine produced them;
* :class:`SpanIndex` slices the globally sorted arrival stream into
  per-span columns (the policy-independent input both engines share);
* the canonical-order helpers reproduce the event loop's processing order
  (global time order; at equal times original arrivals before delayed
  re-arrivals, originals by merged position, re-arrivals by creation
  sequence) so batched float accumulations match the sequential loop bit
  for bit.

The tick clock itself is exact: tick ``k`` fires at ``k * interval_s``
(a product, never an accumulated sum), ticks fire while replay events
remain and never past the horizon, and an event at exactly tick time is
processed *after* the tick.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.mitigation.base import (
    HorizonSchedule,
    TickAction,
    TickColumns,
    TickPolicy,
)
from repro.obs.telemetry import get_telemetry

EMPTY_I = np.zeros(0, dtype=np.int64)
EMPTY_F = np.zeros(0, dtype=np.float64)


def tick_interval(policies: Sequence[TickPolicy]) -> float:
    """The shared tick clock: the finest interval any active policy asks for."""
    intervals = [float(p.interval_s) for p in policies]
    return min(intervals) if intervals else 60.0


def last_tick_index(limit: float, interval_s: float) -> int:
    """Largest ``k`` with ``k * interval_s <= limit`` under exact float
    comparison (-1 when no tick fits)."""
    if limit < 0.0:
        return -1
    k = int(limit / interval_s)
    while (k + 1) * interval_s <= limit:
        k += 1
    while k > 0 and k * interval_s > limit:
        k -= 1
    return k


def tick_index_of(t: float, interval_s: float, n_ticks: int) -> int:
    """Index of the tick whose action governs an event at time ``t``.

    The last tick fired at or before ``t``, clamped into the fired range
    ``[0, n_ticks)`` (events beyond the last tick stay governed by it).
    """
    k = last_tick_index(t, interval_s)
    if k < 0:
        return 0
    return k if k < n_ticks else n_ticks - 1


def tick_indices_of(t: np.ndarray, interval_s: float, n_ticks: int) -> np.ndarray:
    """Vectorized :func:`tick_index_of` (same exact float comparisons)."""
    k = (np.asarray(t, dtype=np.float64) / interval_s).astype(np.int64)
    k += ((k + 1) * interval_s <= t).astype(np.int64)
    k -= (k * interval_s > t).astype(np.int64)
    return np.clip(k, 0, max(n_ticks - 1, 0))


class SpanIndex:
    """Per-span slices of the globally sorted arrival columns.

    ``all_t`` must be sorted ascending (stable ties by trace order — the
    engines' shared merge order). Span ``k`` covers ``[(k-1) * I, k * I)``:
    the arrivals observed at tick ``k``. An arrival at exactly tick time
    belongs to the *next* span (the tick fires first).
    """

    def __init__(self, all_t: np.ndarray, all_fn: np.ndarray, interval_s: float):
        self.all_t = all_t
        self.all_fn = all_fn
        self.interval_s = float(interval_s)

    def edges(self, n_ticks: int) -> np.ndarray:
        """``edges[k]`` = first index with ``all_t >= k * interval_s``."""
        grid = np.arange(n_ticks) * self.interval_s
        return np.searchsorted(self.all_t, grid, side="left")

    def span(self, k: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if k == 0:
            return EMPTY_I, EMPTY_F
        lo, hi = int(edges[k - 1]), int(edges[k])
        return self.all_fn[lo:hi], self.all_t[lo:hi]


def combine_actions(actions: Sequence[TickAction]) -> TickAction:
    """Fold one tick's per-policy actions into the engine-facing action.

    Pre-warm plans concatenate in policy order; the first shave / route
    directive wins (one policy of each kind per evaluator).
    """
    prewarm: tuple = ()
    shave = route = None
    for action in actions:
        if action.prewarm:
            prewarm = prewarm + tuple(action.prewarm)
        if shave is None:
            shave = action.shave
        if route is None:
            route = action.route
    return TickAction(prewarm=prewarm, shave=shave, route=route)


def closed_form_schedule(
    policies, span_index: SpanIndex, specs, function_ids: np.ndarray,
    interval_s: float, n_ticks: int,
) -> HorizonSchedule | None:
    """The policy set's combined schedule of ticks ``[0, n_ticks)`` in
    closed form, or ``None`` when any policy must be stepped (or more
    than one shaves, whose per-tick precedence the machine settles). An
    empty policy set decides nothing: its schedule is empty.

    Each policy's call is booked on the same ``tick/policy/<Policy>_s``
    timer its machine steps would use.
    """
    if not policies:
        return HorizonSchedule(n_ticks)
    tel = get_telemetry()
    perf = time.perf_counter
    parts = []
    for policy in policies:
        t0 = perf()
        part = policy.horizon_schedule(
            span_index, specs, function_ids, interval_s, n_ticks
        )
        tel.time_add(f"tick/policy/{type(policy).__name__}_s", perf() - t0)
        if part is None:
            return None
        parts.append(part)
    if sum(p.shave_present is not None for p in parts) > 1:
        return None
    return HorizonSchedule.combine(parts)


class TickMachine:
    """Drives a policy set over the tick clock, one step per tick.

    The single source of truth for how :class:`TickColumns` are assembled
    and actions combined; the event engines step it inline, the vector
    engine over the arrival spans (outcome-free policies). The vector
    cross-region replay folds its merged cold starts straight into the
    router instead (``cross_region._route_in_time_order``).
    """

    def __init__(self, policies, specs, function_ids: np.ndarray, interval_s: float):
        self.policies = list(policies)
        self.specs = specs
        self.function_ids = function_ids
        self.interval_s = float(interval_s)
        self._timer_keys = [
            f"tick/policy/{type(p).__name__}_s" for p in self.policies
        ]

    def step(
        self,
        tick: int,
        *,
        arrive_fn: np.ndarray,
        arrive_t: np.ndarray,
        alive_pods: int,
        congestion: float,
        cold_fn: np.ndarray = EMPTY_I,
        cold_t: np.ndarray = EMPTY_F,
        cold_wait: np.ndarray = EMPTY_F,
        cold_region: np.ndarray = EMPTY_I,
    ) -> TickAction:
        now = tick * self.interval_s
        cols = TickColumns(
            tick=tick, now=now, specs=self.specs,
            function_ids=self.function_ids,
            arrive_fn=arrive_fn, arrive_t=arrive_t,
            alive_pods=int(alive_pods), congestion=float(congestion),
            cold_fn=cold_fn, cold_t=cold_t, cold_wait=cold_wait,
            cold_region=cold_region,
        )
        tel = get_telemetry()
        if not tel.enabled:
            for policy in self.policies:
                policy.observe_batch(cols)
            return combine_actions([p.decide(tick, now) for p in self.policies])
        # Profiled path: same observe-all-then-decide-all order, each
        # policy's share of the tick accumulated on its own timer.
        tel.count("tick/steps")
        perf = time.perf_counter
        for policy, key in zip(self.policies, self._timer_keys):
            t0 = perf()
            policy.observe_batch(cols)
            tel.time_add(key, perf() - t0)
        actions = []
        for policy, key in zip(self.policies, self._timer_keys):
            t0 = perf()
            actions.append(policy.decide(tick, now))
            tel.time_add(key, perf() - t0)
        return combine_actions(actions)


def canonical_event_order(
    times: np.ndarray, delayed: np.ndarray, tiebreak: np.ndarray
) -> np.ndarray:
    """Sort key reproducing the event loop's processing order.

    Events sort by time; at equal times original arrivals precede delayed
    re-arrivals (the merge pops the arrival stream first on ties),
    originals order by merged position (stable global sort) and delayed
    re-arrivals by delay-creation sequence — which equals their delaying
    arrival's merged position, because a request is never delayed twice.
    """
    return np.lexsort((tiebreak, delayed.astype(np.int64), times))

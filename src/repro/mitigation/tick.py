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

import copy
import time
import warnings
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
    than one shaves, whose per-tick precedence the machine settles).

    Each policy's call is booked on the same ``tick/policy/<Policy>_s``
    timer its machine steps would use; ``tick/horizon_ticks`` counts the
    ticks so decided (``tick/steps`` keeps counting machine steps).
    """
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
    if not parts or sum(p.shave_present is not None for p in parts) > 1:
        return None
    if n_ticks:
        tel.count("tick/horizon_ticks", n_ticks)
    return HorizonSchedule.combine(parts)


class TickMachine:
    """Drives a policy set over the tick clock, one step per tick.

    The single source of truth for how :class:`TickColumns` are assembled
    and actions combined; the event engine steps it inline while the
    vectorized engine replays it over candidate outcome trajectories.
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


class SchedulePass:
    """Checkpointed sequential policy-machine pass over the tick clock.

    One instance persists across a repair loop's rounds. Each round hands
    in the tick inputs implied by the current outcomes — canonically
    ordered cold columns and (for the coupled evaluator) the alive-pod
    gauge; the arrival spans are fixed by construction. The pass finds
    the first tick whose inputs differ from the previous round's, restores
    the policy machines from the nearest snapshot at or before it, reuses
    the previous schedule prefix, and re-steps only the suffix.

    Restoring is exact: snapshots are deep copies taken *before* the
    snapshot tick steps, and the machine state before tick ``c`` depends
    only on inputs at ticks ``< c``, which are elementwise identical up
    to the divergence point (both rounds' cold spans read only the shared
    prefix of the sorted cold columns there). A reused schedule entry is
    therefore the very action the machine would have re-emitted — same
    values *and* same directive objects, which keeps identity-compared
    custom directives stable across rounds.
    """

    def __init__(
        self, policies, specs, function_ids: np.ndarray, interval_s: float,
        span_index: SpanIndex, *, tick_congestion=None, checkpoint: bool = True,
    ):
        self._policies = list(policies)
        self._specs = specs
        self._function_ids = function_ids
        self._interval = float(interval_s)
        self._span_index = span_index
        self._tick_congestion = tick_congestion
        self._checkpoint = bool(checkpoint)
        # Snapshot at tick 0 is the pristine policy state; the caller's
        # instances are never stepped (every run deep-copies a snapshot).
        self._snapshots: list[tuple[int, list]] = [
            (0, copy.deepcopy(self._policies))
        ]
        self._prev: dict | None = None

    def _resume_tick(
        self, n_ticks, cold_t, cold_wait, cold_fn, cold_region, cold_edges,
        gauge,
    ) -> int:
        """First tick whose inputs may differ from the previous round."""
        prev = self._prev
        if prev is None or not self._checkpoint:
            return 0
        d = n_ticks if n_ticks == prev["n_ticks"] \
            else min(n_ticks, prev["n_ticks"])
        p_t, p_w, p_fn, p_r = prev["cold"]
        m = min(cold_t.size, p_t.size)
        neq = (
            (cold_t[:m] != p_t[:m])
            | (cold_wait[:m] != p_w[:m])
            | (cold_fn[:m] != p_fn[:m])
            | (cold_region[:m] != p_r[:m])
        )
        hit = np.flatnonzero(neq)
        if hit.size:
            p = int(hit[0])
        elif cold_t.size != p_t.size:
            p = m
        else:
            p = -1
        if p >= 0:
            # First tick whose cold span reaches past the common prefix,
            # in either round (identical prefixes guarantee the edge
            # arrays agree wherever both stay at or below ``p``).
            d = min(
                d,
                int(np.searchsorted(cold_edges, p, side="right")),
                int(np.searchsorted(prev["edges"], p, side="right")),
            )
        p_g = prev["gauge"]
        if gauge is not None and p_g is not None:
            gm = min(gauge.size, p_g.size)
            ghit = np.flatnonzero(gauge[:gm] != p_g[:gm])
            if ghit.size:
                d = min(d, int(ghit[0]))
        return d

    def run(
        self, n_ticks: int, *, cold_t, cold_wait, cold_fn, cold_region,
        gauge=None,
    ) -> list[TickAction]:
        """This round's decision schedule under the given tick inputs."""
        interval = self._interval
        cold_edges = np.searchsorted(
            cold_t, np.arange(n_ticks) * interval, side="left"
        )
        start = self._resume_tick(
            n_ticks, cold_t, cold_wait, cold_fn, cold_region, cold_edges,
            gauge,
        )
        si = 0
        for idx in range(len(self._snapshots)):
            if self._snapshots[idx][0] <= start:
                si = idx
            else:
                break
        start = self._snapshots[si][0]
        del self._snapshots[si + 1:]
        machine = TickMachine(
            copy.deepcopy(self._snapshots[si][1]), self._specs,
            self._function_ids, interval,
        )
        schedule = list(self._prev["schedule"][:start]) if self._prev else []
        arr_edges = self._span_index.edges(n_ticks)
        snap_every = max(32, n_ticks // 8)
        congestion_at = self._tick_congestion
        for k in range(start, n_ticks):
            if (
                self._checkpoint and k > self._snapshots[-1][0]
                and k % snap_every == 0
            ):
                self._snapshots.append((k, copy.deepcopy(machine.policies)))
            arrive_fn, arrive_t = self._span_index.span(k, arr_edges)
            lo, hi = (
                (0, 0) if k == 0
                else (int(cold_edges[k - 1]), int(cold_edges[k]))
            )
            schedule.append(
                machine.step(
                    k,
                    arrive_fn=arrive_fn,
                    arrive_t=arrive_t,
                    alive_pods=int(gauge[k]) if gauge is not None else 0,
                    congestion=(
                        congestion_at(k) if congestion_at is not None else 0.0
                    ),
                    cold_fn=cold_fn[lo:hi],
                    cold_t=cold_t[lo:hi],
                    cold_wait=cold_wait[lo:hi],
                    cold_region=cold_region[lo:hi],
                )
            )
        self._prev = {
            "n_ticks": n_ticks,
            "edges": cold_edges,
            "gauge": gauge,
            "cold": (cold_t, cold_wait, cold_fn, cold_region),
            "schedule": schedule,
        }
        tel = get_telemetry()
        if tel.enabled:
            tel.count_many((
                ("repair/ticks_replayed", n_ticks - start),
                ("repair/ticks_restored", start),
            ))
        return schedule


class RepairDriver:
    """The fixed-point repair loop shared by both tick-partitioned engines.

    Replays live under a *candidate* decision schedule; the loop re-runs
    the policy machine over the resulting outcome columns, fingerprints
    what the new schedule makes each item's replay read, and re-replays
    only the items whose fingerprint changed. When no fingerprint moves,
    the (schedule, outcomes) pair is self-consistent — i.e. the event
    engine's sequential trajectory. The loop is engine-agnostic; callers
    parameterize it with callbacks:

    ``bind_schedule(round_idx, outcomes) -> ctx``
        Run the policy machine for this round (normally through a
        persistent :class:`SchedulePass`) and return whatever context the
        other callbacks need to read the schedule.
    ``fingerprint(i, outcome, ctx) -> hashable``
        What the bound schedule makes item ``i``'s replay read.
    ``replay(i, ctx) -> outcome``
        Exact re-replay of item ``i`` under the bound schedule.
    ``prepare_round(round_idx, outcomes) -> bool`` (optional)
        Per-round state refresh before the machine pass; returning True
        declares convergence without binding a schedule (the coupled
        evaluator's outcome-free short-circuit).
    ``reuse_base(i, fp, ctx) -> outcome | None`` (optional)
        A cached outcome that *is* the exact replay under the bound
        schedule, or None to force a replay.
    """

    #: Repair rounds before the vector mode concedes the schedule will
    #: not settle and replays on the event engine instead (exact either
    #: way; the cap only bounds wasted work).
    _MAX_REPAIR_ROUNDS = 10

    def __init__(
        self, n_items: int, *, bind_schedule, fingerprint, replay,
        prepare_round=None, reuse_base=None, what: str = "fixed-point",
    ):
        self.n_items = int(n_items)
        self.bind_schedule = bind_schedule
        self.fingerprint = fingerprint
        self.replay = replay
        self.prepare_round = prepare_round
        self.reuse_base = reuse_base
        self.what = what

    def run(self, outcomes: list, used_rel: list, name: str = "") -> bool:
        """Repair ``outcomes`` in place; True iff the schedule settled.

        ``used_rel[i]`` must hold the fingerprint item ``i``'s current
        outcome was replayed under; it is kept in sync as items replay.
        On False the caller must discard the outcomes and fall back to
        its sequential event engine (the warning and counter are already
        emitted here — one concession path for every engine).
        """
        n = self.n_items
        converged = False
        n_rounds = n_rereplayed = n_base_reuses = 0
        n_hits = n_misses = 0
        for round_idx in range(self._MAX_REPAIR_ROUNDS):
            n_rounds += 1
            if self.prepare_round is not None and self.prepare_round(
                round_idx, outcomes
            ):
                converged = True
                break
            ctx = self.bind_schedule(round_idx, outcomes)
            rels = [
                self.fingerprint(i, outcomes[i], ctx) for i in range(n)
            ]
            affected = [i for i in range(n) if rels[i] != used_rel[i]]
            n_misses += len(affected)
            n_hits += n - len(affected)
            if not affected:
                converged = True
                break
            for i in affected:
                cached = (
                    self.reuse_base(i, rels[i], ctx)
                    if self.reuse_base is not None else None
                )
                if cached is not None:
                    outcomes[i] = cached
                    used_rel[i] = rels[i]
                    n_base_reuses += 1
                else:
                    n_rereplayed += 1
                    outcomes[i] = self.replay(i, ctx)
                    used_rel[i] = self.fingerprint(i, outcomes[i], ctx)
        tel = get_telemetry()
        if tel.enabled:
            tel.count_many((
                ("repair/rounds", n_rounds),
                ("repair/functions_rereplayed", n_rereplayed),
                ("repair/base_reuses", n_base_reuses),
                ("repair/fingerprint_hits", n_hits),
                ("repair/fingerprint_misses", n_misses),
            ))
        if not converged:
            warnings.warn(
                f"{self.what} repair did not settle within "
                f"{self._MAX_REPAIR_ROUNDS} rounds for {name!r}; replaying "
                "on the sequential event engine (exact, slower)",
                RuntimeWarning,
                stacklevel=3,
            )
            tel.count("repair/event_fallbacks")
        return converged

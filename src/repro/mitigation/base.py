"""Shared interfaces and metrics for policy evaluation.

:class:`EvalMetrics` is built on the mergeable accumulators of
:mod:`repro.analysis.accumulators`: cold-start waits live in a fixed-bin
:class:`~repro.analysis.accumulators.LogHistogram` (mean exact, p95 within
one bin ratio), allocation times in per-minute
:class:`~repro.analysis.accumulators.BinnedSeries` counts, and the
per-tick pod gauge in a :class:`~repro.analysis.accumulators.TickGauge` —
so an evaluator shard's metrics are bounded-memory and two shards reduce
associatively via :meth:`EvalMetrics.merge` regardless of workload length.

Policy protocol
---------------

Mitigation policies are **tick-phase state machines** (:class:`TickPolicy`):
on a shared minute clock the replay engine hands each policy the previous
tick span's arrivals and outcomes as structure-of-arrays columns
(:meth:`TickPolicy.observe_batch`) and asks for the decisions governing the
next span (:meth:`TickPolicy.decide`, a :class:`TickAction`). Because every
policy input is batched at tick boundaries and every within-span rule is a
pure function of (the tick's action, the arrival, per-function state), both
replay engines — the event loop and the vectorized tick-partitioned replay
— drive the *same* policy object through the *same* column arrays and stay
bit-identical (``tests/test_vector_engine.py``).

Policies whose decisions depend only on arrivals may also answer
:meth:`TickPolicy.horizon_schedule`: the whole schedule as a
:class:`HorizonSchedule` in one call, which lets the vectorized engine skip
stepping the machine tick by tick.

:class:`PrewarmPolicy` and :class:`PeakShaver` are the typed bases of the
two policy families; they fix which column groups each family reads
(:attr:`TickPolicy.needs`) and leave :meth:`~TickPolicy.observe_batch`/
:meth:`~TickPolicy.decide` to the subclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.accumulators import BinnedSeries, LogHistogram, TickGauge
from repro.workload.function import FunctionSpec


def _wait_histogram() -> LogHistogram:
    """Cold-wait sketch: 512 log bins over 0.1 ms .. 10 000 s (~3.7 %/bin)."""
    return LogHistogram()


def _minute_counts() -> BinnedSeries:
    return BinnedSeries(60.0, track_sums=False)


@dataclass
class EvalMetrics:
    """Outcome of one policy run over a workload.

    Attributes:
        name: label of the evaluated policy combination.
        requests: user requests served.
        cold_starts: user-facing cold starts (a request found no warm pod).
        warm_hits: requests served by an already-warm pod.
        prewarm_hits: warm hits on a pod created by a pre-warming policy.
        cold_wait: histogram sketch of cold-start latencies experienced by
            triggering requests (mean/total exact; quantiles one-bin).
        cold_start_minutes: per-minute cold-start (allocation) counts.
        delayed_requests: requests postponed by peak shaving.
        total_delay_s: cumulative artificial delay added by peak shaving.
        pod_seconds: total pod lifetime paid for (the cost axis).
        prewarm_creations: pods created proactively by the policy.
        prewarm_pod_seconds: pod time spent by proactively created pods.
        peak_pods: maximum concurrently-alive pods observed at ticks.
        pods_gauge: per-tick alive-pod gauge (shards sum element-wise).
        cold_starts_by_region: cold-start placements per region name
            (cross-region replays only; empty otherwise). Merges by
            per-key addition, so routing shares are pure functions of the
            merged metrics rather than evaluator state.
    """

    name: str = ""
    requests: int = 0
    cold_starts: int = 0
    warm_hits: int = 0
    prewarm_hits: int = 0
    cold_wait: LogHistogram = field(default_factory=_wait_histogram)
    cold_start_minutes: BinnedSeries = field(default_factory=_minute_counts)
    delayed_requests: int = 0
    total_delay_s: float = 0.0
    pod_seconds: float = 0.0
    prewarm_creations: int = 0
    prewarm_pod_seconds: float = 0.0
    peak_pods: int = 0
    pods_gauge: TickGauge = field(default_factory=TickGauge)
    cold_starts_by_region: dict[str, int] = field(default_factory=dict)

    # -- recording ----------------------------------------------------------

    def record_cold(self, wait_s: float, now_s: float | None = None) -> None:
        """Count one cold start: its wait and (optionally) when it happened."""
        self.cold_starts += 1
        self.cold_wait.add_one(float(wait_s))
        if now_s is not None:
            self.cold_start_minutes.add_one(float(now_s))

    def record_cold_batch(self, waits_s: np.ndarray, times_s: np.ndarray) -> None:
        """Record many cold starts at once (both replay engines use this).

        Callers pass the events in the replay's canonical order (global
        time order, ties by trace order) so the histogram's float
        accumulations are identical whichever engine produced them.
        """
        waits_s = np.asarray(waits_s, dtype=np.float64)
        times_s = np.asarray(times_s, dtype=np.float64)
        if not waits_s.size:
            return
        self.cold_starts += int(waits_s.size)
        self.cold_wait.add(waits_s)
        self.cold_start_minutes.add(times_s)

    def record_tick(self, alive_pods: int) -> None:
        """Record one gauge tick (ticks share an absolute grid across shards)."""
        self.pods_gauge.record(alive_pods)
        self.peak_pods = max(self.peak_pods, int(alive_pods))

    def record_tick_batch(self, alive_pods: np.ndarray) -> None:
        """Record a whole gauge series at once (the vector engine's path)."""
        alive_pods = np.asarray(alive_pods)
        if not alive_pods.size:
            return
        self.pods_gauge.extend(alive_pods)
        self.peak_pods = max(self.peak_pods, int(alive_pods.max()))

    # -- reading ------------------------------------------------------------

    @property
    def cold_start_ratio(self) -> float:
        return self.cold_starts / self.requests if self.requests else 0.0

    def mean_cold_wait_s(self) -> float:
        """Exact (the sketch tracks the raw sum alongside bin counts)."""
        return self.cold_wait.mean if self.cold_wait.n else 0.0

    def p95_cold_wait_s(self) -> float:
        """Within one histogram bin (~3.7 %) of the sample P95."""
        return self.cold_wait.quantile(0.95) if self.cold_wait.n else 0.0

    def record_region_cold(self, region: str, count: int = 1) -> None:
        """Attribute ``count`` cold-start placements to ``region``."""
        self.cold_starts_by_region[region] = (
            self.cold_starts_by_region.get(region, 0) + int(count)
        )

    def remote_cold_share(self, home: str) -> float:
        """Fraction of region-attributed cold starts placed away from ``home``.

        A pure function of the (merged) metrics — no evaluator state —
        so it reads identically off any shard schedule.
        """
        total = sum(self.cold_starts_by_region.values())
        if not total:
            return 0.0
        return 1.0 - self.cold_starts_by_region.get(home, 0) / total

    def peak_allocations_per_minute(self) -> int:
        """Largest number of pod allocations (cold starts) in any minute.

        This is the quantity the paper's peak-shaving discussion targets:
        delaying asynchronous allocations flattens allocation bursts even
        when the standing pod population barely moves. Exact: per-minute
        counts merge by addition.
        """
        counts = self.cold_start_minutes.counts
        return int(counts.max()) if counts.size else 0

    # -- merging ------------------------------------------------------------

    def merge(self, other: "EvalMetrics") -> "EvalMetrics":
        """Fold another shard's metrics in; associative and plan-order safe.

        Counters, costs, and histograms add; the pod gauge sums element-wise
        on the shared tick grid and ``peak_pods`` is recomputed from the
        summed series so re-merging stays associative.
        """
        self.requests += other.requests
        self.cold_starts += other.cold_starts
        self.warm_hits += other.warm_hits
        self.prewarm_hits += other.prewarm_hits
        self.cold_wait.merge(other.cold_wait)
        self.cold_start_minutes.merge(other.cold_start_minutes)
        self.delayed_requests += other.delayed_requests
        self.total_delay_s += other.total_delay_s
        self.pod_seconds += other.pod_seconds
        self.prewarm_creations += other.prewarm_creations
        self.prewarm_pod_seconds += other.prewarm_pod_seconds
        self.pods_gauge.merge(other.pods_gauge)
        for region, count in other.cold_starts_by_region.items():
            self.cold_starts_by_region[region] = (
                self.cold_starts_by_region.get(region, 0) + count
            )
        self.peak_pods = (
            int(self.pods_gauge.peak())
            if len(self.pods_gauge)
            else max(self.peak_pods, other.peak_pods)
        )
        return self

    def summary(self) -> dict[str, object]:
        """Flat printable row for policy comparison tables."""
        return {
            "policy": self.name,
            "requests": self.requests,
            "cold_starts": self.cold_starts,
            "cold_ratio": round(self.cold_start_ratio, 4),
            "mean_cold_s": round(self.mean_cold_wait_s(), 3),
            "p95_cold_s": round(self.p95_cold_wait_s(), 3),
            "prewarm_hits": self.prewarm_hits,
            "delayed": self.delayed_requests,
            "pod_hours": round(self.pod_seconds / 3600.0, 2),
            "peak_pods": self.peak_pods,
            "peak_alloc_per_min": self.peak_allocations_per_minute(),
        }


# --- tick-phase policy protocol ---------------------------------------------


@dataclass
class TickColumns:
    """One tick span's inputs, as structure-of-arrays columns.

    Handed to :meth:`TickPolicy.observe_batch` at tick ``k`` (time
    ``now = k * interval_s``); the arrival/cold columns cover the span
    ``[now - interval_s, now)`` in the engines' canonical processing order
    (global time order, ties resolved the way the event loop resolves
    them), so every policy sees the identical arrays whichever engine
    built them.

    Attributes:
        tick: tick ordinal ``k`` (0 fires before any arrival).
        now: tick time ``k * interval_s``.
        specs: per-trace-index function specs (``arrive_fn`` indexes it).
        function_ids: per-trace-index function ids (vectorized id lookup).
        arrive_fn: trace indices of the span's (original) arrivals.
        arrive_t: their arrival times.
        alive_pods: pod gauge at this tick, after expiry (cross-region
            replays track no gauge and pass 0 at every tick).
        congestion: exogenous per-minute congestion at ``now``
            (cross-region replays price cold starts at zero congestion
            and pass 0.0).
        cold_fn: trace indices of the span's cold starts.
        cold_t: their times.
        cold_wait: their sampled cold-start durations (no routing penalty).
        cold_region: their placement region index (0 = home; all zeros
            outside cross-region replays).
    """

    tick: int
    now: float
    specs: Sequence[FunctionSpec]
    function_ids: np.ndarray
    arrive_fn: np.ndarray
    arrive_t: np.ndarray
    alive_pods: int
    congestion: float
    cold_fn: np.ndarray
    cold_t: np.ndarray
    cold_wait: np.ndarray
    cold_region: np.ndarray


@dataclass(frozen=True)
class ShaveDirective:
    """Peak-shaving rule for the next span, fixed at the tick boundary.

    A cold-bound, asynchronous, not-previously-delayed arrival at time
    ``t`` is delayed iff ``gauge_active`` (the policy saw the pod gauge
    peaking at the tick) or the exogenous congestion at ``t`` exceeds
    ``congestion_trigger``. The delay amount is a deterministic,
    *function-local* golden-ratio stagger — no cross-function state — so
    both engines compute it independently per function.
    """

    gauge_active: bool
    congestion_trigger: float
    max_delay_s: float

    _PHI = 0.6180339887
    _FN_PHASE = 0.7548776662  # plastic-number conjugate: decorrelates fids

    def delay_for(
        self, spec: FunctionSpec, now: float, congestion: float, n_delayed: int
    ) -> float:
        """Seconds to hold this arrival back (0 = run now).

        ``n_delayed`` counts the function's previously delayed requests in
        this replay; together with the function id it smears re-arrivals
        across the delay budget so shaved peaks do not re-stampede.
        """
        if not self.gauge_active and congestion <= self.congestion_trigger:
            return 0.0
        phase = (
            self._PHI * (n_delayed + 1)
            + self._FN_PHASE * float(spec.function_id % 8192)
        ) % 1.0
        return self.max_delay_s * (0.1 + 0.9 * phase)


@dataclass(frozen=True)
class RouteDirective:
    """Cold-start placement for the next span (cross-region replays).

    ``region`` is the region *index* (0 = home) new pods are created in;
    ``penalty_s`` the network latency each routed cold start pays.
    """

    region: int
    penalty_s: float


@dataclass(frozen=True)
class TickAction:
    """What the policies want applied from this tick until the next.

    ``prewarm`` maps function ids to desired *idle* warm pod counts,
    applied immediately at the tick; ``shave`` and ``route`` govern the
    span that follows.
    """

    prewarm: tuple[tuple[int, int], ...] = ()
    shave: "ShaveDirective | None" = None
    route: "RouteDirective | None" = None


def _no_ints() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class HorizonSchedule:
    """A whole decision schedule over ticks ``[0, n_ticks)``, as arrays.

    The structure-of-arrays form of ``n_ticks`` consecutive
    :class:`TickAction` values (see :meth:`TickPolicy.horizon_schedule`):

    * pre-warm entries ``(prewarm_tick[j], prewarm_fid[j],
      prewarm_target[j])`` — the ``(function id, target)`` pairs
      :attr:`TickAction.prewarm` carries at that tick, sorted per
      function by tick;
    * per-tick :class:`ShaveDirective` columns (``shave_present[k]``
      False where the tick's action has no directive), or all ``None``
      when no tick shaves.
    """

    n_ticks: int
    prewarm_tick: np.ndarray = field(default_factory=_no_ints)
    prewarm_fid: np.ndarray = field(default_factory=_no_ints)
    prewarm_target: np.ndarray = field(default_factory=_no_ints)
    shave_present: np.ndarray | None = None
    shave_gauge_active: np.ndarray | None = None
    shave_trigger: np.ndarray | None = None
    shave_max_delay: np.ndarray | None = None

    @classmethod
    def combine(cls, schedules: Sequence["HorizonSchedule"]) -> "HorizonSchedule":
        """Fold per-policy schedules the way ``combine_actions`` folds one
        tick's actions: pre-warm entries concatenate in policy order
        within a tick. At most one schedule may carry shave columns
        (:func:`~repro.mitigation.tick.closed_form_schedule` steps any
        policy set with more), and the fold takes them as they are."""
        if len(schedules) == 1:
            return schedules[0]
        shaving = [s for s in schedules if s.shave_present is not None]
        if len(shaving) > 1:
            raise ValueError("at most one schedule may carry shave columns")
        shave = shaving[0] if shaving else cls(0)
        tick = np.concatenate([s.prewarm_tick for s in schedules])
        order = np.argsort(tick, kind="stable")
        return cls(
            schedules[0].n_ticks, tick[order],
            np.concatenate([s.prewarm_fid for s in schedules])[order],
            np.concatenate([s.prewarm_target for s in schedules])[order],
            shave.shave_present, shave.shave_gauge_active,
            shave.shave_trigger, shave.shave_max_delay,
        )

    def shave_directives(self) -> "list[ShaveDirective | None] | None":
        """Per-tick directive objects for the replay kernels (``None``
        when no tick shaves). One object per run of equal ticks."""
        if self.shave_present is None or not self.shave_present.any():
            return None
        cols = (
            self.shave_present, self.shave_gauge_active,
            self.shave_trigger, self.shave_max_delay,
        )
        change = np.zeros(self.n_ticks, dtype=bool)
        change[0] = True
        for col in cols:
            change[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(change).tolist() + [self.n_ticks]
        directives: list = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            directive = (
                ShaveDirective(
                    gauge_active=bool(self.shave_gauge_active[lo]),
                    congestion_trigger=float(self.shave_trigger[lo]),
                    max_delay_s=float(self.shave_max_delay[lo]),
                )
                if self.shave_present[lo] else None
            )
            directives.extend([directive] * (hi - lo))
        return directives


class TickPolicy:
    """A mitigation policy as a batched tick-phase state machine.

    The replay engines call :meth:`observe_batch` at every tick with the
    previous span's columns, then :meth:`decide` for the actions governing
    the next span. Implementations must be deterministic functions of the
    column stream, and ``copy.deepcopy``-able.

    Policy instances are consumed per ``run``. The event engine steps the
    caller's objects in place; the vectorized engine steps deep copies
    (so a rerun of the same evaluator replays identically), leaving the
    caller's instances untouched — metrics are bit-identical either way,
    but post-run inspection of policy state is only defined under
    ``engine="event"``.
    """

    #: seconds between ticks (engines use the minimum over active policies).
    interval_s: float = 60.0

    #: Which column groups :meth:`observe_batch` reads. ``"arrivals"`` is
    #: policy-independent input; ``"gauge"`` and ``"colds"`` are replay
    #: outcomes, known only in time order: ``engine="vector"`` runs a
    #: policy set whose decisions read them on the event engine.
    needs: frozenset = frozenset({"arrivals"})

    @property
    def outcome_free_decisions(self) -> bool:
        """True when :meth:`decide`'s action stream never depends on
        replay outcomes (even if :meth:`observe_batch` reads them). The
        vectorized engine then decides the whole schedule before any
        replay; otherwise it runs the set on the event engine."""
        return self.needs <= frozenset({"arrivals"})

    def observe_batch(self, cols: TickColumns) -> None:
        """Absorb one tick span's columns (default: no training signal)."""

    def decide(self, tick: int, now: float) -> TickAction:
        """Actions for the span starting at ``now``."""
        raise NotImplementedError

    def horizon_schedule(
        self, span_index, specs: Sequence[FunctionSpec],
        function_ids: np.ndarray, interval_s: float, n_ticks: int,
    ) -> HorizonSchedule | None:
        """The whole decision schedule of ticks ``[0, n_ticks)`` in one call.

        An optional closed form of stepping a *fresh* copy of this policy
        through :meth:`observe_batch`/:meth:`decide` over the arrival
        spans of ``span_index`` (a :class:`~repro.mitigation.tick.SpanIndex`)
        on a clock of ``interval_s``. It must equal the stepped schedule
        exactly and must not mutate ``self``. The default ``None`` means
        "step me": the vectorized engine then runs the tick machine.
        Only outcome-free policies can answer, since the arrival columns
        are the only input.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


#: The hooks through which a subclass can change a built-in policy's
#: decision stream (``gauge_peaking`` only exists on the shaver).
_DECISION_HOOKS = ("observe", "observe_batch", "decide", "gauge_peaking")


def keeps_decision_hooks(policy: TickPolicy, owner: type) -> bool:
    """True when ``policy`` runs ``owner``'s own decision hooks — the
    guard both for outcome-freedom and for closed-form schedules, which
    describe the built-in hooks and nothing a subclass put in them."""
    cls = type(policy)
    return all(
        getattr(cls, hook, None) is getattr(owner, hook, None)
        for hook in _DECISION_HOOKS
    )


class PrewarmPolicy(TickPolicy):
    """Decides which functions should have spare warm pods, per tick.

    :meth:`decide` returns the desired idle warm pods per function id in
    :attr:`TickAction.prewarm`; :meth:`observe_batch` reads only the
    arrival columns, so the decision stream is outcome-free.
    """

    needs = frozenset({"arrivals"})


class PeakShaver(TickPolicy):
    """Decides whether cold-bound asynchronous requests may be postponed.

    :meth:`decide` freezes the next span's rule into a
    :attr:`TickAction.shave` directive (a pure :class:`ShaveDirective`);
    :meth:`observe_batch` reads the tick's pod gauge.
    """

    needs = frozenset({"gauge"})

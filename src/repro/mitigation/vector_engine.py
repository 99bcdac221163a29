"""Vectorized structure-of-arrays replay engine (the evaluator fast path).

The event-driven evaluator walks every request through Python-level pod
bookkeeping; this module replays function by function with precomputed
structure-of-arrays walks instead. The evaluator's one vector driver
fixes the tick decision schedule first (empty when no policy runs), then
replays each function once: :func:`replay_function_coupled` for a
function some decision touches, :func:`_replay_walk` for every other
one (per-function keep-alive only — its pod state depends on no other
function). The walk's regimes:

* **Steady idle-warm stretches** — each arrival finds its function's one
  pod idle, so the slot end is exactly ``t + e`` — are the common case by
  far and cost *zero* per-arrival work: a whole-function vectorized pass
  precomputes the positions deviating from the steady state, and the walk
  jumps from candidate to candidate.
* **Sparse stretches** (every remaining inter-arrival gap exceeds the
  keep-alive — timers past the keep-alive, the long tail of rarely-invoked
  functions) are resolved by *speculation*: price the next block of
  arrivals as if all of them were cold starts, verify the keep-alive death
  condition vectorized, and accept the longest valid prefix in one shot.
* **Queueing blips** (an arrival while the pod is busy) and multi-pod
  **episodes** (a burst whose queue wait exceeds the patience, forcing
  concurrent pods) are resolved with exact scalar steps: a slot-end heap
  for single-slot pods (O(log pods) per arrival), a generic multi-slot
  loop otherwise — handing back to the steady walk as soon as the pod
  population is one and idle.

:func:`replay_function_coupled` replays one function under a tick
decision schedule (pre-warm targets, shave directives) with the same
kinds of regime: chain jumps over steady stretches of a calm pod set, a
galloping batched slot-exhaustion sweep for busy multi-slot pods, and a
slot-end heap for single-slot episodes. Pre-warm ticks are applied one
gap between events at a time by one routine, which skips the ticks that
pods already idle in the gap cover with one bisection.

Every float operation along these paths is the same one the event engine
performs per request — an idle warm hit ends at ``fl(t + e)``, a queued
one at ``fl(E_prev + e)``, a pod dies at ``fl(E + ka)`` — which is what
keeps the two engines bit-identical rather than merely equal to rounding.
Cold-start latencies come from per-function
:class:`~repro.sim.latency.FunctionColdSampler` draws and congestion from
the exogenous per-minute :class:`~repro.mitigation.evaluator
.CongestionProfile`, both shared with the event engine
(``tests/test_vector_engine.py`` and ``tests/test_properties_coupled.py``
pin the equivalence).

Per function the engine returns a :class:`CoupledReplay` —
structure-of-arrays pod tables plus the cold-start and delay events —
from which the caller assembles gauge ticks, pod-second credits, and
histogram updates in a canonical order independent of the engine that
produced them.
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.mitigation.tick import EMPTY_F, EMPTY_I, tick_index_of
from repro.obs.telemetry import get_telemetry

#: Upper bound on arrivals priced per speculation attempt.
_SPEC_CHUNK = 1024

#: Minimum >keep-alive gap run length that justifies pricing a block of
#: cold starts speculatively (below it, the per-attempt batch overhead
#: exceeds the scalar path's cost).
_SPEC_MIN_RUN = 8

#: Upper bound on arrivals examined per batched slot-exhaustion sweep in
#: the coupled multi-slot walk (``replay_function_coupled``, conc > 1).
_EP_CHUNK = 2048


def _next_width(accepted: int, cap: int) -> int:
    """The next block width of an adaptive walk: twice the prefix the last
    block accepted, so a fully accepted block doubles and a violation
    shrinks it, kept within ``[_SPEC_MIN_RUN, cap]``."""
    return min(cap, max(_SPEC_MIN_RUN, 2 * accepted))


def _candidates(t: np.ndarray, idle_end: np.ndarray, ka: float, conc: int) -> list[int]:
    """Arrival positions where a steady one-pod walk may deviate, then ``n``.

    Between candidates, a pod that serves every arrival at ``start = t``
    ends each at ``idle_end = t + e`` and stays alive. A single-slot pod
    deviates on any overlap with the previous request's end (or on its
    death). A multi-slot pod serves sub-capacity overlap at once, so only
    slot exhaustion — the steady in-flight count reaching the concurrency
    — or a possible death deviates. The in-flight count before arrival k
    is ``k - #{ends <= t_k}`` (an end j > k cannot precede t_k, and an end
    at exactly t_k frees its slot, the strict ``end > now`` rule).
    """
    n = t.size
    if n < 2:
        return [n]
    steady_prev = idle_end[:-1]
    if conc == 1:
        deviating = (t[1:] >= steady_prev + ka) | (t[1:] < steady_prev)
    else:
        inflight = np.arange(n) - np.searchsorted(
            np.sort(idle_end), t, side="right"
        )
        deviating = (t[1:] >= steady_prev + ka) | (inflight[1:] >= conc)
    return (np.flatnonzero(deviating) + 1).tolist() + [n]


@dataclass
class CoupledReplay:
    """One function's replay outcome in structure-of-arrays form.

    Pod tables (creation time, death time, pre-warm flag) plus every
    event a decision schedule can produce: cold starts, delayed-arrival
    events (original time, delay seconds, delaying arrival's merged
    position), and the canonical tie-break columns that let the caller
    reproduce the event loop's processing order exactly
    (``cold_delayed`` marks colds whose triggering request was a delayed
    re-arrival; ``cold_tiebreak`` is the merged position of the original —
    for re-arrivals, the delaying — arrival). ``pod_death`` is the pod's
    final ``last_activity + keepalive``, uncapped; the caller applies the
    horizon and closeout credit rules.
    """

    requests: int
    warm_hits: int
    prewarm_hits: int
    prewarm_creations: int
    cold_times: np.ndarray
    cold_waits: np.ndarray
    cold_delayed: np.ndarray
    cold_tiebreak: np.ndarray
    delay_t: np.ndarray
    delay_s: np.ndarray
    delay_pos: np.ndarray
    pod_created: np.ndarray
    pod_death: np.ndarray
    pod_prewarmed: np.ndarray
    last_event_t: float


def replay_function_coupled(
    t: np.ndarray,
    e: np.ndarray,
    merged_pos: np.ndarray,
    ka: float,
    conc: int,
    patience: float,
    sampler,
    congestion,
    spec,
    sync: bool,
    grace: float,
    interval_s: float,
    n_ticks: int,
    prewarm,
    covered_s: float,
    shave_schedule,
) -> Generator[float, tuple, CoupledReplay]:
    """Exact per-function replay under a fixed tick decision schedule.

    The event engine's per-request pod rules for *one* function — same
    slot-search rule (earliest feasible start, ties to the earliest
    created pod), same queue-patience, pre-warm grace and death-time
    semantics, same float operations per request — driven by the
    function's own arrivals, its delayed re-arrivals, and the schedule
    slice that concerns it: ``prewarm`` (the ascending tick times and
    targets of the pre-warm entries naming this function, as a pair of
    sequences) and ``shave_schedule`` (the per-tick shave directives, or
    ``None`` when no shaver runs). Given the schedule, the function
    replays independently of every other function, which is what lets the
    tick-partitioned vector engine replay only the functions a decision
    actually touches.

    Most arrivals are retired in bulk, as by :func:`_replay_walk`: steady
    stretches of a calm (all idle) pod set by a chain jump, unsaturated
    spans of a busy multi-slot pod by a galloping slot-exhaustion sweep,
    and single-slot episodes with several pods (or one busy pod) from a
    slot-end heap. Only the rest take the exact scalar step. Pre-warm
    ticks are applied one gap between events at a time by one routine
    (``prewarm_gap``), whatever regime the gap falls in.

    The replay is a generator, because delayed re-arrivals can run the
    tick clock past the ticks the caller has decided. ``prewarm`` is
    complete for every tick before ``covered_s``; before an event at or
    past it the walker yields the event's time and expects to be sent
    ``(prewarm, covered_s)`` of a schedule that covers it. After its last
    event the walker yields ``inf`` and expects the slice of the final
    schedule — only the ticks that fired, which depends on every
    function's events — for its trailing pre-warm sweep; it then returns
    the :class:`CoupledReplay`.
    """
    n = t.size
    # Pod columns in creation order. ``untouched`` marks pre-warmed pods no
    # request has reached yet: they live ``grace_ka`` past their last
    # activity, every other pod ``ka``.
    created: list[float] = []
    ready: list[float] = []
    last: list[float] = []
    # In-flight slot ends. Pre-warmed pods share one empty tuple: every
    # writer replaces a pod's entry rather than mutating it.
    ends: list = []
    prewarmed: list[bool] = []
    untouched: list[bool] = []
    alive: list[int] = []

    warm_hits = prewarm_hits = prewarm_creations = 0
    cold_t_l: list[float] = []
    cold_w_l: list[float] = []
    cold_d_l: list[bool] = []
    cold_m_l: list[int] = []
    delay_t_l: list[float] = []
    delay_s_l: list[float] = []
    delay_p_l: list[int] = []
    pending: list[tuple[float, int, float, int]] = []  # (time, seq, exec, delayer pos)
    grace_ka = ka if ka > grace else grace

    def expire(now: float) -> None:
        alive[:] = [
            p for p in alive
            if now < last[p] + (grace_ka if untouched[p] else ka)
        ]

    def idle_windows(serving: int) -> list[tuple[float, float]]:
        """The ``[last, death)`` idle window of every alive pod but
        ``serving``: fixed while no request reaches the pod, since ``last``
        bounds both its latest slot end and its readiness."""
        return [
            (last[p], last[p] + (grace_ka if untouched[p] else ka))
            for p in alive
            if p != serving
        ]

    def prewarm_gap(windows: list, busy_until: float, t_hi: float) -> None:
        """Apply the pending pre-warm ticks at or before ``t_hi``, all in
        one gap between events.

        Within a gap a tick's idle count is fixed by ``windows`` (the other
        pods' idle windows, extended here by the pods this gap creates)
        and the serving pod, idle from ``busy_until`` on (``inf``: none
        serves). Every pod idle at a tick stays idle until its death, so
        the ticks before the first such death whose targets ask for no
        more than that count create nothing: they are skipped in one
        bisection. The gap's pods are appended in one batch.
        """
        nonlocal pi, prewarm_creations
        stop = bisect.bisect_right(pw_t, t_hi, pi, n_pt)
        made: list[float] = []  # the tick time of each pod this gap creates
        while pi < stop:
            tick_t = pw_t[pi]
            kept = []
            idle = 1 if busy_until <= tick_t else 0
            cover = np.inf
            for w in windows:
                if w[1] > tick_t:
                    kept.append(w)
                    if w[0] <= tick_t:
                        idle += 1
                        if w[1] < cover:
                            cover = w[1]
            windows[:] = kept
            k = pw_n[pi] - idle
            if k > 0:
                death = tick_t + grace_ka
                made += [tick_t] * k
                windows += [(tick_t, death)] * k
                if death < cover:
                    cover = death
                idle += k
            pi += 1
            run = bisect.bisect_left(pw_t, cover, pi, stop)
            if run > pi and max(pw_n[pi:run]) <= idle:
                pi = run
        if made:
            k = len(made)
            p0 = len(created)
            created.extend(made)
            ready.extend(made)
            last.extend(made)
            ends.extend([()] * k)
            prewarmed.extend([True] * k)
            untouched.extend([True] * k)
            alive.extend(range(p0, p0 + k))
            prewarm_creations += k

    def prewarm_span(b: int, lo: int, limit: int, busy_until, off: int) -> None:
        """Pre-warm ticks inside arrivals ``[lo, limit)``, which pod ``b``
        serves back to back: in the gap before arrival ``j`` it is busy
        until ``busy_until[j - off]``."""
        windows = idle_windows(b)
        t_last = tl[limit - 1]
        while pi < n_pt and pw_t[pi] <= t_last:
            j = bisect.bisect_left(tl, pw_t[pi], lo + 1, limit)
            prewarm_gap(windows, busy_until[j - off], tl[j])

    def cold_start(now: float, exec_s: float, was_delayed: bool, mpos: int) -> bool:
        """A request no pod can take: delay it if the shave directive in
        force says so (False), else cold-start a new pod for it (True)."""
        if shave_schedule is not None and not was_delayed and not sync:
            directive = shave_schedule[tick_index_of(now, interval_s, n_ticks)]
            if directive is not None:
                delay = directive.delay_for(
                    spec, now, congestion.at(now), len(delay_s_l)
                )
                if delay > 0:
                    delay_t_l.append(now)
                    delay_s_l.append(delay)
                    delay_p_l.append(mpos)
                    heapq.heappush(
                        pending, (now + delay, len(delay_s_l), exec_s, mpos)
                    )
                    return False
        cold = sampler.next_total(congestion.at(now))
        cold_t_l.append(now)
        cold_w_l.append(cold)
        cold_d_l.append(was_delayed)
        cold_m_l.append(mpos)
        end = now + cold + exec_s
        alive.append(len(created))
        created.append(now)
        ready.append(now + cold)
        last.append(end)
        ends.append([end])
        prewarmed.append(False)
        untouched.append(False)
        return True

    def handle(now: float, exec_s: float, was_delayed: bool, mpos: int) -> None:
        """The scalar step, on pods already expired at ``now``."""
        nonlocal warm_hits, prewarm_hits
        best = -1
        best_start = np.inf
        for p in alive:
            pod_ends = [x for x in ends[p] if x > now]
            ends[p] = pod_ends
            if len(pod_ends) < conc:
                start = now if now >= ready[p] else ready[p]
            else:
                start = min(pod_ends)
                if start < ready[p]:
                    start = ready[p]
                if start - now > patience:
                    continue
            if start < best_start:
                best, best_start = p, start
        if best >= 0:
            if untouched[best]:
                prewarm_hits += 1
                untouched[best] = False
            pod_ends = ends[best]
            if len(pod_ends) >= conc:
                pod_ends.remove(min(pod_ends))
            end = best_start + exec_s
            pod_ends.append(end)
            if end > last[best]:
                last[best] = end
            warm_hits += 1
            return
        cold_start(now, exec_s, was_delayed, mpos)

    def episode(i: int) -> int:
        """Serve single-slot arrivals from ``i`` on while several pods are
        alive, or one is busy; returns the first arrival not served.

        Busy pods sit in a slot-end heap, idle ones in a pool served in
        creation order — the scalar step's rule, since an idle pod starts
        at once and a busy one at its slot end — so an arrival costs
        O(log pods), not a pass over every pod. Hands back to the chain jump
        or the scalar step once at most one idle pod is left, and stops
        before a pre-warm tick, a delayed re-arrival or an undecided tick
        comes due.
        """
        nonlocal warm_hits, prewarm_hits, episode_arrivals
        now = tl[i]
        heap = [(last[p], p) for p in alive if last[p] > now]
        heapq.heapify(heap)
        pool = [p for p in alive if last[p] <= now]  # ascending
        t_stop = min(pw_t[pi], covered_s) if pi < n_pt else covered_s
        i0 = i
        while i < n:
            now = tl[i]
            if now >= t_stop or (pending and now > pending[0][0]):
                break
            while heap and heap[0][0] <= now:
                bisect.insort(pool, heapq.heappop(heap)[1])
            if not heap:
                pool = [
                    p for p in pool
                    if now < last[p] + (grace_ka if untouched[p] else ka)
                ]
                if len(pool) <= 1:
                    break
            # Dead idle pods leave the pool when they reach its head.
            while pool and now >= last[pool[0]] + (
                grace_ka if untouched[pool[0]] else ka
            ):
                del pool[0]
            if pool:
                b = pool.pop(0)
                if untouched[b]:
                    prewarm_hits += 1
                    untouched[b] = False
                end = now + el[i]
                last[b] = end
                heapq.heappush(heap, (end, b))
            else:
                end, b = heap[0]
                if end - now > patience:
                    if cold_start(now, el[i], False, ml[i]):  # newest pod
                        heapq.heappush(heap, (last[-1], len(last) - 1))
                    i += 1
                    continue
                end = end + el[i]
                last[b] = end
                heapq.heapreplace(heap, (end, b))
            warm_hits += 1
            i += 1
        for end, p in heap:
            ends[p] = [end]
        pool.extend(p for _, p in heap)
        pool.sort()
        alive[:] = pool
        episode_arrivals += i - i0
        return i

    tl = t.tolist()
    el = e.tolist()
    ml = merged_pos.tolist()
    pw_t, pw_n = prewarm
    n_pt = len(pw_t)
    # Steady-chain jump (the PR 4 fast-walk trick, schedule-aware): runs
    # of arrivals a calm pod serves at once end at exactly ``t + e``, never
    # consult the shave schedule (only cold-bound arrivals read it) — so
    # they are consumed wholesale up to the next deviation candidate.
    # Multi-slot walks assume ``end > t`` so an arrival can never be
    # confused with an already-finished slot of a later arrival.
    idle_end = t + e
    e_pos = conc > 1 and n > 0 and bool(np.all(e > 0.0))
    cand_list = _candidates(t, idle_end, ka, conc) if conc == 1 or e_pos else [n]
    sweep_w = 4 * _SPEC_MIN_RUN  # the slot sweep's block width; gallops
    ci = 0
    pi = 0
    ai = 0
    jumped = swept = sweep_blocks = episode_arrivals = 0
    last_event_t = -np.inf
    while ai < n or pending:
        t_arrival = tl[ai] if ai < n else np.inf
        t_delayed = pending[0][0] if pending else np.inf
        t_event = t_arrival if t_arrival <= t_delayed else t_delayed
        if t_event >= covered_s:
            (pw_t, pw_n), covered_s = yield t_event
            n_pt = len(pw_t)
        if pi < n_pt and pw_t[pi] <= t_event:
            prewarm_gap(idle_windows(-1), np.inf, t_event)
        expire(t_event)
        if t_delayed < t_arrival:
            now, _seq, exec_s, mpos = heapq.heappop(pending)
            handle(float(now), float(exec_s), True, int(mpos))
            last_event_t = float(now)
            continue
        tk = t_arrival
        if not alive:
            cold_start(tk, el[ai], False, ml[ai])
            last_event_t = tk
            ai += 1
            continue
        b = alive[0]
        calm = True
        for p in alive:
            if last[p] > tk:
                calm = False  # an in-flight pod
                break
        if calm and not pending and (conc == 1 or e_pos):
            # Every pod idle: the earliest-created pod keeps winning the
            # slot tie and serves each steady arrival at exactly ``t + e``
            # — jump to the next deviation candidate. No pod was busy, so
            # no earlier request hides in the candidates' in-flight counts.
            # In the gap before arrival j the serving pod is busy until
            # its latest end so far (a single slot's ends ascend).
            if untouched[b]:
                prewarm_hits += 1
                untouched[b] = False
            while cand_list[ci] <= ai:
                ci += 1
            limit = cand_list[ci]
            t_last = tl[limit - 1]
            if conc == 1:
                busy_until, off = idle_end, 1
                end = float(idle_end[limit - 1])
                ends[b] = [end]
            else:
                seg = idle_end[ai:limit]
                busy_until = np.concatenate(([last[b]], seg))
                np.maximum.accumulate(busy_until, out=busy_until)
                off = ai
                end = float(busy_until[-1])
                ends[b] = seg[seg > t_last].tolist()
            if pi < n_pt and pw_t[pi] <= t_last:
                prewarm_span(b, ai, limit, busy_until, off)
            last[b] = end
            warm_hits += limit - ai
            jumped += limit - ai
            last_event_t = t_last
            ai = limit
            continue
        if conc == 1:
            if len(alive) > 1 or not calm:
                ai = episode(ai)
                last_event_t = tl[ai - 1]
                continue
        elif e_pos and not pending and ready[b] <= tk:
            # Batched slot-exhaustion sweep (conc > 1): while the
            # earliest-created pod has a free slot (and is ready), it wins
            # every slot tie at ``start = now`` — even against idle pods
            # later in scan order — so each arrival runs ``[t, t + e)`` on
            # it regardless of overlap. The pod's in-flight count at
            # arrival i is then a rank: the number of span ends still
            # above ``t[i]`` (``e > 0`` makes ends of later arrivals
            # invisible to earlier ranks). One sort + searchsorted per
            # block finds the longest prefix that never exhausts the
            # ``conc`` slots or outlives the pod; blocks gallop like the
            # speculation of ``_replay_walk``. A block pays only if the pod
            # also takes the next arrival (a free slot, and alive).
            e0 = [x for x in ends[b] if x > tk]
            ends[b] = e0
            t1 = tl[ai + 1] if ai + 1 < n else np.inf
            end1 = float(idle_end[ai])
            busy1 = sum(1 for x in e0 if x > t1) + (end1 > t1)
            if len(e0) < conc and busy1 < conc and t1 < max(last[b], end1) + ka:
                lo = ai
                hi = lo + sweep_w
                if hi > n:
                    hi = n
                t_ch = t[lo:hi]
                end_ch = idle_end[lo:hi]
                # Arrival k finds len(e0) + k - #(ends <= t[k]) slots busy.
                freed = np.sort(np.concatenate((e0, end_ch))).searchsorted(
                    t_ch, "right"
                )
                slack = len(e0) - conc
                viol = np.arange(slack, slack + t_ch.size) >= freed
                # busy_until[k]: the pod's latest slot end once the
                # block's first k arrivals are served.
                busy_until = np.concatenate(([last[b]], end_ch))
                np.maximum.accumulate(busy_until, out=busy_until)
                # The pod outlives the block's first arrival (``expire``);
                # a later one may find it dead.
                viol[1:] |= t_ch[1:] >= busy_until[1:-1] + ka
                acc = int(viol.argmax()) if viol.any() else t_ch.size
                sweep_blocks += 1
                sweep_w = _next_width(acc, _EP_CHUNK)
                if untouched[b]:
                    prewarm_hits += 1
                    untouched[b] = False
                limit = lo + acc
                t_last = tl[limit - 1]
                if pi < n_pt and pw_t[pi] <= t_last:
                    prewarm_span(b, lo, limit, busy_until, lo)
                keep = [x for x in e0 if x > t_last]
                keep.extend(x for x in end_ch[:acc].tolist() if x > t_last)
                ends[b] = keep
                last[b] = float(busy_until[acc])
                warm_hits += acc
                swept += acc
                last_event_t = t_last
                ai = limit
                continue
        handle(tk, el[ai], False, ml[ai])
        last_event_t = tk
        ai += 1
    # Ticks past this function's last event still fired globally (other
    # functions kept the clock running); apply their pre-warm targets once
    # every function's events have fixed which ticks fired.
    (pw_t, pw_n), _ = yield np.inf
    n_pt = len(pw_t)
    if pi < n_pt:
        prewarm_gap(idle_windows(-1), np.inf, np.inf)

    death = np.array(
        [
            last[p] + (grace_ka if untouched[p] else ka)
            for p in range(len(created))
        ],
        dtype=np.float64,
    )
    tel = get_telemetry()
    if tel.enabled:
        tel.count_many((
            ("vector/coupled/replays", 1),
            ("vector/coupled/scalar_arrivals",
             n - jumped - swept - episode_arrivals),
            ("vector/coupled/chain_jumped", jumped),
            ("vector/coupled/slot_swept", swept),
            ("vector/coupled/sweep_blocks", sweep_blocks),
            ("vector/coupled/episode_arrivals", episode_arrivals),
        ))
    return CoupledReplay(
        requests=n,
        warm_hits=warm_hits,
        prewarm_hits=prewarm_hits,
        prewarm_creations=prewarm_creations,
        cold_times=np.asarray(cold_t_l, dtype=np.float64),
        cold_waits=np.asarray(cold_w_l, dtype=np.float64),
        cold_delayed=np.asarray(cold_d_l, dtype=bool),
        cold_tiebreak=np.asarray(cold_m_l, dtype=np.int64),
        delay_t=np.asarray(delay_t_l, dtype=np.float64),
        delay_s=np.asarray(delay_s_l, dtype=np.float64),
        delay_pos=np.asarray(delay_p_l, dtype=np.int64),
        pod_created=np.asarray(created, dtype=np.float64),
        pod_death=death,
        pod_prewarmed=np.asarray(prewarmed, dtype=bool),
        last_event_t=last_event_t,
    )


def _congestion_values(congestion, times: np.ndarray) -> np.ndarray:
    """Vector lookup matching ``CongestionProfile.at`` element-wise."""
    values = congestion.per_minute
    idx = np.minimum((times // 60.0).astype(np.int64), values.size - 1)
    return values[idx]


def _replay_walk(
    t, e, merged_pos, ka, conc, patience, sampler, congestion
) -> CoupledReplay:
    """Exact replay of one function no decision touches, for any per-pod
    concurrency.

    The walk alternates between four regimes — *cold* (no pod alive),
    *chain* (one pod, steady idle-warm, candidate jumps), *blip* (one pod,
    queueing), and *episode* (several pods) — all sharing the event
    engine's float operations, slot-search rule (earliest feasible start,
    ties to the earliest created pod), and queue
    patience semantics.
    """
    n = t.size
    cvals = _congestion_values(congestion, t)
    idle_end_np = t + e  # steady-state slot ends (exactly the event fl(t+e))
    # Scalar views, materialised on first chain/episode entry (functions
    # resolved purely by speculation never pay for them).
    tl: list[float] | None = None
    el: list[float] | None = None
    if n > 1:
        # Speculation gate: from each position, how many consecutive
        # inter-arrival gaps exceed the keep-alive (a gap within the
        # keep-alive guarantees a warm hit, so a cold run can only span
        # the >ka stretch). Blocks are priced only when the stretch is
        # long enough to amortise the batch overhead, and sized to it.
        gap_le_ka = np.diff(t) <= ka
        false_pos = np.flatnonzero(gap_le_ka)
        bounds = np.concatenate((false_pos, [n - 1]))
        next_stop = bounds[np.searchsorted(bounds, np.arange(n - 1))]
        spec_run = np.empty(n, dtype=np.int64)
        spec_run[-1] = 0
        spec_run[:-1] = next_stop - np.arange(n - 1)
    else:
        spec_run = np.zeros(1, dtype=np.int64)
    candidates = _candidates(t, idle_end_np, ka, conc)
    ci = 0

    cold_blocks: list[np.ndarray] = []  # (idx, wait) column pairs, in order
    cold_pos: list[int] = []
    cold_wait: list[float] = []
    pod_created: list[float] = []
    pod_death: list[float] = []

    def flush_singles() -> None:
        if cold_pos:
            cold_blocks.append(np.asarray(cold_pos, dtype=np.int64))
            cold_blocks.append(np.asarray(cold_wait, dtype=np.float64))
            cold_pos.clear()
            cold_wait.clear()

    i = 0
    mode = "cold"  # "cold" | "chain" | "episode"
    e_prev = 0.0  # open pod's last activity in chain mode
    open_pod = -1  # open pod's ordinal in chain mode
    open_ready = 0.0  # open pod's ready time (binds only while initialising)
    heap: list[tuple[float, int]] = []  # conc == 1 episodes: busy (end, pod)
    pool: list[tuple[float, int]] = []  # conc == 1 episodes: idle (end, pod)
    # conc > 1 episodes: parallel pod columns, creation order.
    ep_ready: list[float] = []
    ep_last: list[float] = []
    ep_ends: list[list[float]] = []
    ep_pod: list[int] = []
    ep_alive: list[int] = []
    # Speculation width adapts to accepted prefixes (long cold waits make
    # warm hits common even across >keep-alive gaps, so a >ka gap run is
    # an upper bound on a cold run, not a promise).
    spec_w = 64
    # Regime counters, accumulated as plain local ints at transitions and
    # flushed in one batch at the end — the disabled-telemetry cost stays
    # O(transitions), never O(arrivals).
    w_spec_blocks = w_spec_accept = w_scalar_cold = 0
    w_chain_scalar = w_chain_jumps = w_jump_arrivals = 0
    w_episode_entries = w_episode_scalar = 0

    while i < n:
        if mode == "cold":
            run = int(spec_run[i])
            if run >= _SPEC_MIN_RUN or i == n - 1:
                m = min(run + 1, spec_w)
                waits = sampler.peek_totals(cvals[i : i + m])
                ends = t[i : i + m] + waits + e[i : i + m]
                dead = np.empty(m, dtype=bool)
                if i + m < n:
                    dead[:] = t[i + 1 : i + m + 1] >= ends + ka
                else:
                    dead[:-1] = t[i + 1 : i + m] >= ends[:-1] + ka
                    dead[-1] = True  # no later arrival: block may close
                accept = m if dead.all() else int(np.argmin(dead)) + 1
                w_spec_blocks += 1
                w_spec_accept += accept
                spec_w = _next_width(accept, _SPEC_CHUNK)
                sampler.advance(accept)
                flush_singles()
                cold_blocks.append(np.arange(i, i + accept))
                cold_blocks.append(waits[:accept])
                pod_created.extend(t[i : i + accept].tolist())
                if accept == m and dead.all():
                    pod_death.extend((ends[:accept] + ka).tolist())
                    i += accept
                    continue
                # Last accepted pod stays open: its next arrival finds it
                # alive, so hand over to the chain walk.
                pod_death.extend((ends[: accept - 1] + ka).tolist())
                pod_death.append(np.nan)  # filled when the pod closes
                open_pod = len(pod_created) - 1
                k = accept - 1
                open_ready = float(t[i + k]) + float(waits[k])
                e_prev = float(ends[k])
                mode = "chain"
                i += accept
            else:
                if tl is None:
                    tl = t.tolist()
                    el = e.tolist()
                # Tight scalar loop over a dense cold stretch: pods that
                # die before the next arrival never leave this branch.
                next_total = sampler.next_total
                i0 = i
                while True:
                    wait = next_total(float(cvals[i]))
                    cold_pos.append(i)
                    cold_wait.append(wait)
                    tk = tl[i]
                    r0 = tk + wait
                    end0 = r0 + el[i]
                    pod_created.append(tk)
                    i += 1
                    if i < n and tl[i] >= end0 + ka:
                        pod_death.append(end0 + ka)
                        if spec_run[i] >= _SPEC_MIN_RUN:
                            break  # long cold run ahead: price it as a block
                        continue
                    if i >= n:
                        pod_death.append(end0 + ka)
                        break
                    pod_death.append(np.nan)
                    open_ready = r0
                    e_prev = end0
                    open_pod = len(pod_created) - 1
                    mode = "chain"
                    break
                w_scalar_cold += i - i0
            continue

        if mode == "chain" and conc == 1:
            # Scalar walk over deviation candidates; steady idle-warm
            # stretches are consumed wholesale by jumping the pointer.
            if tl is None:
                tl = t.tolist()
                el = e.tolist()
            while i < n:
                tk = tl[i]
                if tk >= e_prev + ka:
                    pod_death[open_pod] = e_prev + ka
                    open_pod = -1
                    mode = "cold"
                    break
                if tk < e_prev:
                    # Queueing blip: FIFO takeover chains the one slot end.
                    if e_prev - tk > patience:
                        # Overflow: this arrival cold-starts a concurrent
                        # pod — switch to the slot-end heap episode.
                        wait = sampler.next_total(float(cvals[i]))
                        cold_pos.append(i)
                        cold_wait.append(wait)
                        pod_created.append(tk)
                        pod_death.append(np.nan)
                        heap = [
                            (e_prev, open_pod),
                            ((tk + wait) + el[i], len(pod_created) - 1),
                        ]
                        heapq.heapify(heap)
                        pool = []
                        open_pod = -1
                        mode = "episode"
                        w_episode_entries += 1
                        i += 1
                        break
                    e_prev = e_prev + el[i]
                    w_chain_scalar += 1
                    i += 1
                    continue
                # Idle-warm: this arrival (and every steady position up to
                # the next deviation candidate) ends at exactly t + e.
                while candidates[ci] <= i:
                    ci += 1
                d = candidates[ci]
                w_chain_jumps += 1
                w_jump_arrivals += d - i
                e_prev = float(idle_end_np[d - 1])
                i = d
            else:
                break  # arrivals exhausted with the pod open
            continue

        if mode == "chain":
            # Multi-slot pod (conc > 1): integrated walk/blip loop. The
            # candidate flags mark possible deaths and slot exhaustion
            # only — sub-capacity overlap serves immediately and still
            # ends at exactly t + e — so steady jumps skip it wholesale.
            # ``ends`` holds the pod's in-flight slot ends (reconstructed
            # from the steady stretch when a candidate needs them),
            # ``last`` its true last activity (running max of ends).
            if tl is None:
                tl = t.tolist()
                el = e.tolist()
            ready = open_ready
            last = e_prev
            ends = [e_prev]  # pruned on arrival if the pod is already idle
            while True:
                if i >= n:
                    pod_death[open_pod] = last + ka
                    open_pod = -1
                    break
                tk = tl[i]
                if ends:
                    w = 0  # prune expired ends in place (the list is tiny)
                    for x in ends:
                        if x > tk:
                            ends[w] = x
                            w += 1
                    del ends[w:]
                if tk >= last + ka:
                    pod_death[open_pod] = last + ka
                    open_pod = -1
                    mode = "cold"
                    break
                if ends:
                    # Blip step: serve on a free slot or queue via takeover.
                    if len(ends) < conc:
                        start = tk if tk >= ready else ready
                    else:
                        mn = ends[0]
                        for x in ends:
                            if x < mn:
                                mn = x
                        start = mn if mn >= ready else ready
                        if start - tk > patience:
                            # Overflow: concurrent pod — generic episode.
                            wait = sampler.next_total(float(cvals[i]))
                            cold_pos.append(i)
                            cold_wait.append(wait)
                            r2 = tk + wait
                            end2 = r2 + el[i]
                            pod_created.append(tk)
                            pod_death.append(np.nan)
                            ep_ready = [ready, r2]
                            ep_last = [last, end2]
                            ep_ends = [ends, [end2]]
                            ep_pod = [open_pod, len(pod_created) - 1]
                            ep_alive = [0, 1]
                            open_pod = -1
                            mode = "episode"
                            w_episode_entries += 1
                            i += 1
                            break
                        ends.remove(mn)
                    end = start + el[i]
                    ends.append(end)
                    if end > last:
                        last = end
                    w_chain_scalar += 1
                    i += 1
                    continue
                # Pod idle here: jump to the next candidate, folding the
                # steady stretch's ends into the running last activity.
                while candidates[ci] <= i:
                    ci += 1
                d = candidates[ci]
                w_chain_jumps += 1
                w_jump_arrivals += d - i
                seg = idle_end_np[i:d]
                segmax = float(seg.max())
                if segmax > last:
                    last = segmax
                if d >= n:
                    i = n
                    continue  # loop top closes the pod
                td = tl[d]
                if td >= last + ka:
                    pod_death[open_pod] = last + ka
                    open_pod = -1
                    mode = "cold"
                    i = d
                    break
                ends = seg[seg > td].tolist()
                i = d  # loop top serves d as a blip (or walks on if idle)
            continue

        # mode == "episode": several pods alive.
        if conc == 1:
            # Busy pods live in a slot-end heap; pods that idle move to a
            # small pool served in creation order (the engines' shared
            # rule: earliest feasible start, ties to the earliest created
            # pod). Heap pods are never dead — their end exceeds the last
            # arrival seen — so only the pool needs death pruning.
            while i < n:
                now = tl[i]
                while heap and heap[0][0] <= now:
                    pool.append(heapq.heappop(heap))  # (end, creation)
                if pool:
                    kept_pool = []
                    for end, p in pool:
                        if now >= end + ka:
                            pod_death[p] = end + ka
                        else:
                            kept_pool.append((end, p))
                    pool = kept_pool
                if not heap and len(pool) <= 1:
                    break  # 0 pods → cold; 1 idle pod → back to the walk
                if pool:
                    # Serve the first-created idle pod at `now`.
                    b = 0
                    for j in range(1, len(pool)):
                        if pool[j][1] < pool[b][1]:
                            b = j
                    if not heap:
                        # Calm stretch: every pod is idle, so the serving
                        # pod keeps winning the tie (earliest created) and
                        # ends each request at exactly t + e, while the
                        # others only decay — jump straight to the next
                        # deviation candidate; the loop top prunes there.
                        # The serving pod may be *busy* at the candidate
                        # (an overlap is exactly what flags it), in which
                        # case it re-enters the heap, not the idle pool.
                        while candidates[ci] <= i:
                            ci += 1
                        d = candidates[ci]
                        w_chain_jumps += 1
                        w_jump_arrivals += d - i
                        _, p0 = pool.pop(b)
                        new_end = float(idle_end_np[d - 1])
                        if d < n and new_end > tl[d]:
                            heapq.heappush(heap, (new_end, p0))
                        else:
                            pool.append((new_end, p0))
                        i = d
                        continue
                    _, p0 = pool.pop(b)
                    heapq.heappush(heap, (now + el[i], p0))
                else:
                    end0, p0 = heap[0]
                    if end0 - now > patience:
                        wait = sampler.next_total(float(cvals[i]))
                        cold_pos.append(i)
                        cold_wait.append(wait)
                        pod_created.append(now)
                        pod_death.append(np.nan)
                        heapq.heappush(
                            heap, ((now + wait) + el[i], len(pod_created) - 1)
                        )
                    else:
                        heapq.heapreplace(heap, (end0 + el[i], p0))
                w_episode_scalar += 1
                i += 1
            if i < n:
                if pool:
                    e_prev, open_pod = pool[0][0], pool[0][1]
                    open_ready = pod_created[open_pod]  # never binds: <= end
                    pool = []
                    mode = "chain"
                else:
                    mode = "cold"
            continue

        # Generic multi-slot episode (rare): exact scalar slot search.
        while i < n:
            now = tl[i]
            kept = []
            for p in ep_alive:
                death = ep_last[p] + ka
                if now >= death:
                    pod_death[ep_pod[p]] = death
                else:
                    kept.append(p)
            ep_alive = kept
            if not ep_alive or (
                len(ep_alive) == 1 and now >= ep_last[ep_alive[0]]
            ):
                break
            calm = True
            for p in ep_alive:
                pe = ep_ends[p]
                if pe:
                    w = 0  # prune expired ends in place (the list is tiny)
                    for x in pe:
                        if x > now:
                            pe[w] = x
                            w += 1
                    del pe[w:]
                    if w:
                        calm = False
            if calm:
                # Calm stretch: every pod idle, so the earliest-created
                # pod keeps winning the tie and serves steadily at t + e
                # (sub-capacity overlap included) while the others decay —
                # jump to the next deviation candidate.
                b = ep_alive[0]
                for p in ep_alive:
                    if p < b:
                        b = p
                while candidates[ci] <= i:
                    ci += 1
                d = candidates[ci]
                w_chain_jumps += 1
                w_jump_arrivals += d - i
                seg = idle_end_np[i:d]
                segmax = float(seg.max())
                if segmax > ep_last[b]:
                    ep_last[b] = segmax
                ep_ends[b] = seg[seg > tl[d]].tolist() if d < n else []
                i = d
                continue
            best = -1
            best_start = np.inf
            for p in ep_alive:
                pe = ep_ends[p]
                w = len(pe)
                if w < conc:
                    start = now if now >= ep_ready[p] else ep_ready[p]
                else:
                    mn = pe[0]
                    for x in pe:
                        if x < mn:
                            mn = x
                    start = mn if mn >= ep_ready[p] else ep_ready[p]
                    if start - now > patience:
                        continue
                # earliest feasible start; ties to the earliest created pod
                if start < best_start:
                    best, best_start = p, start
            if best >= 0:
                pe = ep_ends[best]
                if len(pe) >= conc:
                    pe.remove(min(pe))
                end = best_start + el[i]
                pe.append(end)
                if end > ep_last[best]:
                    ep_last[best] = end
            else:
                wait = sampler.next_total(float(cvals[i]))
                cold_pos.append(i)
                cold_wait.append(wait)
                r2 = now + wait
                end2 = r2 + el[i]
                pod_created.append(now)
                pod_death.append(np.nan)
                ep_ready.append(r2)
                ep_last.append(end2)
                ep_ends.append([end2])
                ep_pod.append(len(pod_created) - 1)
                ep_alive.append(len(ep_pod) - 1)
            w_episode_scalar += 1
            i += 1
        if i < n:
            if ep_alive:
                p = ep_alive[0]
                e_prev = ep_last[p]
                open_pod = ep_pod[p]
                open_ready = ep_ready[p]
                ep_alive = []
                mode = "chain"
            else:
                mode = "cold"
        continue

    # Close whatever is still open.
    if mode == "chain" and open_pod >= 0:
        pod_death[open_pod] = e_prev + ka
    elif mode == "episode":
        for end, p in heap:
            pod_death[p] = end + ka
        for end, p in pool:
            pod_death[p] = end + ka
        for p in ep_alive:
            pod_death[ep_pod[p]] = ep_last[p] + ka

    flush_singles()
    tel = get_telemetry()
    if tel.enabled and n:
        tel.count_many((
            ("vector/functions", 1),
            ("vector/spec/blocks", w_spec_blocks),
            ("vector/spec/accepted", w_spec_accept),
            ("vector/cold/scalar_arrivals", w_scalar_cold),
            ("vector/chain/scalar_arrivals", w_chain_scalar),
            ("vector/chain/jumps", w_chain_jumps),
            ("vector/chain/jumped_arrivals", w_jump_arrivals),
            ("vector/episode/entries", w_episode_entries),
            ("vector/episode/scalar_arrivals", w_episode_scalar),
        ))
    cold_idx = (
        np.concatenate(cold_blocks[0::2]) if cold_blocks else np.zeros(0, np.int64)
    )
    cold_waits = (
        np.concatenate(cold_blocks[1::2]) if cold_blocks else np.zeros(0)
    )
    return CoupledReplay(
        requests=n,
        warm_hits=n - cold_idx.size,
        prewarm_hits=0,
        prewarm_creations=0,
        cold_times=t[cold_idx],
        cold_waits=cold_waits,
        cold_delayed=np.zeros(cold_idx.size, dtype=bool),
        cold_tiebreak=merged_pos[cold_idx],
        delay_t=EMPTY_F,
        delay_s=EMPTY_F,
        delay_pos=EMPTY_I,
        pod_created=np.asarray(pod_created, dtype=np.float64),
        pod_death=np.asarray(pod_death, dtype=np.float64),
        pod_prewarmed=np.zeros(len(pod_created), dtype=bool),
        last_event_t=float(t[-1]) if n else -np.inf,
    )

"""Vectorized structure-of-arrays replay engine (the evaluator fast path).

The event-driven evaluator walks every request through Python-level pod
bookkeeping; this module replays one function at a time instead, with one
walker, :func:`replay_function_coupled`, under the function's slice of a
fixed tick decision schedule (empty when no policy runs). Given the
schedule, a function's pods depend on no other function. The walker
retires most arrivals in bulk:

* while at most one pod is alive, in one tight loop: a run of
  >keep-alive gaps (timers past the keep-alive, rarely invoked functions)
  is resolved by *speculation* — price a block of arrivals as if all were
  cold starts, verify vectorized that each pod dies before the next
  arrival, accept the longest valid prefix — an idle pod serves the
  steady stretch up to the next precomputed deviation candidate in one
  chain jump, and a pre-warm tick asking for one pod either passes (the
  pod idles through it) or makes the next lone pod (none is alive);
* a busy multi-slot pod with free slots, by a galloping slot-exhaustion
  sweep;
* several pods, by chain jumps while all are idle and by a slot-end heap
  for single-slot episodes; the exact scalar step takes the rest.

Every float operation along these paths is the same one the event engine
performs per request — an idle warm hit ends at ``fl(t + e)``, a queued
one at ``fl(E_prev + e)``, a pod dies at ``fl(E + ka)`` — which keeps the
two engines bit-identical rather than merely equal to rounding. Cold-start
latencies come from per-function :class:`~repro.sim.latency
.FunctionColdSampler` draws and congestion from the exogenous per-minute
:class:`~repro.mitigation.evaluator.CongestionProfile`, both shared with
the event engine (``tests/test_vector_engine.py`` and
``tests/test_properties_coupled.py`` pin the equivalence). Per function
the walker returns a :class:`CoupledReplay`, from which the caller
assembles gauge ticks, pod-second credits, and histogram updates in a
canonical order independent of the engine that produced them.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.mitigation.base import ShaveDirective
from repro.mitigation.tick import tick_index_of
from repro.obs.telemetry import get_telemetry

#: Upper bound on arrivals priced per speculation attempt.
_SPEC_CHUNK = 1024

#: Minimum run that justifies a batched block — of cold starts priced
#: speculatively, or of a burst swept — (below it, the per-block numpy
#: overhead exceeds the scalar path's cost).
_SPEC_MIN_RUN = 8

#: Upper bound on arrivals examined per slot-exhaustion sweep (conc > 1).
_EP_CHUNK = 2048

def _next_width(accepted: int, cap: int) -> int:
    """The next block width of an adaptive walk: twice the prefix the last
    block accepted, so a fully accepted block doubles and a violation
    shrinks it, kept within ``[_SPEC_MIN_RUN, cap]``."""
    return min(cap, max(_SPEC_MIN_RUN, 2 * accepted))


def _mask(size: int, positions: list[int]) -> np.ndarray:
    """A boolean column of ``size`` set at ``positions``."""
    mask = np.zeros(size, dtype=bool)
    mask[positions] = True
    return mask


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

    Pod tables plus every event a decision schedule can produce: cold
    starts, delayed arrivals (time, delay, the delaying arrival's merged
    position), and the tie-break columns that reproduce the event loop's
    order (``cold_delayed``: the cold's request was a re-arrival;
    ``cold_tiebreak``: the merged position of the original — for
    re-arrivals, the delaying — arrival). ``pod_death`` is the pod's last
    activity plus its keep-alive, uncapped: the caller applies the horizon.
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
    t: np.ndarray, e: np.ndarray, merged_pos: np.ndarray, ka: float,
    conc: int, patience: float, sampler, congestion, spec, sync: bool,
    grace: float, interval_s: float, n_ticks: int, prewarm,
    covered_s: float, shave_schedule,
) -> Generator[float, tuple, CoupledReplay]:
    """Exact per-function replay under a fixed tick decision schedule.

    The event engine's per-request pod rules for *one* function — same
    slot-search rule (earliest feasible start, ties to the earliest
    created pod), same queue-patience, pre-warm grace and death-time
    semantics, same float operations per request — driven by the
    function's own arrivals, its delayed re-arrivals, and its slice of the
    schedule: ``prewarm`` (the ascending tick times and targets of the
    pre-warm entries naming it, as a pair of sequences) and
    ``shave_schedule`` (the per-tick shave directives, or ``None`` when no
    shaver runs). The empty schedule (``((), ())``, ``covered_s`` infinite,
    no shave schedule) replays a function no decision touches. The one-pod
    loop (``lone``) applies the ticks asking for one pod while its pod is
    idle or dead at them; every other tick is applied one gap between
    events at a time (``prewarm_gap``), skipping with one bisection the
    ticks that idle pods already cover.

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
    # Pod columns in creation order. ``untouched`` pre-warmed pods (no
    # request has reached them) live ``grace_ka`` past their last activity,
    # every other pod ``ka``. ``ends`` holds in-flight slot ends; writers
    # replace a pod's entry, never mutate it (pre-warmed pods share ``()``).
    created: list[float] = []
    ready: list[float] = []
    last: list[float] = []
    ends: list = []
    untouched: list[bool] = []
    alive: list[int] = []
    prewarmed: list[int] = []  # the pre-warmed pods
    prewarm_hits = prewarm_creations = 0
    cold_t_l: list[float] = []
    cold_w_l: list[float] = []
    cold_delayed: list[int] = []  # the colds of delayed re-arrivals
    cold_i_l: list[int] = []  # arrival index (a re-arrival's: its delayer's)
    delay_t_l: list[float] = []
    delay_s_l: list[float] = []
    delay_i_l: list[int] = []
    pending: list[tuple[float, int, float, int]] = []  # (time, seq, exec, delayer index)
    grace_ka = ka if ka > grace else grace
    shaving = shave_schedule is not None and not sync
    # No alive pod dies before ``expiry`` (a pod's ``last`` only grows, and
    # ``ka`` is its shortest life), so ``expire`` waits for an event there.
    expiry = np.inf

    def expire(now: float) -> None:
        nonlocal expiry
        alive[:] = [p for p in alive
                    if now < last[p] + (grace_ka if untouched[p] else ka)]
        expiry = min([last[p] for p in alive], default=np.inf) + ka

    def idle_windows(serving: int) -> list[tuple[float, float]]:
        """The ``[last, death)`` idle window of every alive pod but
        ``serving`` (``last`` bounds its latest slot end and readiness)."""
        return [(last[p], last[p] + (grace_ka if untouched[p] else ka))
                for p in alive if p != serving]

    def prewarm_gap(windows: list, busy_until: float, t_hi: float) -> None:
        """Apply the pending pre-warm ticks at or before ``t_hi``, all in
        one gap between events. A tick's idle count is fixed by
        ``windows`` (the other pods' idle windows, extended by the pods
        made here) and the serving pod, idle from ``busy_until`` on
        (``inf``: none serves). A pod idle at a tick stays idle until its
        death, so the ticks before the first such death whose targets ask
        for no more than that count make nothing: one bisection skips them.
        """
        nonlocal pi, prewarm_creations, expiry
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
            prewarmed.extend(range(p0, p0 + k))
            untouched.extend([True] * k)
            alive.extend(range(p0, p0 + k))
            prewarm_creations += k
            if made[0] + ka < expiry:
                expiry = made[0] + ka

    def prewarm_span(b: int, lo: int, limit: int, busy_until, off: int) -> None:
        """Pre-warm ticks inside arrivals ``[lo, limit)``, which pod ``b``
        serves back to back: in the gap before arrival ``j`` it is busy
        until ``busy_until[j - off]``."""
        windows = idle_windows(b)
        t_last = tl[limit - 1]
        while pi < n_pt and pw_t[pi] <= t_last:
            j = bisect.bisect_left(tl, pw_t[pi], lo + 1, limit)
            prewarm_gap(windows, busy_until[j - off], tl[j])

    def may_delay(j: int) -> bool:
        """Could the shave directive in force delay arrival ``j`` were it
        cold-bound? A :class:`ShaveDirective` says so by its rule; any
        other directive type might delay any arrival."""
        d = shave_schedule[tick_index_of(tl[j], interval_s, n_ticks)]
        return d is not None and (
            type(d) is not ShaveDirective or d.gauge_active
            or congestion.at(tl[j]) > d.congestion_trigger
        )

    def cold_start(now: float, exec_s: float, was_delayed: bool, pos: int) -> bool:
        """A request no pod can take: delay it if the shave directive in
        force says so (False), else cold-start a new pod for it (True),
        which the caller makes alive. ``pos`` is the arrival index of the
        request (for a re-arrival, of the arrival it delays)."""
        nonlocal expiry
        minute = int(now // 60.0)  # ``congestion.at(now)``
        c = float(per_minute[minute if minute < n_minutes else n_minutes - 1])
        if shaving and not was_delayed:
            directive = shave_schedule[tick_index_of(now, interval_s, n_ticks)]
            if directive is not None:
                delay = directive.delay_for(spec, now, c, len(delay_s_l))
                if delay > 0:
                    delay_t_l.append(now)
                    delay_s_l.append(delay)
                    delay_i_l.append(pos)
                    heapq.heappush(pending, (now + delay, len(delay_s_l), exec_s, pos))
                    return False
        cold = sampler.next_total(c)
        cold_t_l.append(now)
        cold_w_l.append(cold)
        if was_delayed:
            cold_delayed.append(len(cold_t_l) - 1)
        cold_i_l.append(pos)
        end = now + cold + exec_s
        created.append(now)
        ready.append(now + cold)
        last.append(end)
        ends.append([end])
        untouched.append(False)
        if end + ka < expiry:
            expiry = end + ka
        return True

    def cold_block(i: int, t_stop: float) -> int:
        """Price the arrivals from ``i`` on across a run of >keep-alive
        gaps, where none finds a pod alive, as if every one were cold, and
        accept the longest prefix whose pods each die before the next
        arrival; returns the first arrival not accepted (``i``: the run is
        too short to pay). The block stops before ``t_stop`` and before an
        arrival a shave directive could delay; its last pod stays the
        caller's."""
        nonlocal spec_w, spec_blocks, spec_accepted
        gaps = np.diff(t[i:i + spec_w]) > ka
        hi = i + 1 + (gaps.size if gaps.all() else int(gaps.argmin()))
        if tl[hi - 1] >= t_stop:
            hi = bisect.bisect_left(tl, t_stop, i, hi)
        if shaving:
            hi = next((j for j in range(i, hi) if may_delay(j)), hi)
        if hi - i < _SPEC_MIN_RUN:
            return i
        waits = sampler.peek_totals(_congestion_values(congestion, t[i:hi]))
        starts = t[i:hi] + waits
        dead = t[i + 1:hi] >= starts[:-1] + e[i:hi - 1] + ka
        acc = hi - i if dead.all() else int(dead.argmin()) + 1
        spec_blocks += 1
        spec_accepted += acc
        spec_w = _next_width(acc, _SPEC_CHUNK)
        sampler.advance(acc)
        k = i + acc
        block_ends = (starts[:acc] + e[i:k]).tolist()
        created.extend(tl[i:k])
        ready.extend(starts[:acc].tolist())
        last.extend(block_ends)
        ends.extend([x] for x in block_ends)
        untouched.extend([False] * acc)
        cold_t_l.extend(tl[i:k])
        cold_w_l.extend(waits[:acc].tolist())
        cold_i_l.extend(range(i, k))
        return k

    def sweep(b: int, lo: int, t_stop: float) -> int:
        """Slot-exhaustion sweep of multi-slot pod ``b`` (alive, ready, the
        earliest created) from arrival ``lo`` on, before ``t_stop``;
        returns the first arrival not served (``lo``: it would not pay).

        While the pod has a free slot it wins every slot tie at ``start =
        now``, so each arrival runs ``[t, t + e)`` on it and its in-flight
        count is a rank (``e > 0`` hides later arrivals' ends from earlier
        ranks): one sort + searchsorted per block finds the longest prefix
        that never exhausts the slots and keeps the pod busy (an idle pod's
        steady stretch is a cheaper chain jump). Block widths gallop; a
        block pays only if the pod is still busy, with a free slot, at the
        next arrival.
        """
        nonlocal sweep_w, sweep_blocks, prewarm_hits, swept
        tk = tl[lo]
        e0 = [x for x in ends[b] if x > tk]
        ends[b] = e0
        t1 = tl[lo + 1] if lo + 1 < n else np.inf
        end1 = float(idle_end[lo])
        busy1 = sum(1 for x in e0 if x > t1) + (end1 > t1)
        if not (len(e0) < conc and busy1 < conc and t1 < max(last[b], end1)):
            return lo
        hi = min(lo + sweep_w, n)
        if tl[hi - 1] >= t_stop:
            hi = bisect.bisect_left(tl, t_stop, lo, hi)
        t_ch = t[lo:hi]
        end_ch = idle_end[lo:hi]
        # Arrival k finds len(e0) + k - #(ends <= t[k]) slots busy.
        freed = np.sort(np.concatenate((e0, end_ch))).searchsorted(t_ch, "right")
        slack = len(e0) - conc
        viol = np.arange(slack, slack + t_ch.size) >= freed
        # busy_until[k]: the pod's latest slot end once the block's first
        # k arrivals are served.
        busy_until = np.concatenate(([last[b]], end_ch))
        np.maximum.accumulate(busy_until, out=busy_until)
        # The block ends where the pod idles (or dies): a chain jump serves
        # the steady stretch from there for less.
        viol[1:] |= t_ch[1:] >= busy_until[1:-1]
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
        swept += acc
        return limit

    def bound() -> float:
        """Arrivals at or past it wait for the main loop: the end of the
        decided ticks, or a pending re-arrival (arrivals at its time come
        first)."""
        if pending:
            return min(covered_s, math.nextafter(pending[0][0], math.inf))
        return covered_s

    def jump(b: int, i: int, t_stop: float) -> int:
        """Serve the steady stretch from arrival ``i`` up to the next
        deviation candidate (before ``t_stop``) on pod ``b``, the earliest
        created of an all-idle pod set; returns where it stopped. Each
        arrival ends at exactly ``t + e``; no pod was busy, so no earlier
        request hides in the candidates' in-flight counts. Pre-warm ticks
        inside the stretch are applied gap by gap.
        """
        nonlocal ci, prewarm_hits, jumped
        if untouched[b]:
            prewarm_hits += 1
            untouched[b] = False
        while cand_list[ci] <= i:
            ci += 1
        limit = cand_list[ci]
        if tl[limit - 1] >= t_stop:
            limit = bisect.bisect_left(tl, t_stop, i, limit)
        t_last = tl[limit - 1]
        if pi < n_pt and pw_t[pi] <= t_last:
            if conc == 1:
                prewarm_span(b, i, limit, idle_end, 1)
            else:
                busy_until = np.concatenate(([last[b]], idle_end[i:limit]))
                np.maximum.accumulate(busy_until, out=busy_until)
                prewarm_span(b, i, limit, busy_until, i)
        if conc == 1:
            last[b] = float(idle_end[limit - 1])
            ends[b] = [last[b]]
        else:  # ``e > 0``: the stretch's latest end is still in flight
            seg = idle_end[i:limit]
            ends[b] = seg[seg > t_last].tolist()
            last[b] = max(last[b], max(ends[b]))
        jumped += limit - i
        return limit

    def lone(i: int) -> int:
        """Serve arrivals from ``i`` on while at most one pod is alive —
        the common case, in one tight loop; returns the first arrival not
        served. No pod: cold starts (or shave delays), a run of
        >keep-alive gaps priced speculatively (``cold_block``). An idle
        pod: a chain jump. A busy one: a queued step, or a sweep of a
        multi-slot pod. Stops at a second pod and at the ``bound``.

        Pre-warm ticks at or before the next arrival are applied here when
        their target is one pod: a tick the pod idles through makes
        nothing, and a tick no pod is alive at makes the pre-warmed pod
        that becomes the lone one. A tick the pod is busy at, or one
        asking for more pods, stops the loop before the arrival, for the
        main loop's ``prewarm_gap``. A jump or a sweep crosses ticks
        itself.
        """
        nonlocal expiry, pi, prewarm_creations, inline_ticks
        t_stop = bound()
        t_lim = min(t_stop, pw_t[pi]) if pi < n_pt else t_stop
        b = alive[0] if alive else -1
        if b >= 0:  # a single slot's queue runs on ``e_prev``, its last end
            e_prev, life = last[b], grace_ka if untouched[b] else ka
        while i < n:
            tk = tl[i]
            if tk >= t_lim:
                if tk >= t_stop:
                    break
                # Ticks at or before the arrival come first.
                p = pi
                while p < n_pt and pw_t[p] <= tk:
                    tick_t = pw_t[p]
                    if pw_n[p] != 1 or b >= 0 and tick_t < e_prev:
                        break  # more pods asked for, or the pod is busy
                    if b < 0 or tick_t >= e_prev + life:
                        if b >= 0:
                            last[b] = e_prev  # the pod died
                        b = len(created)
                        alive[:] = [b]
                        created.append(tick_t)
                        ready.append(tick_t)
                        last.append(tick_t)
                        ends.append(())
                        untouched.append(True)
                        prewarmed.append(b)
                        prewarm_creations += 1
                        e_prev, life = tick_t, grace_ka
                    p += 1
                inline_ticks += p - pi
                pi = p
                if p < n_pt and pw_t[p] <= tk:
                    break
                t_lim = min(t_stop, pw_t[pi]) if pi < n_pt else t_stop
            if b < 0 or tk >= e_prev + life:
                if b >= 0:
                    last[b] = e_prev  # the pod died
                    alive.clear()
                    b = -1
                # A cold run can only span consecutive >keep-alive gaps.
                if (
                    i + _SPEC_MIN_RUN < n and tl[i + 1] - tl[i] > ka
                    and all(tl[j + 1] - tl[j] > ka
                            for j in range(i + 1, i + _SPEC_MIN_RUN))
                    and (k := cold_block(i, t_lim)) > i
                ):
                    i = k
                elif cold_start(tk, el[i], False, i):
                    i += 1
                else:  # delayed: its re-arrival bounds the loop
                    i += 1
                    t_stop = bound()
                    t_lim = min(t_lim, t_stop)
                    continue
                b = len(last) - 1
                alive.append(b)
                e_prev, life = last[b], ka
                continue
            if tk >= e_prev:  # idle
                if conc > 1 and not e_pos:
                    break  # no deviation candidates: the scalar step
                last[b] = e_prev
                i = jump(b, i, t_stop)
            elif conc == 1:
                # A single slot queues behind its one end (never before
                # readiness, which that end follows).
                if e_prev - tk > patience:
                    break
                e_prev = e_prev + el[i]
                i += 1
                continue
            else:
                pe = [x for x in ends[b] if x > tk]
                # A sweep pays in a burst: each next arrival inside the last.
                if not (
                    e_pos and len(pe) < conc and ready[b] <= tk and i + _SPEC_MIN_RUN < n
                    and all(tl[j + 1] < tl[j] + el[j]
                            for j in range(i, i + _SPEC_MIN_RUN))
                    and (k := sweep(b, i, t_stop)) > i
                ):
                    rdy = ready[b]
                    if len(pe) < conc:
                        start = tk if tk >= rdy else rdy
                    else:
                        mn = min(pe)
                        start = mn if mn >= rdy else rdy
                        if start - tk > patience:
                            break
                        pe.remove(mn)
                    end = start + el[i]
                    pe.append(end)
                    ends[b] = pe
                    if end > e_prev:
                        e_prev = last[b] = end
                    i += 1
                    continue
                i = k
            # A jump or a sweep may have crossed pre-warm ticks that made pods.
            e_prev, life = last[b], ka
            if len(alive) > 1:
                break
            t_lim = min(t_stop, pw_t[pi]) if pi < n_pt else t_stop
        if b >= 0 and conc == 1:
            last[b] = e_prev
            ends[b] = [e_prev]
        expiry = min([last[p] for p in alive], default=np.inf) + ka
        return i

    def handle(now: float, exec_s: float, was_delayed: bool, pos: int) -> None:
        """The scalar step, on pods already expired at ``now``."""
        nonlocal prewarm_hits
        best, best_start = -1, np.inf
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
            return
        if cold_start(now, exec_s, was_delayed, pos):
            alive.append(len(created) - 1)

    def episode(i: int) -> int:
        """Serve single-slot arrivals from ``i`` on while several pods are
        alive, or one is busy; returns the first arrival not served.

        Busy pods sit in a slot-end heap, idle ones in a pool served in
        creation order — the scalar step's rule, since an idle pod starts
        at once and a busy one at its slot end — so an arrival costs
        O(log pods), not a pass over every pod. Hands back once at most one
        idle pod is left, and stops before a pre-warm tick or the
        ``bound``.
        """
        nonlocal prewarm_hits, episode_arrivals
        now = tl[i]
        heap = [(last[p], p) for p in alive if last[p] > now]
        heapq.heapify(heap)
        pool = [p for p in alive if last[p] <= now]  # ascending
        t_stop = min(pw_t[pi] if pi < n_pt else math.inf, bound())
        i0 = i
        while i < n:
            now = tl[i]
            if now >= t_stop:
                break
            while heap and heap[0][0] <= now:
                bisect.insort(pool, heapq.heappop(heap)[1])
            if not heap:
                pool = [p for p in pool
                        if now < last[p] + (grace_ka if untouched[p] else ka)]
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
                    if cold_start(now, el[i], False, i):  # newest pod
                        heapq.heappush(heap, (last[-1], len(last) - 1))
                    else:  # delayed: its re-arrival bounds the episode
                        t_stop = min(t_stop, bound())
                    i += 1
                    continue
                end = end + el[i]
                last[b] = end
                heapq.heapreplace(heap, (end, b))
            i += 1
        for end, p in heap:
            ends[p] = [end]
        pool.extend(p for _, p in heap)
        pool.sort()
        alive[:] = pool
        episode_arrivals += i - i0
        return i

    tl, el = t.tolist(), e.tolist()
    per_minute = congestion.per_minute
    n_minutes = per_minute.size
    spec_w = 64  # speculative block width: gallops like the sweep's
    pw_t, pw_n = prewarm
    n_pt = len(pw_t)
    # Multi-slot chain jumps and sweeps assume ``end > t``: an arrival is
    # never confused with an already-finished slot of a later one.
    idle_end = t + e
    e_pos = conc > 1 and n > 0 and bool(np.all(e > 0.0))
    cand_list = _candidates(t, idle_end, ka, conc) if conc == 1 or e_pos else [n]
    sweep_w = 4 * _SPEC_MIN_RUN  # the slot sweep's block width; gallops
    ci = pi = ai = 0
    jumped = swept = sweep_blocks = episode_arrivals = spec_blocks = spec_accepted = 0
    inline_ticks = 0
    while ai < n or pending:
        t_arrival = tl[ai] if ai < n else np.inf
        t_delayed = pending[0][0] if pending else np.inf
        t_event = t_arrival if t_arrival <= t_delayed else t_delayed
        if t_event >= covered_s:
            (pw_t, pw_n), covered_s = yield t_event
            n_pt = len(pw_t)
        if pi < n_pt and pw_t[pi] <= t_event:
            prewarm_gap(idle_windows(-1), np.inf, t_event)
        if t_event >= expiry:
            expire(t_event)
        if t_delayed < t_arrival:
            _, _seq, exec_s, pos = heapq.heappop(pending)
            handle(t_delayed, exec_s, True, pos)
            continue
        i = lone(ai) if len(alive) <= 1 else ai
        if i == ai and alive and (conc == 1 or e_pos):
            b = alive[0]
            if all(last[p] <= t_arrival for p in alive):
                i = jump(b, ai, bound())
            elif conc == 1:
                i = episode(ai)
            elif ready[b] <= t_arrival:
                i = sweep(b, ai, bound())
        if i == ai:
            handle(t_arrival, el[ai], False, ai)
            i += 1
        ai = i
    # Ticks past this function's last event still fired globally (other
    # functions kept the clock running); apply their pre-warm targets once
    # every function's events have fixed which ticks fired.
    (pw_t, pw_n), _ = yield np.inf
    n_pt = len(pw_t)
    if pi < n_pt:
        prewarm_gap(idle_windows(-1), np.inf, np.inf)

    death = [last[p] + (grace_ka if untouched[p] else ka) for p in range(len(last))]
    # Events run in time order: the last is the last arrival or re-arrival.
    rearrivals = [a + d for a, d in zip(delay_t_l, delay_s_l)]
    last_event_t = max(rearrivals + tl[-1:], default=-np.inf)
    tel = get_telemetry()
    if tel.enabled:
        tel.count_many((
            ("vector/coupled/replays", 1),
            ("vector/coupled/scalar_arrivals",
             n - jumped - swept - episode_arrivals - spec_accepted),
            ("vector/coupled/chain_jumped", jumped),
            ("vector/coupled/slot_swept", swept),
            ("vector/coupled/sweep_blocks", sweep_blocks),
            ("vector/coupled/episode_arrivals", episode_arrivals),
            ("vector/coupled/inline_ticks", inline_ticks),
            ("vector/spec/blocks", spec_blocks),
            ("vector/spec/accepted", spec_accepted),
        ))
    return CoupledReplay(
        requests=n,
        warm_hits=n - len(cold_t_l),  # every request is served once
        prewarm_hits=prewarm_hits,
        prewarm_creations=prewarm_creations,
        cold_times=np.asarray(cold_t_l, dtype=np.float64),
        cold_waits=np.asarray(cold_w_l, dtype=np.float64),
        cold_delayed=_mask(len(cold_t_l), cold_delayed),
        cold_tiebreak=merged_pos[np.asarray(cold_i_l, dtype=np.int64)],
        delay_t=np.asarray(delay_t_l, dtype=np.float64),
        delay_s=np.asarray(delay_s_l, dtype=np.float64),
        delay_pos=merged_pos[np.asarray(delay_i_l, dtype=np.int64)],
        pod_created=np.asarray(created, dtype=np.float64),
        pod_death=np.asarray(death, dtype=np.float64),
        pod_prewarmed=_mask(len(created), prewarmed),
        last_event_t=last_event_t,
    )


def _congestion_values(congestion, times: np.ndarray) -> np.ndarray:
    """Vector lookup matching ``CongestionProfile.at`` element-wise."""
    values = congestion.per_minute
    idx = np.minimum((times // 60.0).astype(np.int64), values.size - 1)
    return values[idx]

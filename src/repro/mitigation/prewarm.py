"""Pre-warming policies (paper §3.3 / §5).

"Function invocations follow periodic patterns that could be leveraged to
pre-warm pods with popular configurations, thus reducing cold starts" and
"functions running on timer triggers could be pre-warmed before their next
invocation."

Two policies:

* :class:`TimerPrewarmPolicy` — exact schedule knowledge: the platform can
  read a timer's cron spec, so it warms a pod shortly before each firing.
* :class:`HistogramPrewarmPolicy` — learned minute-of-day invocation
  histograms (the FaaS analogue of Shahrad et al.'s histogram policies),
  for user-driven functions with strong diurnal patterns.
"""

from __future__ import annotations

import numpy as np

from repro.mitigation.base import (
    HorizonSchedule,
    PrewarmPolicy,
    TickAction,
    TickColumns,
    keeps_decision_hooks,
)
from repro.workload.function import FunctionSpec

_MINUTES_PER_DAY = 1440


def _observed(span_index, n_ticks: int):
    """What ticks ``[0, n_ticks)`` observe: the tick edges, the global
    index range ``[lo, hi)`` of the observed arrivals, and the tick that
    observes each of them (span ``k`` is observed at tick ``k``)."""
    edges = span_index.edges(n_ticks)
    lo, hi = int(edges[0]), int(edges[-1])
    tick = np.repeat(
        np.arange(n_ticks, dtype=np.int64), np.diff(edges, prepend=lo)
    )
    return edges, lo, hi, tick


class TimerPrewarmPolicy(PrewarmPolicy):
    """Warms a pod shortly before each known timer firing.

    The policy learns each timer's (period, phase) online from observed
    firings — equivalent to reading the cron spec, but robust to drift.
    """

    def __init__(self, lead_s: float = 30.0, min_period_s: float = 90.0):
        if lead_s <= 0:
            raise ValueError("lead_s must be positive")
        self.lead_s = lead_s
        self.min_period_s = min_period_s
        self._last_seen: dict[int, float] = {}
        self._period: dict[int, float] = {}
        # Incremental plan columns: slot-per-eligible-fid arrays updated
        # only for fids whose state changed since the last decide().
        self._slot: dict[int, int] = {}
        self._slot_fid = np.zeros(0, dtype=np.int64)
        self._slot_fire = np.zeros(0, dtype=np.float64)
        self._dirty: set[int] = set()

    def observe(self, spec: FunctionSpec, t: float) -> None:
        if not spec.is_timer_driven:
            return
        fid = spec.function_id
        last = self._last_seen.get(fid)
        if last is not None:
            gap = t - last
            if gap > 1.0:
                prev = self._period.get(fid)
                # Robust EMA of the firing period.
                self._period[fid] = gap if prev is None else 0.7 * prev + 0.3 * gap
        self._last_seen[fid] = t
        self._dirty.add(fid)

    def observe_batch(self, cols: TickColumns) -> None:
        """Tick-protocol observation: only timer arrivals touch state.

        Sequential (fid, gap) EMA updates through :meth:`observe`; the
        timer mask skips the arrivals :meth:`observe` would ignore anyway.
        """
        if not cols.arrive_fn.size:
            return
        # The mask is keyed by trace index; re-derive it whenever the
        # workload's function-id layout changes (a policy instance may be
        # reused across runs on different workloads).
        timer_mask = getattr(self, "_timer_mask", None)
        mask_fids = getattr(self, "_timer_mask_fids", None)
        if timer_mask is None or not np.array_equal(
            mask_fids, cols.function_ids
        ):
            timer_mask = np.array(
                [s.is_timer_driven for s in cols.specs], dtype=bool
            )
            self._timer_mask = timer_mask
            self._timer_mask_fids = np.array(cols.function_ids, copy=True)
        sel = timer_mask[cols.arrive_fn]
        if not sel.any():
            return
        specs = cols.specs
        for fn, t in zip(
            cols.arrive_fn[sel].tolist(), cols.arrive_t[sel].tolist()
        ):
            self.observe(specs[fn], t)

    def decide(self, tick: int, now: float) -> TickAction:
        """One warm pod for every timer whose next firing is at most
        ``lead_s`` plus one tick away (timers faster than
        ``min_period_s`` are left to the keep-alive). Only dirty fids
        touch the plan columns, so the common tick costs two array ops
        instead of a dict scan."""
        if self._dirty:
            for fid in self._dirty:
                period = self._period.get(fid)
                if period is None or period < self.min_period_s:
                    slot = self._slot.get(fid)
                    if slot is not None:
                        self._slot_fire[slot] = -np.inf  # never in window
                    continue
                slot = self._slot.get(fid)
                if slot is None:
                    slot = self._slot[fid] = len(self._slot)
                    if slot >= self._slot_fid.size:
                        grow = max(64, 2 * self._slot_fid.size)
                        self._slot_fid = np.resize(self._slot_fid, grow)
                        self._slot_fire = np.resize(self._slot_fire, grow)
                    self._slot_fid[slot] = fid
                self._slot_fire[slot] = self._last_seen[fid] + period
            self._dirty.clear()
        n = len(self._slot)
        if not n:
            return TickAction()
        until_fire = self._slot_fire[:n] - now
        mask = (until_fire >= 0.0) & (until_fire <= self.lead_s + self.interval_s)
        if not mask.any():
            return TickAction()
        return TickAction(
            prewarm=tuple((int(fid), 1) for fid in self._slot_fid[:n][mask])
        )

    def horizon_schedule(self, span_index, specs, function_ids, interval_s, n_ticks):
        """Closed form of :meth:`observe_batch` + :meth:`decide` stepped
        from a fresh policy.

        The period EMA runs per timer function over its observed arrivals
        in time order — the one Python loop, over timer arrivals only.
        The state after a span's last arrival of a function fixes its
        fire time for every tick up to the function's next observing
        tick; the ticks it emits are those with ``0 <= fire - now <=
        lead_s + interval_s``, tested with :meth:`decide`'s own float
        expressions.
        """
        if (
            not keeps_decision_hooks(self, TimerPrewarmPolicy)
            or not self.outcome_free_decisions
            or self._last_seen
        ):
            return None
        n_ticks = max(int(n_ticks), 0)
        if not n_ticks:
            return HorizonSchedule(0)
        _, lo, hi, obs_tick = _observed(span_index, n_ticks)
        timer = np.array([s.is_timer_driven for s in specs], dtype=bool)
        sel = np.flatnonzero(timer[span_index.all_fn[lo:hi]])
        fid = np.asarray(function_ids, dtype=np.int64)[
            span_index.all_fn[lo + sel]
        ]
        order = np.argsort(fid, kind="stable")
        fid, sel = fid[order], sel[order]
        t = span_index.all_t[lo + sel]
        tick = obs_tick[sel]
        periods: list = []
        prev_fid = per = None
        last = 0.0
        for f, tj in zip(fid.tolist(), t.tolist()):
            if f != prev_fid:
                prev_fid, per = f, None
            else:
                gap = tj - last
                if gap > 1.0:
                    per = gap if per is None else 0.7 * per + 0.3 * gap
            last = tj
            periods.append(per)
        period = np.array(periods, dtype=np.float64)  # None -> NaN
        # One state per (function, observing tick): the span's last arrival.
        final = np.ones(t.size, dtype=bool)
        final[:-1] = (fid[1:] != fid[:-1]) | (tick[1:] != tick[:-1])
        fid, tick, period = fid[final], tick[final], period[final]
        fire = t[final] + period
        until_tick = np.full(tick.size, n_ticks, dtype=np.int64)
        same = fid[1:] == fid[:-1]
        until_tick[:-1][same] = tick[1:][same]
        valid = period >= self.min_period_s  # NaN: no period learned yet
        fid, tick, until_tick, fire = (
            fid[valid], tick[valid], until_tick[valid], fire[valid]
        )
        window = self.lead_s + self.interval_s
        # Candidate ticks bracket [fire - window, fire] with one spare on
        # each side; the exact float test below decides.
        k_lo = np.maximum(tick, np.clip(
            np.floor((fire - window) / interval_s) - 1, -1, n_ticks
        ).astype(np.int64))
        k_hi = np.minimum(until_tick - 1, np.clip(
            np.floor(fire / interval_s) + 1, -1, n_ticks
        ).astype(np.int64))
        count = np.maximum(k_hi - k_lo + 1, 0)
        owner = np.repeat(np.arange(fire.size), count)
        k = k_lo[owner] + (
            np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        )
        until_fire = fire[owner] - k * interval_s
        hit = (until_fire >= 0.0) & (until_fire <= window)
        return HorizonSchedule(
            n_ticks, k[hit], fid[owner][hit],
            np.ones(int(hit.sum()), dtype=np.int64),
        )

    def describe(self) -> str:
        return f"timer-prewarm(lead={self.lead_s:g}s)"


class HistogramPrewarmPolicy(PrewarmPolicy):
    """Minute-of-day histogram pre-warming for diurnal workloads.

    Counts arrivals per function per minute-of-day; once a function has at
    least ``min_observations`` arrivals, the policy keeps a warm pod during
    minutes whose historical arrival probability exceeds ``threshold``.

    The policy is fully vectorized: the histograms live in one
    ``(n_functions, 1440)`` matrix keyed by trace index, updated per span
    with one scattered add and planned per tick with one row-window
    reduction — no per-arrival or per-function Python in either replay
    engine.
    """

    def __init__(
        self,
        threshold: float = 0.4,
        min_observations: int = 50,
        smooth_minutes: int = 5,
    ):
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self.min_observations = min_observations
        self.smooth_minutes = smooth_minutes
        self._days_seen: float = 1.0
        self._start: float | None = None
        # Allocated on the first batch: ``_win[f, m]`` is the rolling
        # ``[m, m + smooth)`` window count, maintained incrementally so
        # decide() reads one column per tick.
        self._win: np.ndarray | None = None
        self._obs: np.ndarray | None = None
        self._fids: np.ndarray | None = None

    def observe_batch(self, cols: TickColumns) -> None:
        # State is keyed by trace index; reallocate whenever the
        # workload's function-id layout changes (a policy instance may be
        # reused across runs on different workloads).
        if self._win is None or not np.array_equal(
            self._fids, cols.function_ids
        ):
            n = len(cols.specs)
            self._win = np.zeros((n, _MINUTES_PER_DAY), dtype=np.float64)
            self._obs = np.zeros(n, dtype=np.int64)
            self._fids = np.array(cols.function_ids, dtype=np.int64, copy=True)
        if not cols.arrive_fn.size:
            return
        t = cols.arrive_t
        if self._start is None:
            self._start = float(t[0])
        self._days_seen = max((float(t[-1]) - self._start) / 86_400.0, 1.0)
        minutes = ((t % 86_400.0) // 60.0).astype(np.int64)
        # An arrival at minute m lands in every window [m - o, m - o +
        # smooth) for o < smooth_minutes (counts are integers: exact
        # whatever the accumulation order).
        for offset in range(self.smooth_minutes):
            np.add.at(
                self._win,
                (cols.arrive_fn, (minutes - offset) % _MINUTES_PER_DAY),
                1.0,
            )
        self._obs += np.bincount(
            cols.arrive_fn, minlength=self._obs.size
        ).astype(np.int64)

    def decide(self, tick: int, now: float) -> TickAction:
        if self._win is None:
            return TickAction()
        minute = int((now % 86_400.0) // 60.0)
        window = self._win[:, minute]
        prob = 1.0 - np.exp(-(window / self._days_seen))
        eligible = (self._obs >= self.min_observations) & (prob >= self.threshold)
        if not eligible.any():
            return TickAction()
        return TickAction(
            prewarm=tuple((int(fid), 1) for fid in self._fids[eligible])
        )

    def horizon_schedule(self, span_index, specs, function_ids, interval_s, n_ticks):
        """Closed form of :meth:`observe_batch` + :meth:`decide` stepped
        from a fresh policy.

        At tick ``k`` the window of function ``f`` counts its observed
        arrivals whose minute of day lies in ``[m_k, m_k + smooth)``
        (cyclic). Ticks are answered in half-day blocks: arrivals
        observed before a block enter through a running ``(n_fns, 1440)``
        histogram and its cyclic window sums; arrivals observed inside it
        add +1 from their observing tick to the end of the block's run of
        ticks on each window minute they feed (one run per minute, since a
        block spans under a day). Memory stays ``O(block x n_fns)``, and
        the probability is the same float expression as :meth:`decide`,
        evaluated on a contiguous float64 block.
        """
        smooth = self.smooth_minutes
        if (
            not keeps_decision_hooks(self, HistogramPrewarmPolicy)
            or not self.outcome_free_decisions
            or self._win is not None or self._start is not None
            or not 0 <= smooth <= _MINUTES_PER_DAY
        ):
            return None
        n_ticks = max(int(n_ticks), 0)
        n_fns = len(specs)
        if not n_ticks or not n_fns:
            return HorizonSchedule(n_ticks)
        fids = np.asarray(function_ids, dtype=np.int64)
        edges, lo, hi, tick = _observed(span_index, n_ticks)
        t = span_index.all_t[lo:hi]
        fn = span_index.all_fn[lo:hi]
        minute = ((t % 86_400.0) // 60.0).astype(np.int64)
        days_seen = np.ones(n_ticks, dtype=np.float64)
        seen = edges > lo
        if seen.any():
            days_seen[seen] = np.maximum(
                (span_index.all_t[edges[seen] - 1] - t[0]) / 86_400.0, 1.0
            )
        block = max(1, int(43_200.0 // interval_s))
        hist = np.zeros((n_fns, _MINUTES_PER_DAY), dtype=np.int64)
        obs = np.zeros(n_fns, dtype=np.int64)
        out_tick, out_fid = [], []
        for k0 in range(0, n_ticks, block):
            k1 = min(k0 + block, n_ticks)
            width = k1 - k0
            now = np.arange(k0, k1) * interval_s
            tick_minute = ((now % 86_400.0) // 60.0).astype(np.int64)
            # Windows over the arrivals observed before the block.
            wrapped = np.concatenate([hist, hist[:, :smooth]], axis=1)
            csum = np.zeros((n_fns, wrapped.shape[1] + 1), dtype=np.int64)
            np.cumsum(wrapped, axis=1, out=csum[:, 1:])
            win_old = csum[:, smooth:smooth + _MINUTES_PER_DAY] \
                - csum[:, :_MINUTES_PER_DAY]
            window = win_old.T[tick_minute]
            # Arrivals observed inside the block.
            a0, a1 = np.searchsorted(tick, (k0, k1))
            nf, nm, nt = fn[a0:a1], minute[a0:a1], tick[a0:a1] - k0
            starts = np.flatnonzero(
                np.concatenate(([True], tick_minute[1:] != tick_minute[:-1]))
            )
            run_lo = np.zeros(_MINUTES_PER_DAY, dtype=np.int64)
            run_hi = np.zeros(_MINUTES_PER_DAY, dtype=np.int64)
            run_lo[tick_minute[starts]] = starts
            run_hi[tick_minute[starts]] = np.append(starts[1:], width)
            delta = np.zeros(n_fns * (width + 1), dtype=np.int64)
            for offset in range(smooth):
                key = (nm - offset) % _MINUTES_PER_DAY
                start = np.maximum(run_lo[key], nt)
                stop = run_hi[key]
                ok = start < stop
                row = nf[ok] * (width + 1)
                delta += np.bincount(row + start[ok], minlength=delta.size)
                delta -= np.bincount(row + stop[ok], minlength=delta.size)
            window += np.cumsum(
                delta.reshape(n_fns, width + 1), axis=1
            )[:, :width].T
            counts = np.bincount(
                nt * n_fns + nf, minlength=width * n_fns
            ).reshape(width, n_fns)
            observed = np.cumsum(counts, axis=0) + obs
            prob = 1.0 - np.exp(-(window / days_seen[k0:k1, None]))
            eligible = (observed >= self.min_observations) & (
                prob >= self.threshold
            )
            k_hit, f_hit = np.nonzero(eligible)
            out_tick.append(k_hit + k0)
            out_fid.append(fids[f_hit])
            hist += np.bincount(
                nf * _MINUTES_PER_DAY + nm, minlength=hist.size
            ).reshape(hist.shape)
            obs += np.bincount(nf, minlength=n_fns)
        tick_out = np.concatenate(out_tick)
        return HorizonSchedule(
            n_ticks, tick_out, np.concatenate(out_fid),
            np.ones(tick_out.size, dtype=np.int64),
        )

    def describe(self) -> str:
        return f"histogram-prewarm(p>{self.threshold:g})"

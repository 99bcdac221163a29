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

from repro.mitigation.base import PrewarmPolicy, TickAction, TickColumns
from repro.workload.function import FunctionSpec

_MINUTES_PER_DAY = 1440


class NoPrewarm(PrewarmPolicy):
    """Baseline: never pre-warm."""

    def decide(self, tick: int, now: float) -> TickAction:
        return TickAction()

    def describe(self) -> str:
        return "no-prewarm"


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

    def describe(self) -> str:
        return f"histogram-prewarm(p>{self.threshold:g})"

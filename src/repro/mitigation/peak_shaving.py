"""Temporal peak shaving for asynchronous triggers (paper §3.3 / §5).

"Delaying pod allocation for asynchronously invoked functions could reduce
peaks if they are not latency critical ... Given the narrow peak widths,
even a short delay could significantly reduce peak pod allocations."

The shaver watches the exogenous cold-start congestion profile (and, in
subclasses, the alive-pod gauge); while the platform is stampeding,
cold-bound asynchronous requests are pushed back by a bounded, staggered
delay.
"""

from __future__ import annotations

import numpy as np

from repro.mitigation.base import (
    HorizonSchedule,
    PeakShaver,
    ShaveDirective,
    TickAction,
    TickColumns,
    keeps_decision_hooks,
)


class AsyncPeakShaver(PeakShaver):
    """Delays cold-bound async requests while the platform is peaking.

    Tick-native: the gauge EMA updates at tick boundaries
    (:meth:`observe_batch`) and :meth:`decide` freezes the span's shaving
    rule into a pure :class:`~repro.mitigation.base.ShaveDirective` —
    gauge trigger decided at the tick, stampede trigger evaluated per
    arrival against the exogenous congestion profile, delays staggered by
    a function-local golden-ratio smear. No per-arrival shared state, so
    the vectorized engine replays it bit-identically to the event loop.

    Attributes:
        max_delay_s: upper bound on added latency (the async deadline).
            Keep this *below* the pod keep-alive: then the first delayed
            request's pod is still warm when its peers re-arrive, so
            shaving consolidates allocations instead of fragmenting them.
            (The ablation bench shows delays beyond the keep-alive
            *increase* peak allocations.)
        ema_alpha: smoothing for the long-run mean gauge EMA (updated at
            every tick; read by ``load_ratio``-based subclass criteria).
    """

    def __init__(self, max_delay_s: float = 45.0, ema_alpha: float = 0.02):
        if max_delay_s <= 0:
            raise ValueError("max_delay_s must be positive")
        if not 0 < ema_alpha <= 1:
            raise ValueError("ema_alpha must be in (0, 1]")
        self.max_delay_s = max_delay_s
        self.ema_alpha = ema_alpha
        self._mean_pods: float | None = None
        self._current_pods: float = 0.0

    def observe_batch(self, cols: TickColumns) -> None:
        alive_pods = cols.alive_pods
        self._current_pods = float(alive_pods)
        if self._mean_pods is None:
            self._mean_pods = float(alive_pods)
        else:
            self._mean_pods += self.ema_alpha * (alive_pods - self._mean_pods)

    @property
    def load_ratio(self) -> float:
        """Current gauge over long-run mean (1.0 when unknown)."""
        if not self._mean_pods:
            return 1.0
        return self._current_pods / self._mean_pods

    #: excess cold-start intensity beyond which shaving kicks in, whatever
    #: the standing pod gauge says (detects allocation stampedes).
    congestion_trigger: float = 0.5

    @property
    def outcome_free_decisions(self) -> bool:
        """The built-in directive never reads the gauge (``gauge_peaking``
        is constant), so the decision stream is outcome-free. Any
        subclass overriding a hook that could route replay outcomes into
        the decision stream — ``decide``, ``gauge_peaking``, or the
        observation path feeding them — runs on the event engine
        (conservative but exact)."""
        return keeps_decision_hooks(self, AsyncPeakShaver)

    def horizon_schedule(self, span_index, specs, function_ids, interval_s, n_ticks):
        """The built-in directive is one constant over the horizon."""
        if not self.outcome_free_decisions:
            return None
        n_ticks = max(int(n_ticks), 0)
        return HorizonSchedule(
            n_ticks,
            shave_present=np.ones(n_ticks, dtype=bool),
            shave_gauge_active=np.zeros(n_ticks, dtype=bool),
            shave_trigger=np.full(n_ticks, float(self.congestion_trigger)),
            shave_max_delay=np.full(n_ticks, float(self.max_delay_s)),
        )

    def gauge_peaking(self, tick: int, now: float) -> bool:
        """Whether the standing pod gauge justifies shaving the next span.

        Deliberately ``False`` for the built-in shaver: on diurnal fleets
        the lagging gauge mean flags every afternoon as a "peak", while
        the allocation stampedes the paper targets live in the exogenous
        congestion profile — which the directive below triggers on per
        arrival. Subclasses with a calibrated gauge criterion can return
        :attr:`load_ratio`-based decisions here (the tick EMA keeps
        updating either way); ``engine="vector"`` replays such outcome
        feedback on the event engine.
        """
        return False

    def decide(self, tick: int, now: float) -> TickAction:
        return TickAction(
            shave=ShaveDirective(
                gauge_active=self.gauge_peaking(tick, now),
                congestion_trigger=self.congestion_trigger,
                max_delay_s=self.max_delay_s,
            )
        )

    def describe(self) -> str:
        return f"peak-shave(max={self.max_delay_s:g}s)"

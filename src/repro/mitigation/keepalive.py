"""Dynamic keep-alive (paper §5, "Predicting cold starts").

"For functions running on timers less frequent than 1 minute, a keep alive
time of 1 minute is unnecessary and wasteful. Cloud providers may consider
a dynamic keep-alive time for such functions."

The policy below uses the trigger metadata the provider already has: a
timer whose period exceeds the default keep-alive can never be saved by it
— the pod always dies before the next firing — so its pod is released
almost immediately, reclaiming (keepalive - epsilon) pod-seconds per cold
start at zero latency cost. Timers at or below the keep-alive keep the
default (their pods genuinely stay warm).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.lifecycle import DEFAULT_KEEPALIVE_S, KeepAlivePolicy
from repro.workload.function import FunctionSpec


@dataclass(frozen=True)
class DynamicKeepAlive(KeepAlivePolicy):
    """Per-function keep-alive driven by timer trigger metadata.

    Attributes:
        default_s: keep-alive for non-timer functions (production 60 s).
        released_s: residual keep-alive for hopeless timers (a small grace
            period for retries rather than a full minute).
        margin: a timer must exceed ``default_s * margin`` to be released
            early, protecting periods right at the boundary where jitter
            sometimes keeps the pod alive.
    """

    default_s: float = DEFAULT_KEEPALIVE_S
    released_s: float = 2.0
    margin: float = 1.5

    def __post_init__(self) -> None:
        if self.released_s <= 0 or self.default_s <= 0:
            raise ValueError("keep-alive values must be positive")
        if self.released_s > self.default_s:
            raise ValueError("released_s should not exceed default_s")
        if self.margin < 1.0:
            raise ValueError("margin must be >= 1")

    def keepalive_for(self, spec: FunctionSpec, now: float) -> float:
        if (
            spec.is_timer_driven
            and spec.timer_period_s > self.default_s * self.margin
        ):
            return self.released_s
        return self.default_s

    def describe(self) -> str:
        return f"dynamic({self.released_s:g}s for period>{self.default_s * self.margin:g}s)"

"""Concurrency adjustment (paper §5).

"Each function has a user-set concurrency value ... For many functions,
the resource utilization can be improved by increasing concurrency as long
as the total execution time remains acceptable."

Raising per-pod concurrency packs overlapping requests into fewer pods, so
scale-out cold starts and pod-seconds drop; the cost is execution-time
inflation from in-pod contention. :func:`evaluate_concurrency` re-runs the
exact keep-alive lifecycle reconstruction at different concurrency levels
and reports that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.lifecycle import reconstruct_function_pods
from repro.workload.generator import FunctionTrace


@dataclass
class ConcurrencyOutcome:
    """Effect of one concurrency setting on one workload."""

    concurrency: int
    cold_starts: int
    pod_seconds: float
    exec_inflation: float

    def summary(self) -> dict[str, object]:
        return {
            "concurrency": self.concurrency,
            "cold_starts": self.cold_starts,
            "pod_hours": round(self.pod_seconds / 3600.0, 2),
            "exec_inflation": round(self.exec_inflation, 3),
        }


def evaluate_concurrency(
    traces: list[FunctionTrace],
    concurrency_levels: tuple[int, ...] = (1, 2, 4, 8),
    contention_alpha: float = 0.08,
    keepalive_s: float = 60.0,
) -> list[ConcurrencyOutcome]:
    """Replay lifecycles at several concurrency levels.

    ``contention_alpha`` models in-pod slowdown: execution times are
    multiplied by ``1 + alpha * (c - 1)`` (shared CPU among co-resident
    requests). Cold starts and pod-seconds come from the exact keep-alive
    reconstruction, so the numbers are directly comparable with the
    generator's baseline.
    """
    if contention_alpha < 0:
        raise ValueError("contention_alpha must be non-negative")
    outcomes = []
    for level in concurrency_levels:
        if level < 1:
            raise ValueError("concurrency levels must be >= 1")
        inflation = 1.0 + contention_alpha * (level - 1)
        cold = 0
        pod_seconds = 0.0
        for trace in traces:
            lifecycle = reconstruct_function_pods(
                trace.arrivals, trace.exec_s * inflation, keepalive_s, level
            )
            cold += lifecycle.n_pods
            pod_seconds += float(lifecycle.total_lifetime_s(keepalive_s).sum())
        outcomes.append(
            ConcurrencyOutcome(
                concurrency=level,
                cold_starts=cold,
                pod_seconds=pod_seconds,
                exec_inflation=inflation,
            )
        )
    return outcomes

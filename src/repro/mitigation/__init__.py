"""Mitigation strategies from the paper's §5, with production baselines.

The paper is a measurement study; it closes by proposing concrete
directions. This package implements them and evaluates each against the
production defaults (fixed 60 s keep-alive, reactive pools, home-region
routing, on-demand pod allocation):

* **pre-warming** by learned invocation histograms and timer schedules
  (:mod:`~repro.mitigation.prewarm`);
* **dynamic keep-alive** for functions whose period exceeds the default
  keep-alive (:mod:`~repro.mitigation.keepalive`);
* **peak shaving** by delaying non-latency-critical asynchronous requests
  (:mod:`~repro.mitigation.peak_shaving`);
* **cross-region scheduling** exploiting peak-time lag between regions
  (:mod:`~repro.mitigation.cross_region`);
* **resource-pool prediction** sizing per-config pod pools ahead of demand
  (:mod:`~repro.mitigation.pool_prediction`);
* **concurrency adjustment** packing more requests per pod
  (:mod:`~repro.mitigation.concurrency`).
"""

from repro.mitigation.base import (
    EvalMetrics,
    PeakShaver,
    PrewarmPolicy,
    RouteDirective,
    ShaveDirective,
    TickAction,
    TickColumns,
    TickPolicy,
)
from repro.mitigation.evaluator import (
    RegionEvaluator,
    build_workload,
    build_workload_shard,
)
from repro.mitigation.keepalive import DynamicKeepAlive
from repro.mitigation.prewarm import (
    HistogramPrewarmPolicy,
    TimerPrewarmPolicy,
)
from repro.mitigation.peak_shaving import AsyncPeakShaver
from repro.mitigation.cross_region import (
    BestRegionRouter,
    CrossRegionEvaluator,
    RoutingPolicy,
)
from repro.mitigation.pool_prediction import (
    PoolSimulationResult,
    PredictivePoolPolicy,
    ReactivePoolPolicy,
    simulate_pool,
)
from repro.mitigation.concurrency import evaluate_concurrency

__all__ = [
    "EvalMetrics",
    "PrewarmPolicy",
    "PeakShaver",
    "TickPolicy",
    "TickColumns",
    "TickAction",
    "ShaveDirective",
    "RouteDirective",
    "BestRegionRouter",
    "RegionEvaluator",
    "build_workload",
    "build_workload_shard",
    "DynamicKeepAlive",
    "HistogramPrewarmPolicy",
    "TimerPrewarmPolicy",
    "AsyncPeakShaver",
    "CrossRegionEvaluator",
    "RoutingPolicy",
    "ReactivePoolPolicy",
    "PredictivePoolPolicy",
    "PoolSimulationResult",
    "simulate_pool",
    "evaluate_concurrency",
]

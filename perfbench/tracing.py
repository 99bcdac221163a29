"""Layer spans recorded from the benchmark's own files.

The program is not instrumented for this benchmark. Instead, the traced run
wraps the public entry points of each layer (named after the module that
holds it) so every call opens a span. Spans nest by call order and form a
tree; a layer's self time is its spans' durations minus their children's.
The ``tick``/``repair``/``vector``/``runtime`` numbers come from the
program's own ``repro.obs`` counters instead (see :func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

import workloads

TICK_POLICIES = ("TimerPrewarmPolicy", "HistogramPrewarmPolicy", "AsyncPeakShaver")

#: Per-layer metrics, in report order. Every workload calls every layer, so
#: every traced run reports all of them.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("workload.generate_s", "s"),
    ("workload.population_s", "s"),
    ("workload.traces_s", "s"),
    ("cluster.lifecycle_s", "s"),
    ("sim.latency_s", "s"),
    ("workload.requests", "count"),
    ("workload.pods", "count"),
    ("workload.req_per_s", "1/s"),
    ("study.generate_s", "s"),
    *((f"study.{fig_id}_s", "s") for fig_id in workloads.FIGURE_IDS),
    ("core.findings_s", "s"),
    ("accumulators.update_s", "s"),
    ("accumulators.merge_s", "s"),
    ("runtime.shards", "count"),
    ("runtime.shard_wall_s", "s"),
    ("runtime.shard_cpu_s", "s"),
    ("runtime.busy_ratio", "ratio"),
    ("runtime.result_bytes", "bytes"),
    ("runtime.dispatch_bytes", "bytes"),
    ("runtime.arena_reuse_ratio", "ratio"),
    ("runtime.jobs_speedup", "ratio"),
    ("mitigation.run_s", "s"),
    *((f"evaluator.{policy}_s", "s") for policy in workloads.POLICIES),
    ("evaluator.merge_s", "s"),
    *((f"tick.{name}_s", "s") for name in TICK_POLICIES),
    ("tick.steps", "count"),
    ("repair.rounds", "count"),
    ("repair.functions_rereplayed", "count"),
    ("repair.fingerprint_hit_ratio", "ratio"),
    ("vector.scalar_arrival_share", "ratio"),
    ("cross_region.best-region_s", "s"),
    ("obs.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("uncovered_s", "s"),
)

#: Fault counters: ``(name, telemetry section, key)``. They read 0 on a
#: healthy run, so they are printed beside the result, not reported as
#: metrics. The repair fallback comes from the serial pass, the runtime
#: faults from the pooled passes.
FAULT_COUNTERS = (
    ("repair.event_fallbacks", "counters", "repair/event_fallbacks"),
    ("runtime.retries", "volatile", "runtime/faults/retries"),
    ("runtime.channel_fallbacks", "volatile", "runtime/faults/channel_fallbacks"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.requests = 0
        self.pods = 0

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]


class _Open:
    __slots__ = ("_tracer", "_name", "_span")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self._span = Span(len(tracer.spans), self._name, parent,
                          time.perf_counter())
        tracer.spans.append(self._span)
        tracer._stack.append(self._span.id)
        return self._span

    def __exit__(self, *exc):
        self._span.end = time.perf_counter()
        self._tracer._stack.pop()
        return None


def _evaluator_span(kwargs) -> str:
    return f"evaluator.{kwargs['name']}"


def _cross_region_span(kwargs) -> str:
    return f"cross_region.{kwargs['policy'].value}"


#: (module, attribute path, span name or ``kwargs -> name``). The program
#: passes the policy name and routing policy to ``run`` as keywords.
WRAPPED: tuple[tuple[str, str, object], ...] = (
    ("repro.workload.generator", "WorkloadGenerator.generate", "workload.generate"),
    ("repro.mitigation.evaluator", "build_workload_shard", "workload.generate"),
    ("repro.workload.generator", "build_population", "workload.population"),
    ("repro.workload.generator", "WorkloadGenerator._generate_function_traces",
     "workload.traces"),
    ("repro.workload.generator", "reconstruct_function_pods", "cluster.lifecycle"),
    ("repro.sim.latency", "LatencyModel.sample_components", "sim.latency"),
    ("repro.analysis.accumulators", "RegionAccumulator.update", "accumulators.update"),
    ("repro.analysis.accumulators", "RegionAccumulator.merge", "accumulators.merge"),
    ("repro.mitigation.evaluator", "RegionEvaluator.run", _evaluator_span),
    ("repro.mitigation.base", "EvalMetrics.merge", "evaluator.merge"),
    ("repro.runtime.merge", "merge_eval_metrics", "evaluator.merge"),
    ("repro.mitigation.cross_region", "CrossRegionEvaluator.run", _cross_region_span),
)


class LayerHooks:
    """Installs span wrappers on every :data:`WRAPPED` entry point.

    ``with LayerHooks() as tracer:`` wraps on entry, records every call
    into ``tracer`` and restores the originals on exit.
    """

    def __init__(self):
        self.tracer = Tracer()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attr))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return None

    def _wrap(self, fn, name, attr):
        tracer = self.tracer
        counts = attr == "_generate_function_traces"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(kwargs) if callable(name) else name
            with tracer.span(label):
                result = fn(*args, **kwargs)
            if counts:
                for trace in result:
                    tracer.requests += int(trace.lifecycle.n_requests)
                    tracer.pods += int(trace.lifecycle.n_pods)
            return result

        return wrapper


def traced_pass(workload, run_steps, jobs=None):
    """One run of ``run_steps`` with the span wrappers installed, under
    ``repro.obs.profiled()``.

    Returns ``(tracer, telemetry, wall_s, outputs)``.
    """
    from repro import obs

    with LayerHooks() as tracer, obs.profiled() as tel:
        t0 = time.perf_counter()
        outputs = workloads.run(workload, run_steps, jobs=jobs, tracer=tracer)
        wall_s = time.perf_counter() - t0
    return tracer, tel, wall_s, outputs


# --- analysis of a finished trace -------------------------------------------------


def check_tree(spans: list[Span]) -> None:
    """Raise unless spans form a tree whose parents enclose their children."""
    by_id = {s.id: s for s in spans}
    if len(by_id) != len(spans):
        raise ValueError("duplicate span ids")
    for s in spans:
        if not s.start <= s.end:
            raise ValueError(f"span {s.name!r} ends before it starts")
        if s.parent is None:
            continue
        parent = by_id.get(s.parent)
        if parent is None or parent.id >= s.id:
            raise ValueError(f"span {s.name!r} has no earlier parent")
        if not (parent.start <= s.start and s.end <= parent.end):
            raise ValueError(
                f"span {s.name!r} is not enclosed by its parent {parent.name!r}"
            )


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - child_time.get(s.id, 0.0)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fault_counts(serial_tel, pooled_tel) -> dict[str, float]:
    """Every :data:`FAULT_COUNTERS` value."""
    out = {}
    for name, section, key in FAULT_COUNTERS:
        tel = serial_tel if section == "counters" else pooled_tel
        out[name] = float(getattr(tel, section).get(key, 0))
    return out


def layer_metrics(workload, tracer: Tracer, wall_s: float, serial_tel,
                  pooled) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value but ``obs.overhead_ratio``, which
    ``rep.py`` measures.

    ``tracer``, ``wall_s`` and ``serial_tel`` belong to the serial traced
    pass. ``pooled`` is ``(telemetry, wall_s, runs)``: the merged
    ``repro.obs`` telemetry and summed wall time of the traced passes at the
    workload's own jobs, which add up to ``runs`` whole runs of the workload.
    """
    spans = tracer.spans
    own = self_times(spans)
    metrics: dict[str, float] = {}
    for name, _ in LAYER_METRICS:
        if name.endswith("_s") and name[:-2] in own:
            metrics[name] = own[name[:-2]]
    generate_total = sum(s.end - s.start for s in spans if s.name == "workload.generate")
    metrics["workload.requests"] = float(tracer.requests)
    metrics["workload.pods"] = float(tracer.pods)
    metrics["workload.req_per_s"] = _ratio(tracer.requests, generate_total)

    counters, timers = serial_tel.counters, serial_tel.timers
    for name in TICK_POLICIES:
        metrics[f"tick.{name}_s"] = timers.get(f"tick/policy/{name}_s", 0.0)
    metrics["tick.steps"] = float(counters.get("tick/steps", 0))
    metrics["repair.rounds"] = float(counters.get("repair/rounds", 0))
    metrics["repair.functions_rereplayed"] = float(
        counters.get("repair/functions_rereplayed", 0))
    hits = counters.get("repair/fingerprint_hits", 0)
    metrics["repair.fingerprint_hit_ratio"] = _ratio(
        hits, hits + counters.get("repair/fingerprint_misses", 0))
    scalar = sum(counters.get(key, 0) for key in (
        "vector/cold/scalar_arrivals", "vector/chain/scalar_arrivals",
        "vector/episode/scalar_arrivals", "vector/coupled/scalar_arrivals"))
    batched = sum(counters.get(key, 0) for key in (
        "vector/spec/accepted", "vector/chain/jumped_arrivals",
        "vector/coupled/chain_jumped", "vector/coupled/slot_swept"))
    metrics["vector.scalar_arrival_share"] = _ratio(scalar, scalar + batched)

    tel, pooled_wall, runs = pooled
    volatile, ptimers = tel.volatile, tel.timers
    shard_wall = ptimers.get("runtime/shard_wall_s", 0.0)
    metrics.update({
        "runtime.shards": volatile.get("runtime/shards", 0) / runs,
        "runtime.shard_wall_s": shard_wall / runs,
        "runtime.shard_cpu_s": ptimers.get("runtime/shard_cpu_s", 0.0) / runs,
        "runtime.busy_ratio": _ratio(shard_wall, workload.jobs * pooled_wall),
        "runtime.result_bytes": volatile.get("runtime/payload_bytes", 0) / runs,
        "runtime.dispatch_bytes": (
            volatile.get("runtime/dispatch/parked_bytes", 0)
            + volatile.get("runtime/dispatch/pickled_bytes", 0)) / runs,
        "runtime.arena_reuse_ratio": _ratio(
            volatile.get("runtime/arena/reuses", 0),
            volatile.get("runtime/arena/leases", 0)),
        "runtime.jobs_speedup": _ratio(wall_s * runs, pooled_wall),
    })
    top_level = sum(s.end - s.start for s in spans if s.parent is None)
    metrics["trace.wall_s"] = wall_s
    # The pass's own loop and output formatting lie outside every span, so
    # this is positive.
    metrics["uncovered_s"] = wall_s - top_level
    return {name: metrics.get(name, 0.0) for name, _ in LAYER_METRICS
            if name != "obs.overhead_ratio"}

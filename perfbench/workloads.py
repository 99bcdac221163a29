"""The benchmark's two batch workloads: their inputs, their run, their digest.

Each workload is one closed-loop job: one client submits a run of the whole
``generate -> analyze -> mitigate`` pipeline and waits for it to finish.
Every run calls every layer: of its study traces, one is generated and
analysed materialised (``TraceStudy``, serial) and the next streamed
(``StreamingTraceStudy`` at the workload's jobs), and its replay traces go
through the §5 policy matrix and one cross-region replay at the workload's
jobs. The workloads differ in which stage dominates:

* ``fleet-month``  two R1..R5 fleets over 31 days analysed, one R2 week
                   replayed: the analysis layers do most of the work.
* ``region-week``  three R2 weeks, each analysed and then replayed: the
                   mitigation layers do most of the work.

Inputs come from the benchmark seed only. The synthetic fleets are small
and heavy-tailed: at these scales two seeds can differ tenfold in request
volume, and as much again in how many cold starts and autoscaled episodes
the volume turns into. To keep one run comparable with the next, a seed
picks *which* traces to generate, not how big they are. Candidate trace
seeds are derived from the benchmark seed in a fixed order, and the first
ones whose expected size (:func:`trace_size`) lies within ``TOLERANCE`` of
the input's target on every axis are used. Each run processes ``count``
such traces of each input back to back.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace

#: How far (relative) a chosen trace may stray from the target size on each
#: axis of :func:`trace_size`: requests, cold starts, autoscaled segments.
TOLERANCE = (0.05, 0.10, 0.25)
#: Candidate trace seeds tried per benchmark seed before giving up.
MAX_CANDIDATES = 3000

#: Pooled runs move shard inputs and results through shared memory.
CHANNEL = "shm"
POLICIES = ("baseline", "timer-prewarm", "histogram-prewarm", "peak-shaving")
FIGURE_IDS = ("fig01", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
              "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
              "fig16", "fig17")


@dataclass(frozen=True)
class TraceInput:
    """How one stage's traces are drawn from the benchmark seed."""

    family: str
    regions: tuple[str, ...]
    days: int
    scale: float
    #: Expected size per trace along the axes of :func:`trace_size` (all
    #: regions, whole horizon); ``None`` takes every candidate as it comes.
    target: tuple[float, float, float] | None
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: Traces analysed, materialised and streamed by turns (at least two).
    study: TraceInput
    #: Traces replayed under every policy and cross-region (one region).
    replay: TraceInput
    #: Workers of the streamed study and the replays; the materialised
    #: study always runs serially.
    jobs: int = 2
    chunk_days: int = 7
    policies: tuple[str, ...] = POLICIES


_FLEET_INPUT = TraceInput(
    family="trace", regions=("R1", "R2", "R3", "R4", "R5"), days=31,
    scale=0.05, target=(0.7e6, 102e3, 3.3e3), count=2,
)
_WEEK_INPUT = TraceInput(
    family="replay", regions=("R2",), days=7, scale=0.12,
    target=(0.12e6, 14e3, 330.0), count=1,
)

WORKLOADS: dict[str, Workload] = {
    "fleet-month": Workload("fleet-month", study=_FLEET_INPUT, replay=_WEEK_INPUT),
    # The same family as the replay input, so each week is analysed and
    # then replayed.
    "region-week": Workload(
        "region-week", study=replace(_WEEK_INPUT, count=3),
        replay=replace(_WEEK_INPUT, count=3), chunk_days=2,
    ),
}


# --- inputs -------------------------------------------------------------------


def _candidate_seed(family: str, seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{family}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def trace_size(inputs: TraceInput, trace_seed: int) -> tuple[float, float, float]:
    """Expected (requests, cold starts, autoscaled segments) of one trace.

    Computed from the function population alone, which is cheap to sample
    (no arrivals are drawn): each arrival process reports its expected
    request count. Cold starts are estimated as one per timer firing past
    the keep-alive plus one per session that follows a longer gap;
    autoscaled segments weight those sessions by how far their in-flight
    load reaches the function's concurrency, since each such segment takes
    the lifecycle's window-binned path.
    """
    from repro.cluster.lifecycle import DEFAULT_KEEPALIVE_S
    from repro.workload.arrivals import make_arrival_process
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.regions import REGION_PROFILES

    horizon_s = inputs.days * 86_400.0
    requests = cold = autoscaled = 0.0
    for region in inputs.regions:
        profile = REGION_PROFILES[region].scaled(inputs.scale)
        shape = profile.rate_shape()
        generator = WorkloadGenerator(profile, seed=trace_seed, days=inputs.days)
        for spec in generator.population():
            expected = make_arrival_process(spec, shape).expected_count(horizon_s)
            requests += expected
            if spec.arrival_kind == "timer":
                cold += (expected if spec.timer_period_s > DEFAULT_KEEPALIVE_S
                         else inputs.days)
                continue
            sessions = expected / spec.session_mean_requests
            after_gap = sessions * math.exp(-sessions / horizon_s * DEFAULT_KEEPALIVE_S)
            in_flight = (spec.session_mean_requests * spec.mean_exec_s
                         / spec.session_duration_s)
            cold += after_gap
            autoscaled += after_gap * min(in_flight / spec.concurrency, 1.0)
    return requests, cold, autoscaled


def trace_seeds(inputs: TraceInput, seed: int) -> list[int]:
    """The trace seeds one benchmark seed stands for (deterministic)."""
    seeds: list[int] = []
    for k in range(MAX_CANDIDATES):
        if len(seeds) == inputs.count:
            return seeds
        candidate = _candidate_seed(inputs.family, seed, k)
        if inputs.target is None or all(
            abs(size / target - 1.0) <= tolerance
            for size, target, tolerance in zip(
                trace_size(inputs, candidate), inputs.target, TOLERANCE)
        ):
            seeds.append(candidate)
    if len(seeds) == inputs.count:
        return seeds
    raise RuntimeError(
        f"fewer than {inputs.count} of {MAX_CANDIDATES} candidate trace seeds "
        f"are within {TOLERANCE} of the target size {inputs.target}"
    )


def workload_seeds(workload: Workload, seed: int) -> dict[str, list[int]]:
    """The ``study`` and ``replay`` trace seeds of one benchmark seed
    (see :func:`steps`)."""
    study = trace_seeds(workload.study, seed)
    replay = study if workload.replay == workload.study else trace_seeds(
        workload.replay, seed)
    return {"study": study, "replay": replay}


# --- runs ---------------------------------------------------------------------


def preload() -> None:
    """Import every module a run calls into, so timing excludes imports."""
    import repro.analysis.accumulators  # noqa: F401
    import repro.core.findings  # noqa: F401
    import repro.core.study  # noqa: F401
    import repro.mitigation  # noqa: F401
    import repro.mitigation.cross_region  # noqa: F401
    import repro.runtime.executor  # noqa: F401
    import repro.viz.figures  # noqa: F401


class NullTracer:
    """Stands in for :class:`tracing.Tracer` in untraced runs."""

    def span(self, name: str):
        return nullcontext()


def steps(seeds: dict[str, list[int]]) -> list[tuple[str, int]]:
    """One run's steps, in order: ``(kind, trace seed)`` with kind
    ``study`` (materialised), ``stream`` or ``replay``.

    Study traces alternate between the two study paths. Analysing two
    traces once each, rather than one trace twice, halves how much a
    run's cost hangs on one trace's content.
    """
    return ([(("study", "stream")[i % 2], seed)
             for i, seed in enumerate(seeds["study"])]
            + [("replay", seed) for seed in seeds["replay"]])


def run(workload: Workload, run_steps: list[tuple[str, int]],
        jobs: int | None = None, tracer=None) -> list[str]:
    """Run ``workload``'s steps; the printable output of each, in order.

    ``jobs`` overrides the workload's own worker count (the traced run's
    serial pass). ``tracer`` opens the top-level layer spans.
    """
    tracer = tracer or NullTracer()
    jobs = workload.jobs if jobs is None else jobs
    return [_run_mitigate(workload, seed, jobs, tracer) if kind == "replay"
            else _run_study(workload, seed, jobs, tracer, kind == "stream")
            for kind, seed in run_steps]


def _run_study(workload: Workload, seed: int, jobs: int, tracer,
               streamed: bool) -> str:
    from repro.core.findings import extract_findings
    from repro.core.study import StreamingTraceStudy, TraceStudy
    from repro.viz.figures import render

    inputs = workload.study
    with tracer.span("study.generate"):
        if streamed:
            study = StreamingTraceStudy.generate(
                inputs.regions, seed=seed, days=inputs.days,
                scale=inputs.scale, jobs=jobs, chunk_days=workload.chunk_days,
                channel=CHANNEL,
            )
        else:
            study = TraceStudy.generate(
                inputs.regions, seed=seed, days=inputs.days,
                scale=inputs.scale, jobs=1,
            )
    parts = []
    for fig_id in FIGURE_IDS:
        with tracer.span(f"study.{fig_id}"):
            parts.append(render(fig_id, study))
    with tracer.span("core.findings"):
        findings = extract_findings(study)
    parts.append(json.dumps([f.summary_row() for f in findings]))
    return "\n".join(parts)


def _run_mitigate(workload: Workload, seed: int, jobs: int, tracer) -> str:
    from repro.runtime.executor import evaluate_cross_region, evaluate_policies

    inputs = workload.replay
    (region,) = inputs.regions
    common = dict(seed=seed, days=inputs.days, scale=inputs.scale,
                  engine="vector", jobs=jobs, channel=CHANNEL)
    with tracer.span("mitigation.run"):
        results = evaluate_policies(region, list(workload.policies), **common)
    with tracer.span("mitigation.run"):
        cross = evaluate_cross_region(
            region, remotes=("R3",), policy="best-region", **common
        )
    rows = [results[policy].summary() for policy in workload.policies]
    rows.append({**cross.metrics.summary(),
                 "remote_share": round(cross.remote_share, 6)})
    return json.dumps(rows, sort_keys=True)


# --- correctness ----------------------------------------------------------------


def digest(outputs: list[str]) -> str:
    """One hex digest over a run's outputs (figure text or summary rows)."""
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant of ``workload`` for the self-tests."""
    study = replace(workload.study, regions=("R2", "R3"), days=2, scale=0.05,
                    target=None, count=2)
    replay = replace(workload.replay, days=1, scale=0.05, target=None, count=1)
    return replace(workload, study=study, replay=replay, chunk_days=1)

"""Replay-engine benchmark: vector vs event CPU time, identical metrics.

Two committed properties:

* **policy-free** (``test_vector_engine_speedup``) — the vector engine
  runs the baseline on the empty decision schedule, every function
  through the one per-function walker (``replay_function_coupled``), and
  beats the event engine by >= 5x serial on the committed baseline
  workloads, bit-identically;
* **coupled** (``test_coupled_policy_speedup``) — the same vector driver
  replays the coupled tick-phase policies (timer pre-warming,
  async peak shaving, their combination, and histogram pre-warming)
  bit-identically and >= 3x faster serial over the committed
  coupled-policy workload. Every one decides in closed form
  (``TickPolicy.horizon_schedule``), so no tick machine runs; the walker's
  speculative cold blocks, chain jumps, galloping slot sweep and slot-end
  heap episodes cost per arrival they retire, and it skips the pre-warm
  ticks that idle pods already cover.

Each floor is timed as the minimum CPU time over alternating event/vector
reps: CPU time rides out the noise of shared cores that wall time does
not. Wall time is printed and recorded beside it.

Results land in ``benchmarks/results/evaluator*.txt`` (human tables) and
``benchmarks/results/BENCH_evaluator*.json`` (machine-readable trajectory
points: per-workload CPU and wall time, requests/s, speedups).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.analysis.report import format_table
from repro.mitigation import (
    AsyncPeakShaver,
    HistogramPrewarmPolicy,
    TimerPrewarmPolicy,
)
from repro.mitigation.evaluator import RegionEvaluator, build_workload
from repro.obs.telemetry import profiled

EVAL_SEED = 1
#: min-of-N timing over alternating event/vector reps.
REPS = 5
MIN_SPEEDUP = 5.0
#: Coupled policies replay every function their decisions touch under its
#: schedule slice on top of the schedule-free replays, so their committed
#: floor is lower.
COUPLED_REPS = 3
MIN_COUPLED_SPEEDUP = 3.0

_RESULTS_DIR = Path(__file__).parent / "results"

#: The coupled-policy configurations whose aggregate speedup is asserted.
_COUPLED_CONFIGS = {
    "timer-prewarm": lambda: dict(prewarm_policy=TimerPrewarmPolicy()),
    "peak-shaving": lambda: dict(
        peak_shaver=AsyncPeakShaver(max_delay_s=120.0)
    ),
    "prewarm+shaving": lambda: dict(
        prewarm_policy=TimerPrewarmPolicy(),
        peak_shaver=AsyncPeakShaver(max_delay_s=45.0),
    ),
    "histogram-prewarm": lambda: dict(
        prewarm_policy=HistogramPrewarmPolicy(
            threshold=0.35, min_observations=30
        )
    ),
}


@pytest.fixture(scope="module")
def coupled_workload():
    """A full-scale one-week Region-2 workload (~2.2M requests): the
    coupled-policy benchmark. Density matters — the vector engine's gain
    is per arrival, while its fixed costs (the closed-form schedules, the
    per-function walk of functions no decision touches) are per tick or per
    function."""
    return build_workload("R2", seed=42, days=7, scale=1.0)


def _min_times(make_evaluator, traces, name="baseline", reps=REPS):
    """Per engine, the minimum CPU and wall time of ``reps`` runs taken by
    turns (event, vector, event, ...), and the last run's metrics:
    ``{engine: (cpu_s, wall_s, metrics)}``."""
    best = {engine: [float("inf"), float("inf"), None]
            for engine in ("event", "vector")}
    for _ in range(reps):
        for engine, row in best.items():
            evaluator = make_evaluator(engine)
            w0, c0 = time.perf_counter(), time.process_time()
            row[2] = evaluator.run(traces, name=name)
            row[0] = min(row[0], time.process_time() - c0)
            row[1] = min(row[1], time.perf_counter() - w0)
    return {engine: tuple(row) for engine, row in best.items()}


def _vector_counters(make_evaluator, traces, name="baseline") -> dict:
    """Deterministic replay counters from one profiled vector run.

    Separate from the timed reps so the trajectory points stay
    instrumentation-free; the counters themselves are jobs/order-invariant.
    """
    with profiled() as tel:
        make_evaluator().run(traces, name=name)
        return {k: tel.counters[k] for k in sorted(tel.counters)}


def _identical(a, b) -> bool:
    return (
        a.summary() == b.summary()
        and a.cold_wait == b.cold_wait
        and a.cold_start_minutes == b.cold_start_minutes
        and a.pods_gauge == b.pods_gauge
        and a.pod_seconds == b.pod_seconds
        and a.prewarm_pod_seconds == b.prewarm_pod_seconds
        and a.total_delay_s == b.total_delay_s
    )


def test_vector_engine_speedup(r2_workload, r1_workload, emit):
    workloads = {"R2/7d": r2_workload, "R1/3d": r1_workload}
    rows = []
    results = {"policy": "baseline", "reps": REPS, "workloads": {}}
    total_event = total_vector = 0.0
    total_requests = 0
    for label, (profile, traces) in workloads.items():
        times = _min_times(
            lambda engine: RegionEvaluator(
                profile, seed=EVAL_SEED, engine=engine
            ),
            traces,
        )
        (cpu_event, wall_event, m_event) = times["event"]
        (cpu_vector, wall_vector, m_vector) = times["vector"]
        assert _identical(m_event, m_vector), (
            f"{label}: engines diverged — vector is only a fast path if it "
            f"is bit-identical"
        )
        total_event += cpu_event
        total_vector += cpu_vector
        total_requests += m_event.requests
        rows.append({
            "workload": label,
            "requests": m_event.requests,
            "cold_starts": m_event.cold_starts,
            "event_cpu_s": round(cpu_event, 3),
            "vector_cpu_s": round(cpu_vector, 3),
            "speedup": round(cpu_event / cpu_vector, 1),
            "event_wall_s": round(wall_event, 3),
            "vector_wall_s": round(wall_vector, 3),
            "vector_req_per_s": int(m_event.requests / cpu_vector),
        })
        results["workloads"][label] = {
            "requests": m_event.requests,
            "cold_starts": m_event.cold_starts,
            "event_cpu_s": cpu_event,
            "vector_cpu_s": cpu_vector,
            "event_wall_s": wall_event,
            "vector_wall_s": wall_vector,
            "speedup": cpu_event / cpu_vector,
            "counters": _vector_counters(
                lambda: RegionEvaluator(
                    profile, seed=EVAL_SEED, engine="vector"
                ),
                traces,
            ),
        }

    speedup = total_event / total_vector
    results["total"] = {
        "requests": total_requests,
        "event_cpu_s": total_event,
        "vector_cpu_s": total_vector,
        "speedup": speedup,
        "event_requests_per_s": total_requests / total_event,
        "vector_requests_per_s": total_requests / total_vector,
    }
    emit(
        "evaluator",
        format_table(rows)
        + f"\ntotal cpu: event {total_event:.2f}s vector {total_vector:.2f}s "
        f"speedup {speedup:.1f}x "
        f"({total_requests / total_vector / 1e6:.2f}M req/s vectorized, "
        f"{total_requests / total_event / 1e3:.0f}k req/s event)",
    )
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / "BENCH_evaluator.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x vector-over-event speedup on the "
        f"committed benchmark workloads, got {speedup:.2f}x"
    )


def test_coupled_policy_speedup(coupled_workload, emit):
    profile, traces = coupled_workload
    requests = sum(t.arrivals.size for t in traces)
    rows = []
    results = {
        "workload": {"region": "R2", "days": 7, "scale": 1.0, "seed": 42,
                     "requests": requests, "functions": len(traces)},
        "reps": COUPLED_REPS,
        "configs": {},
    }
    total_event = total_vector = 0.0
    for name, make_config in _COUPLED_CONFIGS.items():
        times = _min_times(
            lambda engine: RegionEvaluator(
                profile, seed=EVAL_SEED, engine=engine, **make_config()
            ),
            traces, name=name, reps=COUPLED_REPS,
        )
        (cpu_event, wall_event, m_event) = times["event"]
        (cpu_vector, wall_vector, m_vector) = times["vector"]
        assert _identical(m_event, m_vector), (
            f"{name}: engines diverged on the coupled workload"
        )
        total_event += cpu_event
        total_vector += cpu_vector
        rows.append({
            "config": name,
            "cold_starts": m_event.cold_starts,
            "prewarm_hits": m_event.prewarm_hits,
            "delayed": m_event.delayed_requests,
            "event_cpu_s": round(cpu_event, 3),
            "vector_cpu_s": round(cpu_vector, 3),
            "speedup": round(cpu_event / cpu_vector, 1),
            "event_wall_s": round(wall_event, 3),
            "vector_wall_s": round(wall_vector, 3),
        })
        results["configs"][name] = {
            "cold_starts": m_event.cold_starts,
            "prewarm_hits": m_event.prewarm_hits,
            "delayed_requests": m_event.delayed_requests,
            "event_cpu_s": cpu_event,
            "vector_cpu_s": cpu_vector,
            "event_wall_s": wall_event,
            "vector_wall_s": wall_vector,
            "speedup": cpu_event / cpu_vector,
            "counters": _vector_counters(
                lambda: RegionEvaluator(
                    profile, seed=EVAL_SEED, engine="vector", **make_config()
                ),
                traces, name=name,
            ),
        }
    speedup = total_event / total_vector
    results["total"] = {
        "event_cpu_s": total_event,
        "vector_cpu_s": total_vector,
        "speedup": speedup,
        "vector_requests_per_s": len(_COUPLED_CONFIGS) * requests / total_vector,
    }
    emit(
        "evaluator_coupled",
        format_table(rows)
        + f"\ncoupled total cpu: event {total_event:.2f}s "
        f"vector {total_vector:.2f}s speedup {speedup:.1f}x",
    )
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / "BENCH_evaluator_coupled.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    assert speedup >= MIN_COUPLED_SPEEDUP, (
        f"expected >= {MIN_COUPLED_SPEEDUP}x vector-over-event speedup on "
        f"the coupled-policy workload, got {speedup:.2f}x"
    )

"""M4 — cross-region cold-start routing (§5, "Cross-region workload
scheduling").

Claim reproduced: the congested region's cold starts dwarf the inter-region
network latency, so routing cold-bound work to a less congested region cuts
mean cold-start latency by a large factor.

Since PR 5 routing is a coupled tick-phase policy (per-region cold-start
EMA updated at tick boundaries) replayable by both engines, the bench also
runs the coupled-policy comparison — best-region routing under
``engine="vector"`` vs ``engine="event"`` — asserts bit-identical metrics,
asserts the vector engine is at least as fast in CPU time (min over
alternating reps), and emits ``BENCH_mitigation_crossregion.json``
trajectory points (CPU and wall time per engine, routing shares, latency
improvements) like ``bench_runtime_scaling``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.report import format_table
from repro.mitigation import CrossRegionEvaluator, RoutingPolicy
from repro.obs.profile import build_profile, dominant_cost_center, write_profile
from repro.obs.telemetry import profiled

REPS = 3
_RESULTS_DIR = Path(__file__).parent / "results"


def _min_times(traces, policy):
    """Per engine: ``(min CPU s, min wall s, metrics)`` over ``REPS``
    alternating event/vector runs. CPU time is the speed signal: on a
    shared host it is far steadier than wall time."""
    best = {engine: [float("inf"), float("inf"), None]
            for engine in ("event", "vector")}
    for _ in range(REPS):
        for engine, row in best.items():
            evaluator = CrossRegionEvaluator(
                home="R1", remotes=("R3",), seed=2, engine=engine
            )
            wall0, cpu0 = time.perf_counter(), time.process_time()
            row[2] = evaluator.run(traces, policy=policy)
            row[0] = min(row[0], time.process_time() - cpu0)
            row[1] = min(row[1], time.perf_counter() - wall0)
    return best["event"], best["vector"]


def test_cross_region_routing(benchmark, r1_workload, emit):
    _profile, traces = r1_workload
    requests = sum(t.arrivals.size for t in traces)

    home_eval = CrossRegionEvaluator(home="R1", remotes=("R3",), seed=2)
    home = home_eval.run(traces, policy=RoutingPolicy.HOME_ONLY)

    def run_routed():
        evaluator = CrossRegionEvaluator(home="R1", remotes=("R3",), seed=2)
        return evaluator, evaluator.run(traces, policy=RoutingPolicy.BEST_REGION)

    evaluator, routed = benchmark(run_routed)

    # Engine comparison on the coupled routing replay: bit-identical
    # metrics, CPU and wall time recorded as a trajectory point.
    results = {"workload": {"region": "R1", "requests": requests}, "reps": REPS,
               "routes": {}}
    route_telemetry = {}
    for policy in (RoutingPolicy.HOME_ONLY, RoutingPolicy.BEST_REGION):
        (cpu_event, wall_event, m_event), (cpu_vector, wall_vector, m_vector) = (
            _min_times(traces, policy)
        )
        assert m_event.summary() == m_vector.summary()
        assert m_event.cold_wait == m_vector.cold_wait
        assert m_event.cold_starts_by_region == m_vector.cold_starts_by_region
        assert m_event.total_delay_s == m_vector.total_delay_s
        # One profiled vector replay per route — outside the timed reps, so
        # the timed trajectory stays instrumentation-free.
        with profiled() as tel:
            CrossRegionEvaluator(
                home="R1", remotes=("R3",), seed=2, engine="vector"
            ).run(traces, policy=policy)
            route_telemetry[policy.value] = tel.snapshot()
        results["routes"][policy.value] = {
            "cold_starts": m_event.cold_starts,
            "mean_cold_s": m_event.mean_cold_wait_s(),
            "remote_share": m_event.remote_cold_share("R1"),
            "event_cpu_s": cpu_event,
            "vector_cpu_s": cpu_vector,
            "event_wall_s": wall_event,
            "vector_wall_s": wall_vector,
            "speedup": cpu_event / cpu_vector,
            "counters": {
                k: route_telemetry[policy.value].counters[k]
                for k in sorted(route_telemetry[policy.value].counters)
            },
        }
    results["mean_cold_improvement"] = (
        home.mean_cold_wait_s() / routed.mean_cold_wait_s()
    )

    rows = [home.summary(), routed.summary()]
    rows.append(
        {
            "policy": "remote cold-start share",
            "requests": f"{evaluator.remote_share(routed):.1%}",
        }
    )
    emit("mitigation_crossregion", format_table(rows))
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / "BENCH_mitigation_crossregion.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    # The committed profile: counters naming where the cross-region vector
    # path spends its work relative to the event engine (ROADMAP item).
    first, *rest = route_telemetry.values()
    merged = first.snapshot()
    for part in rest:
        merged.merge(part)
    doc = build_profile(merged, meta={
        "command": "bench:crossregion-vector",
        "workload": {"region": "R1", "remotes": ["R3"],
                     "requests": requests, "functions": len(traces)},
        "routes": sorted(route_telemetry),
    })
    c = doc["counters"]
    scalar = c.get("xregion/replay/scalar_arrivals", 0)
    jumped = c.get("xregion/replay/jumped_arrivals", 0)
    block = c.get("xregion/replay/block_arrivals", 0)
    interleaved = c.get("xregion/replay/interleaved_arrivals", 0)
    vectorized = jumped + block + interleaved
    replays = c.get("xregion/replay/calls", 0)
    dom = dominant_cost_center(doc)
    doc["findings"] = {
        "speedup_vs_event": {
            route: round(results["routes"][route]["speedup"], 3)
            for route in results["routes"]
        },
        "dominant_cost_center": None if dom is None else
            {"timer": dom[0], "wall_s": round(dom[1], 6)},
        "tick_steps": c.get("tick/steps", 0),
        "replay_calls": replays,
        "replays_per_function": round(replays / max(len(traces) * 2, 1), 3),
        "scalar_arrival_share": round(scalar / max(scalar + vectorized, 1), 4),
        "note": (
            "Why the cross-region vector path beats the event engine on "
            "both routes: almost every arrival is retired by a batched "
            "kernel - steady-stretch chain jumps, whole-block cold "
            "pricing, and the two-/three-pod lane walks together leave "
            "only scalar_arrival_share of arrivals to scalar Python - and "
            "each function replays exactly once per route "
            "(replays_per_function 1.0). Best-region routing merges the "
            "walkers' cold starts in event order and steps the router "
            "only at the tick_steps ticks a cold start falls in, where "
            "the event engine steps it at every tick of the horizon."
        ),
    }
    write_profile(doc, _RESULTS_DIR / "PROFILE_crossregion_vector.json")

    # Speed floor: the vector engine is at least as fast as the event
    # engine on both routes, in CPU time.
    for route, row in results["routes"].items():
        assert row["speedup"] >= 1.0, (
            f"vector engine slower than event on {route}: {row['speedup']:.2f}x"
        )
    # Mean cold wait (including the RTT penalty) improves substantially.
    assert routed.mean_cold_wait_s() < 0.6 * home.mean_cold_wait_s()
    assert routed.requests == home.requests
    # Routing shares are pure functions of the merged metrics now.
    assert evaluator.remote_share(routed) > 0.3
    assert routed.cold_starts_by_region["R3"] > 0

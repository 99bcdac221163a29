"""One repetition of a workload, in a fresh process.

Started by ``run.py`` as ``python3 perfbench/rep.py '<json request>'``. The
request names the workload, its trace seeds (``workloads.workload_seeds``),
the mode (``untraced``, ``traced`` or ``setup``, which stops once the
imports are done) and the monotonic time the parent spawned this process at, so
``setup_s`` covers interpreter start and the ``repro`` imports. Prints one
JSON object as its last line of output.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import tracing
import workloads

#: The traced mode measures at least this many overhead pairs.
MIN_PAIRS = 4
#: Seconds :func:`host_probe` takes on the reference box (2 vCPUs, see
#: NOTES.md) in a calm phase.
PROBE_REF_S = 0.1


def _usage() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def host_probe() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now.

    The reference box runs it in :data:`PROBE_REF_S` when calm; it takes up
    to half as long again when the host is busy.
    """
    import numpy as np

    t0 = time.perf_counter()
    values = np.random.default_rng(0).random(300_000)
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    for _ in range(6):
        np.sort(values)
        np.unique((values * 1000).astype(np.int64))
        np.cumsum(values)
    return time.perf_counter() - t0


def _untraced(workload, seeds, spawned_at: float) -> dict:
    """One timed run. The host is probed after set-up and after every step.

    Each step's wall time is divided by the mean slowdown of the probes
    either side of it; ``slowdown`` is the
    run's wall time over the sum of the scaled step times, and ``run.py``
    divides ``wall_s`` and ``cpu_s`` by it. ``setup_s`` is divided by the
    first probe's slowdown alone (``setup_slowdown``).
    """
    setup_s = time.monotonic() - spawned_at
    probes = [host_probe()]
    outputs, walls, cpu_s = [], [], 0.0
    for step in workloads.steps(seeds):
        cpu0 = _usage()
        t0 = time.perf_counter()
        outputs += workloads.run(workload, [step])
        walls.append(time.perf_counter() - t0)
        cpu1 = _usage()
        cpu_s += (cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1])
        probes.append(host_probe())
    scaled = sum(wall / ((before + after) / (2 * PROBE_REF_S))
                 for wall, before, after in zip(walls, probes, probes[1:]))
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "slowdown": sum(walls) / scaled,
        "setup_slowdown": probes[0] / PROBE_REF_S,
        "digest": workloads.digest(outputs),
        "wall_s": sum(walls),
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": parent_kb / 1024.0,
        # A serial run executes its shards in the parent itself.
        "worker_peak_rss_mb": (workers_kb if workload.jobs > 1 else parent_kb) / 1024.0,
    }


def _setup_only(spawned_at: float) -> dict:
    """``setup_s`` alone, for ``run.py``'s extra set-up samples."""
    setup_s = time.monotonic() - spawned_at
    return {"setup_slowdown": host_probe() / PROBE_REF_S, "setup_s": setup_s}


def _traced(workload, seeds, spawned_at: float, budget_s: float,
            spans_path: str | None) -> dict:
    """The layer breakdown, then the telemetry overhead.

    One serial traced pass gives the spans and the serial ``repro.obs``
    counters. Then come overhead pairs at the workload's own jobs: an
    untraced and a traced pass of one step (``workloads.steps``), back to
    back in this warm process. A cycle visits every step once. The traced
    pass goes first in every other pair, so a steady drift of the host's
    speed cancels. Pairs run in whole cycles until ``budget_s`` has passed,
    and at least :data:`MIN_PAIRS` of them. The traced passes also supply the
    ``runtime`` counters. Every pass's output is checked against the serial
    pass's output for the same step.
    """
    from repro import obs

    run_steps = workloads.steps(seeds)
    serial, serial_tel, serial_wall, outputs = tracing.traced_pass(
        workload, run_steps, jobs=1)
    tracing.check_tree(serial.spans)
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump({"workload": workload.name, "seeds": seeds,
                       "spans": serial.to_json()}, fh)
    expected = [workloads.digest([text]) for text in outputs]

    pooled_tel, pooled_wall = obs.Telemetry(), 0.0
    ratios: list[float] = []
    mismatches = 0
    cycle_s = 0.0
    while (len(ratios) < MIN_PAIRS
           or time.monotonic() - spawned_at + cycle_s < budget_s):
        t0 = time.monotonic()
        for i in range(len(run_steps)):
            walls = {}
            traced_first = len(ratios) % 2 == 1
            for traced in (traced_first, not traced_first):
                if traced:
                    _, tel, wall, out = tracing.traced_pass(workload, [run_steps[i]])
                    pooled_tel.merge(tel)
                    pooled_wall += wall
                else:
                    start = time.perf_counter()
                    out = workloads.run(workload, [run_steps[i]])
                    wall = time.perf_counter() - start
                walls[traced] = wall
                mismatches += workloads.digest(out) != expected[i]
            ratios.append(walls[True] / walls[False])
        cycle_s = time.monotonic() - t0

    runs = len(ratios) / len(run_steps)
    metrics = tracing.layer_metrics(workload, serial, serial_wall, serial_tel,
                                    (pooled_tel, pooled_wall, runs))
    metrics["obs.overhead_ratio"] = statistics.median(ratios)
    return {
        "digest": workloads.digest(outputs),
        "passes": 1 + 2 * len(ratios),
        "mismatches": mismatches,
        "overhead_ratios": ratios,
        "faults": tracing.fault_counts(serial_tel, pooled_tel),
        "metrics": metrics,
    }


def main() -> int:
    request = json.loads(sys.argv[1])
    workload = workloads.WORKLOADS[request["workload"]]
    workloads.preload()
    if request["mode"] == "traced":
        out = _traced(workload, request["seeds"], request["spawned_at"],
                      request["budget_s"], request.get("spans_path"))
    elif request["mode"] == "setup":
        out = _setup_only(request["spawned_at"])
    else:
        out = _untraced(workload, request["seeds"], request["spawned_at"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

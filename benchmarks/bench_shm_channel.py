"""Shared-memory vs pickle shard-result channel: parent-side cost.

Both channels run the identical (region, day-window) analysis plan with the
same worker count and must merge to the identical result — the comparison
isolates *how results travel*:

* **pickle** — each worker pickles its ``RegionAccumulator`` (every array
  serialised into one byte string), the bytes cross the pool pipe, and the
  parent unpickles; at the moment of deserialisation the parent holds the
  byte string *and* the rebuilt arrays.
* **shm** — each worker parks its arrays in one
  ``multiprocessing.shared_memory`` block and pickles only a tiny header;
  the parent rebuilds straight off the block, so no payload-sized pickle
  buffer ever exists on either side.

Each channel is measured in a fresh interpreter (so ``ru_maxrss`` is not
polluted by the other channel's high-water mark): transfer-inclusive wall
time, the parent's Python-heap peak (tracemalloc — where pickle's byte
buffers live), and the parent's peak RSS. The header-vs-payload pickle
sizes quantify what stopped crossing the pipe.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.analysis.report import format_table

BENCH_REGION = "R2"
BENCH_DAYS = 6
BENCH_CHUNK_DAYS = 1
BENCH_SCALE = 0.35
BENCH_SEED = 42
BENCH_JOBS = 2

_CHILD = """
import json, resource, sys, time, tracemalloc
from repro.runtime import ParallelExecutor, ShardPlan
from repro.runtime.executor import run_analysis_shard

channel = sys.argv[1]
plan = ShardPlan.for_generation(
    ({region!r},), seed={seed}, days={days}, chunk_days={chunk_days},
    scale={scale},
)
shards = list(plan)
tracemalloc.start()
started = time.perf_counter()
executor = ParallelExecutor(jobs={jobs}, channel=channel, shm_min_bytes=0)
merged = None
for acc in executor.imap(run_analysis_shard, shards):
    merged = acc if merged is None else merged.merge(acc)
wall = time.perf_counter() - started
_, peak = tracemalloc.get_traced_memory()
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "channel": channel, "shards": len(shards), "wall_s": wall,
    "parent_heap_peak_mb": peak / 1e6, "parent_rss_mb": rss_kb / 1024,
    "summary": merged.summary(),
}}))
""".format(region=BENCH_REGION, seed=BENCH_SEED, days=BENCH_DAYS,
           chunk_days=BENCH_CHUNK_DAYS, scale=BENCH_SCALE, jobs=BENCH_JOBS)


def _measure(channel: str) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, channel],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_shm_channel(emit):
    stats = {channel: _measure(channel) for channel in ("pickle", "shm")}

    # What stopped crossing the pipe: payload pickle vs shm handle pickle,
    # for the widest window of the same plan (the costliest shard result).
    from repro.runtime import ShardPlan, discard_shm, to_shm
    from repro.runtime.executor import run_analysis_shard

    plan = ShardPlan.for_generation(
        (BENCH_REGION,), seed=BENCH_SEED, days=BENCH_DAYS,
        chunk_days=BENCH_CHUNK_DAYS, scale=BENCH_SCALE,
    )
    accumulator = run_analysis_shard(plan.shards[-1])
    payload_bytes = len(pickle.dumps(accumulator))
    handle = to_shm(accumulator, min_bytes=0)
    handle_bytes = len(pickle.dumps(handle))
    array_bytes = handle.nbytes
    discard_shm(handle)

    # Transfer-only wall time: serialise + deserialise the same result
    # through each channel, excluding generation entirely.
    import time

    def _best_of(repeat, fn):
        return min(_timed(fn) for _ in range(repeat))

    def _timed(fn):
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    def _pickle_round_trip():
        pickle.loads(pickle.dumps(accumulator))

    def _shm_round_trip():
        from repro.runtime import from_shm

        from_shm(to_shm(accumulator, min_bytes=0))

    pickle_transfer_s = _best_of(3, _pickle_round_trip)
    shm_transfer_s = _best_of(3, _shm_round_trip)

    rows = [
        {
            "channel": name,
            "shards": channel_stats["shards"],
            "wall_s": round(channel_stats["wall_s"], 2),
            "parent_heap_peak_mb": round(channel_stats["parent_heap_peak_mb"], 1),
            "parent_rss_mb": round(channel_stats["parent_rss_mb"], 1),
        }
        for name, channel_stats in stats.items()
    ]
    emit(
        "shm_channel",
        format_table(rows)
        + f"\nper-shard transfer (widest window): pickle payload "
        f"{payload_bytes / 1e6:.1f} MB -> shm handle {handle_bytes / 1e3:.1f} KB "
        f"({array_bytes / 1e6:.1f} MB of arrays via shared memory)"
        + f"\ntransfer-only round trip: pickle {pickle_transfer_s * 1e3:.1f} ms, "
        f"shm {shm_transfer_s * 1e3:.1f} ms "
        f"({shm_transfer_s / pickle_transfer_s:.2f}x)"
        + f"\nparent heap peak: shm = "
        f"{stats['shm']['parent_heap_peak_mb'] / stats['pickle']['parent_heap_peak_mb']:.2f}x pickle"
        + f"\nparent peak RSS: shm = "
        f"{stats['shm']['parent_rss_mb'] / stats['pickle']['parent_rss_mb']:.2f}x pickle",
    )

    # The channel must be invisible in results.
    assert stats["shm"]["summary"] == stats["pickle"]["summary"]
    # The handle is orders of magnitude below the payload it replaces.
    assert handle_bytes < payload_bytes / 50
    # Parent-side peak drops: no payload-sized pickle buffer is ever built.
    assert (
        stats["shm"]["parent_heap_peak_mb"]
        < stats["pickle"]["parent_heap_peak_mb"]
    ), "shm channel should beat pickle's parent-side heap peak"
    # Transfer stays competitive (views, not copies, on the parent side);
    # loose bound — single-core schedulers jitter these timings.
    assert shm_transfer_s < 1.5 * pickle_transfer_s, (
        f"shm round trip {shm_transfer_s * 1e3:.1f} ms should stay close to "
        f"pickle's {pickle_transfer_s * 1e3:.1f} ms"
    )


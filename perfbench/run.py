"""End-to-end benchmark of the generate -> analyze -> mitigate pipeline.

    python3 perfbench/run.py --workload fleet-month --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout. It picks the workload's
trace seeds from ``--seed``, then repeats the workload in fresh processes
until ``--seconds`` have passed, so every repetition pays its own set-up and
owns its peak memory; set-up-only processes between them add ``setup_s``
samples. Each repetition's output digest is checked against the
committed reference for that seed (``reference.json``) or, for other seeds,
against the other repetitions. ``--trace 0`` reports the end-to-end medians.
``--trace 1`` instead runs one traced process: a serial pass that breaks the
workload into layers (``tracing.py``) and writes its spans to
``perfbench/out/``, then paired untraced/traced passes that measure the
telemetry overhead. The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: End-to-end metrics (name, unit), medians over the untraced repetitions
#: but for the peaks (:data:`PEAKS`). Times (unit ``s``) are in
#: reference-box seconds: each repetition's are divided by the host slowdown
#: its probes measured (``rep.host_probe``, see :func:`_divisor`).
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("worker_peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
#: Reported as the highest any repetition reached: which pool worker runs
#: which shards varies from one repetition to the next, and with it the
#: largest worker's RSS by up to a third on the same traces.
PEAKS = ("peak_rss_mb", "worker_peak_rss_mb")
#: Set-up-only processes spawned after each repetition: ``setup_s`` is the
#: median over them and the repetitions.
SETUP_SAMPLES = 2
#: Repetitions every run makes, however long they take, so that the digest
#: gate always has two to compare.
MIN_REPS = 2
#: No repetition starts once it could end after this many seconds.
HARD_LIMIT_S = 165.0
#: A repetition starts only if it should end within this share of the budget.
OVERRUN = 1.1


def machine_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cgroup_cpu_max(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def _cgroup_cpu_max() -> str:
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.is_file():
        return v2.read_text().strip()
    v1 = Path("/sys/fs/cgroup/cpu")
    try:
        quota = (v1 / "cpu.cfs_quota_us").read_text().strip()
        period = (v1 / "cpu.cfs_period_us").read_text().strip()
    except OSError:
        return "unavailable"
    return f"{'max' if quota == '-1' else quota} {period}"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(request: dict, timeout_s: float) -> dict | None:
    """Run one ``rep.py`` process; its JSON result, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(OUT / "tmp"))
    request = dict(request, spawned_at=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(request)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        stdout = ""
        print(f"repetition timed out after {timeout_s:.0f}s", file=sys.stderr)
    finally:
        # Reap anything the repetition left behind (pool workers included).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not stdout.strip():
        print(f"repetition failed (exit {proc.returncode})", file=sys.stderr)
        return None
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except json.JSONDecodeError:
        print("repetition printed no result", file=sys.stderr)
        return None


def judge(reps: list[dict | None], reference: str | None):
    """The digest gate: ``(expected digest, good repetitions, failures)``.

    A repetition fails if it raised (``None``) or if its digest differs
    from the committed reference, or, without one, from the digest most
    repetitions agree on.
    """
    digests = Counter(rep["digest"] for rep in reps if rep)
    expected = reference or (digests.most_common(1)[0][0] if digests else None)
    good = [rep for rep in reps if rep and rep["digest"] == expected]
    return expected, good, len(reps) - len(good)


def _divisor(rep: dict, name: str, unit: str) -> float:
    """The host slowdown a repetition's ``name`` is divided by."""
    if unit != "s":
        return 1.0
    return rep["setup_slowdown"] if name == "setup_s" else rep["slowdown"]


def untraced_run(request: dict, reference: str | None, args, started: float,
                 record: dict):
    """Fresh-process repetitions until ``--seconds`` have passed, each
    followed by :data:`SETUP_SAMPLES` set-up-only processes: the end-to-end
    medians, the processes attempted and those that failed."""
    reps: list[dict | None] = []
    setups: list[dict | None] = []
    longest = 0.0
    measuring = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and (
                time.monotonic() - measuring + longest > OVERRUN * args.seconds
                or elapsed + 1.5 * longest > HARD_LIMIT_S):
            break
        t0 = time.monotonic()
        reps.append(spawn(dict(request, mode="untraced"), HARD_LIMIT_S - elapsed))
        for _ in range(SETUP_SAMPLES):
            setups.append(spawn(dict(request, mode="setup"), 60.0))
        longest = max(longest, time.monotonic() - t0)

    attempted = len(reps) + len(setups)
    expected, good, failed = judge(reps, reference)
    failed += setups.count(None)
    setups = good + [rep for rep in setups if rep]
    print("setup samples (as measured): "
          + " ".join(f"{rep['setup_s']:.4f}" for rep in setups))
    for i, rep in enumerate(reps):
        shown = ("failed" if rep is None else
                 " ".join(f"{k}={rep[k]:.4f}" for k, _ in END_TO_END)
                 + f" slowdown={rep['slowdown']:.3f}"
                 + ("" if rep["digest"] == expected else " DIGEST MISMATCH"))
        print(f"rep {i} (as measured): {shown}")
    record.update(expected_digest=expected, reps=reps, setups=setups)
    metrics = {}
    if good:
        metrics = {name: {"value": (max if name in PEAKS else statistics.median)(
                              rep[name] / _divisor(rep, name, unit)
                              for rep in (setups if name == "setup_s" else good)),
                          "unit": unit}
                   for name, unit in END_TO_END}
    return metrics, attempted, failed


def traced_run(workload, request: dict, reference: str | None, args,
               started: float, record: dict):
    """One traced process (``rep.py`` traced mode): the per-layer metrics,
    the passes attempted and those whose output was wrong."""
    import tracing

    spans_path = OUT / f"spans-{workload.name}-{args.seed}.json"
    traced = spawn(dict(request, mode="traced", budget_s=args.seconds,
                        spans_path=str(spans_path)),
                   HARD_LIMIT_S - (time.monotonic() - started))
    record["traced"] = traced
    if traced is None:
        return {}, 1, 1
    failed = traced["mismatches"] + (reference is not None
                                     and traced["digest"] != reference)
    if failed:
        print(f"{failed} traced pass(es) differ from the reference output")
    layer = traced["metrics"]
    print("faults " + " ".join(f"{k}={v:.0f}" for k, v in traced["faults"].items()))
    print("overhead pairs " + " ".join(f"{r:.4f}" for r in traced["overhead_ratios"]))
    if layer["uncovered_s"] > 0.1 * layer["trace.wall_s"]:
        print(f"WARNING uncovered {layer['uncovered_s']:.3f}s exceeds a "
              f"tenth of traced wall {layer['trace.wall_s']:.3f}s")
    for name, value in layer.items():
        if value == 0:
            print(f"WARNING layer metric {name} reads 0")
    metrics = {name: {"value": layer[name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS}
    return metrics, traced["passes"], failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot import the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    fingerprint = machine_fingerprint()
    print("fingerprint", json.dumps(fingerprint, sort_keys=True))
    seeds = workloads.workload_seeds(workload, args.seed)
    reference = json.loads((HERE / "reference.json").read_text()).get(
        workload.name, {}).get(str(args.seed))
    print(f"workload {workload.name} seed {args.seed} -> trace seeds {seeds}"
          f" (reference digest {'committed' if reference else 'not committed'})")

    request = {"workload": workload.name, "seeds": seeds}
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "trace_seeds": seeds, "fingerprint": fingerprint}
    if args.trace:
        metrics, attempted, failed = traced_run(workload, request, reference,
                                                args, started, record)
    else:
        metrics, attempted, failed = untraced_run(request, reference, args,
                                                  started, record)
    print(f"failed_share {failed / attempted:.4f} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"  {name:<34} {value['value']:>16.6f} {value['unit']}")
    record["metrics"] = metrics
    (OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

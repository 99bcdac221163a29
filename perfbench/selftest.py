"""Self-tests of the benchmark at a tiny scale (a few seconds).

    python3 perfbench/selftest.py

Checks that metric names are well formed and agree with ``BENCHMARK.json``,
that every workload calls every stage, that a perturbed output trips the
digest gate, that the replay digest does not depend on the worker count,
and that traced spans form a tree that covers every layer.
"""

from __future__ import annotations

import json
import re
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_steps(name):
    """The tiny variant of workload ``name`` and its steps at seed 42."""
    workload = workloads.tiny(workloads.WORKLOADS[name])
    return workload, workloads.steps(workloads.workload_seeds(workload, 42))


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(end_to_end, list(run.END_TO_END))
        self.assertEqual(per_layer, list(tracing.LAYER_METRICS))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        for name, _ in end_to_end + per_layer:
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)

    def test_every_workload_runs_every_stage(self):
        for name, workload in workloads.WORKLOADS.items():
            seeds = {"study": [1] * workload.study.count,
                     "replay": [2] * workload.replay.count}
            kinds = {kind for kind, _ in workloads.steps(seeds)}
            self.assertEqual(kinds, {"study", "stream", "replay"}, name)
            self.assertGreater(workload.jobs, 1, name)


class DigestGate(unittest.TestCase):
    def test_perturbed_output_fails(self):
        workload, run_steps = tiny_steps("fleet-month")
        outputs = workloads.run(workload, run_steps[:1])
        reference = workloads.digest(outputs)
        perturbed = [outputs[0].replace("Figure 1", "Figure l", 1)]
        self.assertNotEqual(perturbed, outputs)
        reps = [{"digest": reference}, {"digest": workloads.digest(perturbed)}, None]
        expected, good, failed = run.judge(reps, reference)
        self.assertEqual((expected, len(good), failed), (reference, 1, 2))
        # Without a committed reference the majority digest is the yardstick.
        _, good, failed = run.judge([reps[1], reps[0], reps[0]], None)
        self.assertEqual((len(good), failed), (2, 1))

    def test_mitigate_digest_is_jobs_invariant(self):
        workload, run_steps = tiny_steps("region-week")
        replays = [step for step in run_steps if step[0] == "replay"]
        serial = workloads.digest(workloads.run(workload, replays, jobs=1))
        pooled = workloads.digest(workloads.run(workload, replays, jobs=2))
        self.assertEqual(serial, pooled)


class SpanTree(unittest.TestCase):
    def test_spans_cover_every_layer(self):
        workload, run_steps = tiny_steps("fleet-month")
        tracer, *_ = tracing.traced_pass(workload, run_steps, jobs=1)
        tracing.check_tree(tracer.spans)
        names = {span.name for span in tracer.spans}
        self.assertLessEqual({
            "study.generate", "workload.generate", "workload.population",
            "workload.traces", "cluster.lifecycle", "sim.latency",
            "accumulators.update", "accumulators.merge", "study.fig04",
            "core.findings", "mitigation.run", "evaluator.baseline",
            "evaluator.timer-prewarm", "evaluator.merge",
            "cross_region.best-region",
        }, names)
        own = tracing.self_times(tracer.spans)
        top = sum(s.end - s.start for s in tracer.spans if s.parent is None)
        self.assertAlmostEqual(sum(own.values()), top, places=6)
        self.assertTrue(all(value >= 0 for value in own.values()))

    def test_traced_mode_reports_every_metric_nonzero(self):
        import rep

        workload = workloads.tiny(workloads.WORKLOADS["fleet-month"])
        seeds = workloads.workload_seeds(workload, 42)
        out = rep._traced(workload, seeds, time.monotonic(), 0.0, None)
        self.assertEqual(out["mismatches"], 0)
        # Two cycles over the three steps reach the minimum of four pairs.
        self.assertEqual(out["passes"], 1 + 2 * 6)
        self.assertEqual(set(out["metrics"]),
                         {name for name, _ in tracing.LAYER_METRICS})
        # At this scale repair never re-replays and no arena block is
        # reused; at bench scale both are positive.
        tiny_zero = {"runtime.arena_reuse_ratio", "repair.rounds",
                     "repair.functions_rereplayed", "repair.fingerprint_hit_ratio"}
        self.assertEqual([n for n, v in out["metrics"].items()
                          if not v > 0 and n not in tiny_zero], [])

    def test_malformed_trees_are_rejected(self):
        ok = [tracing.Span(0, "a", None, 0.0, 2.0), tracing.Span(1, "b", 0, 0.5, 1.0)]
        tracing.check_tree(ok)
        escaping = [ok[0], tracing.Span(1, "b", 0, 1.5, 2.5)]
        orphan = [ok[0], tracing.Span(1, "b", 7, 0.5, 1.0)]
        for spans in (escaping, orphan):
            with self.assertRaises(ValueError):
                tracing.check_tree(spans)


if __name__ == "__main__":
    unittest.main()

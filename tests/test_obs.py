"""Telemetry subsystem tests.

Four properties anchor the observability layer:

* **zero overhead disabled** — replay results are bit-identical with and
  without telemetry, and the disabled-mode instrumentation touches the
  telemetry object O(functions + transitions) times, never per arrival
  (asserted to stay under 2% of replayed requests);
* **deterministic shard merge** — the ``counters`` section of a profile
  is identical for any ``--jobs`` and either result channel;
* **versioned profile documents** — build/validate/write round-trip,
  Chrome trace export, and the ``repro profile`` report;
* **event-engine dispatch** — outcome-fed coupled policies run on the
  event engine under ``engine="vector"`` silently and exactly, counted
  once per run.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.cli.main import main
from repro.cluster.lifecycle import reconstruct_function_pods
from repro.mitigation import RegionEvaluator, TimerPrewarmPolicy
from repro.mitigation.base import TickAction, TickPolicy
from repro.obs import telemetry as obs
from repro.obs.profile import (
    PROFILE_SCHEMA,
    build_profile,
    dominant_cost_center,
    render_report,
    validate_profile,
    write_chrome_trace,
    write_profile,
)
from repro.obs.telemetry import Telemetry, profiled
from repro.runtime import evaluate_policies
from repro.workload.catalog import OBS_A, ResourceConfig, Runtime, TIMER_A
from repro.workload.function import FunctionSpec
from repro.workload.generator import FunctionTrace
from repro.workload.regions import region_profile

#: Small, fast dataset arguments for the CLI profile tests.
_FAST = ["--regions", "R3", "--days", "2", "--scale", "0.15", "--seed", "5"]


def _trace(fid, arrivals, exec_s, concurrency=1, timer=False):
    arrivals = np.asarray(arrivals, dtype=np.float64)
    execs = np.full(arrivals.size, exec_s, dtype=np.float64)
    spec = FunctionSpec(
        function_id=fid, user_id=1, runtime=Runtime.PYTHON3,
        triggers=(TIMER_A,) if timer else (OBS_A,),
        config=ResourceConfig(300, 128), mean_exec_s=exec_s,
        cpu_millicores=100, memory_mb=64,
        arrival_kind="timer" if timer else "poisson",
        timer_period_s=120.0, daily_rate=100.0, concurrency=concurrency,
    )
    return FunctionTrace(
        spec=spec, arrivals=arrivals, exec_s=execs,
        lifecycle=reconstruct_function_pods(arrivals, execs, 60.0, concurrency),
    )


def _tiny_workload():
    profile = region_profile("R2")
    traces = [
        _trace(1, np.arange(60) * 31.0, 1.0),
        _trace(2, np.arange(0.0, 1800.0, 120.0), 0.4, timer=True),
        _trace(3, np.sort(np.concatenate([np.arange(25) * 70.0,
                                          600.0 + np.arange(30) * 2.0])), 2.0),
    ]
    return profile, traces


def _assert_identical(a, b, label=""):
    assert a.summary() == b.summary(), label
    assert a.cold_wait == b.cold_wait, label
    assert a.pod_seconds == b.pod_seconds, label
    assert a.total_delay_s == b.total_delay_s, label


# --- core telemetry ----------------------------------------------------------


class TestTelemetryCore:
    def test_disabled_singleton(self):
        tel = obs.get_telemetry()
        assert tel is obs.NULL
        assert tel.enabled is False
        tel.count("x")
        tel.vcount("y", 3)
        tel.gauge_max("g", 1.0)
        with tel.span("s") as handle:
            pass
        assert handle.elapsed >= 0.0  # NullSpan still measures for prints

    def test_enable_disable_lifecycle(self):
        tel = obs.enable(track="t")
        try:
            assert obs.get_telemetry() is tel
            tel.count("a", 2)
            assert tel.counters == {"a": 2}
        finally:
            obs.disable()
        assert obs.get_telemetry() is obs.NULL

    def test_merge_sections(self):
        a, b = Telemetry(track="a"), Telemetry(track="b")
        a.count("n", 1)
        b.count("n", 2)
        b.count("only_b", 5)
        a.vcount("v", 10)
        b.vcount("v", 1)
        a.gauge_max("g", 3.0)
        b.gauge_max("g", 7.0)
        a.time_add("t", 0.5)
        b.time_add("t", 0.25)
        with a.span("span_a"):
            pass
        a.merge(b)
        assert a.counters == {"n": 3, "only_b": 5}
        assert a.volatile == {"v": 11}
        assert a.gauges == {"g": 7.0}
        assert a.timers["t"] == pytest.approx(0.75)
        assert len(a.spans) == 1

    def test_merge_associative(self):
        parts = []
        for i in range(3):
            tel = Telemetry(track=f"p{i}")
            tel.count("n", i + 1)
            tel.count(f"k{i}")
            parts.append(tel)
        left = parts[0].snapshot().merge(parts[1]).merge(parts[2])
        right = parts[0].snapshot().merge(parts[1].snapshot().merge(parts[2]))
        assert left.counters == right.counters == {
            "n": 6, "k0": 1, "k1": 1, "k2": 1,
        }

    def test_count_many_skips_zero(self):
        tel = Telemetry()
        tel.count_many((("a", 0), ("b", 2)))
        assert tel.counters == {"b": 2}

    def test_nested_span_paths(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        assert [s[0] for s in tel.spans] == ["outer/inner", "outer"]
        assert "outer/inner" in tel.timers


# --- profile documents -------------------------------------------------------


class TestProfileDocument:
    def _doc(self):
        tel = Telemetry()
        tel.count("vector/functions", 3)
        tel.vcount("runtime/shards", 2)
        tel.gauge_max("mem/max_rss_kb[main]", 1000.0)
        with tel.span("phase"):
            pass
        return build_profile(tel, meta={"command": "test"})

    def test_build_and_validate_round_trip(self, tmp_path):
        doc = self._doc()
        assert doc["schema"] == PROFILE_SCHEMA
        path = write_profile(doc, tmp_path / "p.json")
        loaded = validate_profile(json.loads(path.read_text()))
        assert loaded["counters"] == {"vector/functions": 3}

    def test_extra_keys_allowed(self):
        doc = self._doc()
        doc["findings"] = {"note": "extra sections pass validation"}
        validate_profile(doc)

    def test_validate_rejects_wrong_schema(self):
        doc = self._doc()
        doc["schema"] = "repro-profile/999"
        with pytest.raises(ValueError, match="unsupported profile schema"):
            validate_profile(doc)

    def test_validate_rejects_missing_key(self):
        doc = self._doc()
        del doc["counters"]
        with pytest.raises(ValueError, match="missing required key"):
            validate_profile(doc)

    def test_validate_rejects_non_numeric(self):
        doc = self._doc()
        doc["counters"]["bad"] = "three"
        with pytest.raises(ValueError, match="must be numeric"):
            validate_profile(doc)

    def test_chrome_trace_export(self, tmp_path):
        path = write_chrome_trace(self._doc(), tmp_path / "t.trace.json")
        trace = json.loads(path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert spans and spans[0]["name"] == "phase"
        assert names[0]["args"]["name"] == "main"

    def test_render_report_mentions_counters(self):
        text = render_report(self._doc())
        assert "vector/functions" in text
        assert PROFILE_SCHEMA in text

    def test_render_report_tick_schedule_section(self):
        doc = self._doc()
        doc["counters"].update({
            "tick/horizon_ticks": 20_160, "tick/steps": 10_080,
        })
        text = render_report(doc)
        assert "tick schedule" in text
        assert "ticks decided in closed form          20,160" in text
        assert "ticks stepped                         10,080" in text
        assert "runs dispatched to event                   0" in text
        doc["counters"]["tick/event_dispatches"] = 2
        assert "runs dispatched to event                   2" in (
            render_report(doc)
        )

    def test_render_report_no_tick_schedule_section_without_counters(self):
        assert "tick schedule" not in render_report(self._doc())

    def test_dominant_cost_center_folds_shard_prefix(self):
        tel = Telemetry()
        tel.time_add("cli/mitigate", 10.0)
        tel.time_add("runtime/shard", 9.0)
        tel.time_add("runtime/shard/xregion/route/a", 3.0)
        tel.time_add("runtime/shard/xregion/route/a", 2.0)
        tel.time_add("tick/policy/X_s", 1.0)
        doc = build_profile(tel)
        name, secs = dominant_cost_center(doc)
        assert name == "xregion/route/a"
        assert secs == pytest.approx(5.0)


# --- disabled mode -----------------------------------------------------------


class _CountingDisabled:
    """A disabled-telemetry stand-in that counts every touch.

    Swapped in for the active telemetry to measure how often the
    instrumented hot paths consult the telemetry object at all — the
    disabled-mode cost the design bounds by transitions, not arrivals.
    """

    def __init__(self):
        self.touches = 0

    @property
    def enabled(self):
        self.touches += 1
        return False

    def _touch(self, *args, **kwargs):
        self.touches += 1

    count = count_many = vcount = gauge_max = time_add = _touch
    sample_memory = _touch

    def span(self, name):
        self.touches += 1
        return obs._NullSpan()


class TestDisabledMode:
    def test_results_identical_with_profiling(self):
        profile, traces = _tiny_workload()
        for engine in ("event", "vector"):
            plain = RegionEvaluator(
                profile, seed=3, engine=engine,
                prewarm_policy=TimerPrewarmPolicy(),
            ).run(traces)
            with profiled():
                profiled_run = RegionEvaluator(
                    profile, seed=3, engine=engine,
                    prewarm_policy=TimerPrewarmPolicy(),
                ).run(traces)
            _assert_identical(plain, profiled_run, engine)

    def test_disabled_touches_scale_with_transitions(self, r2_traces, monkeypatch):
        """Disabled instrumentation consults telemetry O(functions), never
        per arrival: touches stay under 2% of replayed requests on the
        committed evaluator benchmark workload shape."""
        profile, traces = r2_traces
        stub = _CountingDisabled()
        monkeypatch.setattr(obs, "_active", stub)
        metrics = RegionEvaluator(profile, seed=1, engine="vector").run(traces)
        assert stub.touches < 0.02 * metrics.requests, (
            f"{stub.touches} telemetry touches for {metrics.requests} "
            f"requests — disabled-mode instrumentation must not be "
            f"per-arrival"
        )


# --- shard-merge determinism -------------------------------------------------


class TestShardMergeDeterminism:
    def test_counters_invariant_across_jobs_and_channels(self):
        runs = {}
        for jobs, channel in ((1, "pickle"), (2, "pickle"), (2, "shm"),
                              (4, "shm")):
            with profiled() as tel:
                merged = evaluate_policies(
                    "R3", ["baseline", "timer-prewarm", "histogram-prewarm",
                           "peak-shaving"], seed=9, days=1,
                    scale=0.08, jobs=jobs, n_groups=4, channel=channel,
                    engine="vector",
                )
                runs[(jobs, channel)] = (
                    dict(tel.counters),
                    {name: m.summary() for name, m in merged.items()},
                )
        base_counters, base_metrics = runs[(1, "pickle")]
        assert base_counters, "profiled replay recorded no counters"
        assert base_counters.get("vector/coupled/replays", 0) > 0
        # Every coupled policy here decides in closed form; the count of
        # ticks so decided is as deterministic as the machine steps were.
        assert base_counters.get("tick/horizon_ticks", 0) > 0
        assert "tick/steps" not in base_counters
        for key, (counters, metrics) in runs.items():
            assert counters == base_counters, f"counters diverged for {key}"
            assert metrics == base_metrics, f"metrics diverged for {key}"


# --- event-engine dispatch ---------------------------------------------------


class _IdentityDirective:
    """A shave directive with no value equality (identity-compared)."""

    def delay_for(self, spec, now, congestion, n_delayed):
        return 0.0


class _NeverSettlingShaver(TickPolicy):
    """Reads the pod gauge and returns a fresh identity-compared directive
    every tick: a schedule no fixed-point search could ever settle."""

    needs = frozenset({"arrivals", "gauge"})

    def decide(self, tick, now):
        return TickAction(shave=_IdentityDirective())


class TestEventFallback:
    def test_dispatch_is_silent_counted_and_exact(self):
        """A gauge-fed policy runs on the event engine: no warning, no
        repair counters, one dispatch counted, the event engine's metrics,
        and the same again on a rerun of the same evaluator."""
        profile, traces = _tiny_workload()
        evaluator = RegionEvaluator(
            profile, seed=5, engine="vector",
            peak_shaver=_NeverSettlingShaver(),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with profiled() as tel:
                vector = evaluator.run(traces, name="oscillating")
                counters = dict(tel.counters)
        assert not any(k.startswith("repair/") for k in counters)
        assert counters["tick/event_dispatches"] == 1
        event = RegionEvaluator(
            profile, seed=5, engine="event",
            peak_shaver=_NeverSettlingShaver(),
        ).run(traces, name="oscillating")
        _assert_identical(vector, event, "dispatch")
        _assert_identical(
            evaluator.run(traces, name="oscillating"), vector, "rerun"
        )

    def test_counter_untouched_when_converging(self):
        profile, traces = _tiny_workload()
        with profiled() as tel:
            RegionEvaluator(
                profile, seed=5, engine="vector",
                prewarm_policy=TimerPrewarmPolicy(),
            ).run(traces)
            assert "tick/event_dispatches" not in tel.counters
            assert tel.counters["tick/horizon_ticks"] > 0


# --- CLI ---------------------------------------------------------------------


class TestProfileCli:
    def test_mitigate_profile_emits_valid_document(self, tmp_path, capsys):
        path = tmp_path / "prof.json"
        rc = main(["mitigate", *_FAST, "-p", "baseline", "--engine", "vector",
                   "--profile", str(path)])
        assert rc == 0
        doc = validate_profile(json.loads(path.read_text()))
        assert doc["meta"]["command"] == "mitigate"
        assert doc["counters"].get("vector/coupled/replays", 0) > 0
        assert any(name.startswith("cli/mitigate") for name in doc["timers"])
        trace = json.loads(path.with_suffix(".trace.json").read_text())
        assert trace["traceEvents"]
        # Telemetry is torn down after the command.
        assert obs.get_telemetry() is obs.NULL

    def test_profile_report_subcommand(self, tmp_path, capsys):
        path = tmp_path / "prof.json"
        assert main(["analyze", *_FAST, "--profile", str(path)]) in (0, 1)
        capsys.readouterr()
        assert main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "profile: analyze" in out
        assert PROFILE_SCHEMA in out

    def test_profile_report_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        with pytest.raises(SystemExit, match="unsupported profile schema"):
            main(["profile", str(bad)])
        with pytest.raises(SystemExit, match="no profile at"):
            main(["profile", str(tmp_path / "missing.json")])

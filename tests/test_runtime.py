"""Tests for the sharded parallel runtime (repro.runtime)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.mitigation.base import EvalMetrics
from repro.mitigation.evaluator import (
    RegionEvaluator,
    build_workload,
    build_workload_shard,
    population_groups,
)
from repro.runtime import (
    CHUNK_FORMAT_VERSION,
    ChunkDirectoryError,
    ChunkedBundleWriter,
    ParallelExecutor,
    ShardError,
    ShardPlan,
    StreamingSummary,
    evaluate_cross_region,
    evaluate_policies,
    iter_bundle_chunks,
    iter_saved_chunks,
    load_chunked_bundle,
    merge_bundles,
    merge_eval_metrics,
    partition_days,
    run_generation_shard,
    stream_generation,
)
from repro.sim.rng import RngFactory
from repro.workload.generator import generate_multi_region, generate_region


def _square(x: int) -> int:
    return x * x


class TestShardPlan:
    def test_partition_days_covers_horizon(self):
        assert partition_days(8, 3) == [(0, 3), (3, 3), (6, 2)]
        assert partition_days(5, None) == [(0, 5)]
        assert partition_days(5, 9) == [(0, 5)]

    def test_partition_rejects_bad_input(self):
        with pytest.raises(ValueError):
            partition_days(0, 1)
        with pytest.raises(ValueError):
            partition_days(5, -1)
        with pytest.raises(ValueError):
            partition_days(600, 1)  # id-space window limit

    def test_generation_plan_is_deterministic(self):
        a = ShardPlan.for_generation(("R1", "R2"), seed=3, days=4, chunk_days=2)
        b = ShardPlan.for_generation(("R1", "R2"), seed=3, days=4, chunk_days=2)
        assert a == b
        assert len(a) == 4
        assert len({spec.shard_seed for spec in a}) == len(a)
        # id offsets keep windows of one region disjoint
        offsets = [spec.id_offset for spec in a.by_region()["R1"]]
        assert offsets == sorted(set(offsets))

    def test_evaluation_plan_covers_all_groups(self):
        plan = ShardPlan.for_evaluation("R2", seed=0, days=2, n_groups=4)
        assert [spec.group for spec in plan] == [0, 1, 2, 3]
        assert len({spec.shard_seed for spec in plan}) == 4


class TestParallelExecutor:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_serial_and_pool_agree(self):
        items = list(range(10))
        serial = ParallelExecutor(jobs=1).run(_square, items)
        pooled = ParallelExecutor(jobs=3).run(_square, items)
        assert serial == pooled == [x * x for x in items]

    def test_empty_input(self):
        assert ParallelExecutor(jobs=2).run(_square, []) == []

    @pytest.mark.parametrize("jobs,n_items", [(8, 3), (3, 3), (3, 4), (2, 7)])
    def test_windowing_never_skips_or_doubles(self, jobs, n_items):
        # jobs >= len(items), jobs == len(items) - 1 (the window boundary),
        # and jobs < len(items) must all submit every index exactly once.
        items = list(range(n_items))
        assert ParallelExecutor(jobs=jobs).run(_square, items) == [
            x * x for x in items
        ]

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError, match="start method"):
            ParallelExecutor(jobs=2, start_method="teleport").run(
                _square, [1, 2, 3]
            )

    def test_spawn_smoke_with_module_level_entry_point(self):
        # Spawn re-imports the library in each worker: the shard entry
        # points must be importable by reference with no side effects.
        if "spawn" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("no spawn start method on this platform")
        plan = ShardPlan.for_generation(
            ("R3",), seed=5, days=2, chunk_days=1, scale=0.05
        )
        executor = ParallelExecutor(jobs=2, start_method="spawn")
        spawned = executor.run(run_generation_shard, list(plan))
        serial = ParallelExecutor(jobs=1).run(run_generation_shard, list(plan))
        assert [b.summary() for b in spawned] == [b.summary() for b in serial]

    def test_unpicklable_task_fails_clearly_under_spawn(self):
        if "spawn" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("no spawn start method on this platform")
        executor = ParallelExecutor(jobs=2, start_method="spawn", channel="shm")
        with pytest.raises(RuntimeError, match="module-level"):
            executor.run(lambda x: x, [1, 2])


class TestShardedGeneration:
    def test_unchunked_sharding_equals_serial(self):
        serial = generate_multi_region(("R3",), seed=5, days=2, scale=0.1)["R3"]
        sharded = generate_multi_region(("R3",), seed=5, days=2, scale=0.1, jobs=2)["R3"]
        assert np.array_equal(
            serial.requests["timestamp_ms"], sharded.requests["timestamp_ms"]
        )
        assert np.array_equal(serial.pods["cold_start_us"], sharded.pods["cold_start_us"])
        assert serial.summary() == sharded.summary()

    def test_chunked_generation_is_jobs_invariant(self):
        kwargs = dict(seed=7, days=4, scale=0.08, chunk_days=2)
        j1 = generate_multi_region(("R2",), jobs=1, **kwargs)["R2"]
        j4 = generate_multi_region(("R2",), jobs=4, **kwargs)["R2"]
        assert np.array_equal(j1.requests["timestamp_ms"], j4.requests["timestamp_ms"])
        assert np.array_equal(j1.pods["pod_id"], j4.pods["pod_id"])
        assert j1.summary() == j4.summary()

    def test_chunked_bundle_is_well_formed(self):
        bundle = generate_multi_region(
            ("R2",), seed=7, days=4, scale=0.08, chunk_days=2
        )["R2"]
        assert (np.diff(bundle.requests["timestamp_ms"]) >= 0).all()
        assert (np.diff(bundle.pods["timestamp_ms"]) >= 0).all()
        assert np.unique(bundle.pods["pod_id"]).size == len(bundle.pods)
        assert np.unique(bundle.requests["request_id"]).size == len(bundle.requests)
        assert np.unique(bundle.functions["function"]).size == len(bundle.functions)
        assert bundle.meta["days"] == 4
        assert bundle.meta["merged_shards"] == 2

    def test_chunked_volume_matches_unchunked(self):
        unchunked = generate_region("R2", seed=7, days=4, scale=0.08)
        chunked = generate_multi_region(
            ("R2",), seed=7, days=4, scale=0.08, chunk_days=2
        )["R2"]
        # Windows redraw arrivals independently: volumes agree statistically,
        # not exactly (see repro.runtime.merge for the per-metric table).
        assert len(chunked.requests) == pytest.approx(len(unchunked.requests), rel=0.15)
        assert len(chunked.pods) == pytest.approx(len(unchunked.pods), rel=0.15)

    def test_window_shard_respects_absolute_days(self):
        plan = ShardPlan.for_generation(("R3",), seed=5, days=4, chunk_days=2)
        late = run_generation_shard(plan.shards[1])  # days [2, 4)
        ts = late.requests.timestamps_s
        assert ts.size > 0
        assert ts.min() >= 2 * 86_400.0
        assert ts.max() < 4 * 86_400.0
        assert late.meta["start_day"] == 2

    def test_duplicate_region_names_deduped(self):
        single = generate_multi_region(("R3",), seed=5, days=1, scale=0.1, jobs=2)
        doubled = generate_multi_region(("R3", "R3"), seed=5, days=1, scale=0.1, jobs=2)
        assert doubled["R3"].summary() == single["R3"].summary()

    def test_timer_windows_fire_exactly_once_per_grid_point(self):
        from repro.workload.arrivals import CronTimerProcess

        process = CronTimerProcess(period_s=90.0, phase_s=10.0, jitter_s=5.0)
        horizon = 2 * 86_400.0
        rng = np.random.default_rng(0)
        windows = np.concatenate([
            process.generate_window(d * 86_400.0, (d + 1) * 86_400.0, rng)
            for d in range(2)
        ])
        # every grid point in [0, horizon) owned by exactly one window
        expected = np.arange(10.0, horizon, 90.0)
        assert windows.size == expected.size
        assert np.allclose(np.sort(windows) - expected, 2.5, atol=2.5)

    def test_stream_generation_yields_plan_order(self):
        plan = ShardPlan.for_generation(("R3",), seed=5, days=2, chunk_days=1, scale=0.1)
        specs_seen = []
        for spec, bundle in stream_generation(plan, jobs=2):
            specs_seen.append(spec.index)
            assert bundle.region == "R3"
        assert specs_seen == [0, 1]


class TestShardedEvaluation:
    def test_group_shards_partition_the_workload(self):
        _, full = build_workload("R3", seed=5, days=1, scale=0.1)
        groups = population_groups("R3", seed=5, days=1, scale=0.1, n_groups=3)
        parts = [
            build_workload_shard(
                "R3", seed=5, days=1, scale=0.1, functions=groups[g]
            )[1]
            for g in range(3)
        ]
        full_ids = sorted(t.spec.function_id for t in full)
        shard_ids = sorted(t.spec.function_id for part in parts for t in part)
        assert shard_ids == full_ids
        by_id = {t.spec.function_id: t for part in parts for t in part}
        for trace in full:
            np.testing.assert_array_equal(
                trace.arrivals, by_id[trace.spec.function_id].arrivals
            )

    def test_presampled_groups_build_identical_shards(self):
        """The groups of a population sampled once are its index strides,
        and each group's shard builds exactly the unsharded traces of its
        functions."""
        groups = population_groups("R3", seed=5, days=1, scale=0.1, n_groups=3)
        (whole,) = population_groups("R3", seed=5, days=1, scale=0.1)
        assert [list(g) for g in groups] == [list(whole[g::3]) for g in range(3)]
        _, full = build_workload("R3", seed=5, days=1, scale=0.1)
        for g in range(3):
            _, handed = build_workload_shard(
                "R3", seed=5, days=1, scale=0.1, functions=groups[g]
            )
            expected = [t for t in full if t.spec in groups[g]]
            assert [t.spec for t in handed] == [t.spec for t in expected]
            for a, b in zip(handed, expected):
                assert a.arrivals.tobytes() == b.arrivals.tobytes()
                assert a.exec_s.tobytes() == b.exec_s.tobytes()

    def test_evaluation_is_jobs_invariant(self):
        kwargs = dict(seed=5, days=1, scale=0.1, n_groups=4)
        m1 = evaluate_policies("R3", ("baseline",), jobs=1, **kwargs)
        m2 = evaluate_policies("R3", ("baseline",), jobs=2, **kwargs)
        assert m1["baseline"].summary() == m2["baseline"].summary()

    def test_repeated_policy_merges_once(self):
        kwargs = dict(seed=5, days=1, scale=0.1, n_groups=3)
        once = evaluate_policies("R3", ("baseline",), **kwargs)
        twice = evaluate_policies("R3", ("baseline", "baseline"), **kwargs)
        assert twice == once

    def test_sharded_counts_equal_unsharded(self):
        merged = evaluate_policies(
            "R3", ("baseline",), seed=5, days=1, scale=0.1, n_groups=4
        )["baseline"]
        profile, traces = build_workload("R3", seed=5, days=1, scale=0.1)
        unsharded = RegionEvaluator(profile, seed=1).run(traces, name="baseline")
        assert merged.requests == unsharded.requests
        # Cold-start counts match in practice but not provably exactly: a
        # shard-local cold-duration draw can flip a queue-behind-initialising
        # decision (see repro.runtime.merge's guarantee table).
        assert merged.cold_starts == pytest.approx(unsharded.cold_starts, rel=0.005)
        assert merged.warm_hits == pytest.approx(unsharded.warm_hits, rel=0.005)

    def test_single_group_reproduces_unsharded_exactly(self):
        merged = evaluate_policies(
            "R3", ("baseline",), seed=5, days=1, scale=0.1, n_groups=1, eval_seed=1
        )["baseline"]
        profile, traces = build_workload("R3", seed=5, days=1, scale=0.1)
        unsharded = RegionEvaluator(profile, seed=1).run(traces, name="baseline")
        assert merged.summary() == unsharded.summary()
        assert merged.cold_wait == unsharded.cold_wait


def _metrics(seed: int) -> EvalMetrics:
    rng = np.random.default_rng(seed)
    m = EvalMetrics(name="m")
    m.requests = int(rng.integers(10, 100))
    n_cold = int(rng.integers(1, 10))
    m.warm_hits = m.requests - n_cold
    for wait, at in zip(rng.random(n_cold), rng.random(n_cold) * 3600):
        m.record_cold(float(wait), float(at))
    m.pod_seconds = float(rng.random() * 1000)
    for alive in rng.integers(0, 5, size=int(rng.integers(3, 8))):
        m.record_tick(int(alive))
    return m


class TestReducers:
    def test_merge_eval_metrics_is_associative(self):
        a, b, c = _metrics(1), _metrics(2), _metrics(3)
        left = merge_eval_metrics([merge_eval_metrics([a, b]), c])
        right = merge_eval_metrics([a, merge_eval_metrics([b, c])])
        assert left.summary() == right.summary()
        assert left.pods_gauge == right.pods_gauge
        assert left.cold_wait == right.cold_wait

    def test_merge_eval_metrics_sums_histograms_and_gauges(self):
        a, b = _metrics(1), _metrics(2)
        a_colds, b_colds = a.cold_starts, b.cold_starts
        a_wait_n, b_wait_n = a.cold_wait.n, b.cold_wait.n
        a_series, b_series = a.pods_gauge.to_list(), b.pods_gauge.to_list()
        merged = merge_eval_metrics([a, b])
        assert merged.requests == a.requests + b.requests
        assert merged.cold_starts == a_colds + b_colds
        assert merged.cold_wait.n == a_wait_n + b_wait_n
        expected_peak = max(
            x + y
            for x, y in zip(
                a_series + [0] * max(0, len(b_series) - len(a_series)),
                b_series + [0] * max(0, len(a_series) - len(b_series)),
            )
        )
        assert merged.peak_pods == expected_peak

    def test_mean_cold_wait_exact_and_p95_within_one_bin(self):
        rng = np.random.default_rng(3)
        waits = rng.lognormal(0.5, 1.0, size=500)
        m = EvalMetrics()
        for w in waits:
            m.record_cold(float(w), 0.0)
        assert m.mean_cold_wait_s() == pytest.approx(waits.sum() / waits.size)
        exact_p95 = float(np.percentile(waits, 95))
        # documented sketch tolerance: ~one log bin (512 bins over 8 decades)
        assert m.p95_cold_wait_s() == pytest.approx(exact_p95, rel=0.08)

    def test_merge_bundles_rejects_mixed_regions(self):
        bundles = generate_multi_region(("R3", "R4"), seed=5, days=1, scale=0.1)
        with pytest.raises(ValueError):
            merge_bundles([bundles["R3"], bundles["R4"]])

    def test_derive_seed_is_stable_and_distinct(self):
        rngs = RngFactory(9)
        assert rngs.derive_seed("shard/R1/d0+2") == RngFactory(9).derive_seed("shard/R1/d0+2")
        assert rngs.derive_seed("shard/R1/d0+2") != rngs.derive_seed("shard/R1/d2+2")
        assert rngs.derive_seed("a") != RngFactory(10).derive_seed("a")


class TestStreaming:
    @pytest.fixture(scope="class")
    def bundle(self):
        return generate_region("R3", seed=5, days=2, scale=0.1)

    def test_iter_bundle_chunks_partitions_time(self, bundle):
        chunks = list(iter_bundle_chunks(bundle, chunk_s=6 * 3600.0))
        assert sum(len(c.requests) for c in chunks) == len(bundle.requests)
        assert sum(len(c.pods) for c in chunks) == len(bundle.pods)
        for chunk in chunks:
            ts = chunk.requests.timestamps_s
            if ts.size:
                assert ts.min() >= chunk.start_s
                assert ts.max() < chunk.end_s

    def test_streaming_summary_matches_bundle(self, bundle):
        summary = StreamingSummary()
        for chunk in iter_bundle_chunks(bundle, chunk_s=6 * 3600.0):
            summary.update(requests=chunk.requests, pods=chunk.pods)
        expected = bundle.summary()
        assert summary.result() == expected

    def test_streaming_summary_merge_associative(self, bundle):
        chunks = list(iter_bundle_chunks(bundle, chunk_s=6 * 3600.0))
        parts = [
            StreamingSummary().update(requests=c.requests, pods=c.pods) for c in chunks
        ]
        left = parts[0]
        for part in parts[1:]:
            left = left.merge(part)
        right = parts[-1]
        for part in reversed(parts[:-1]):
            right = part.merge(right)
        assert left.result() == right.result()

    def test_chunked_writer_round_trip(self, bundle, tmp_path):
        writer = ChunkedBundleWriter(tmp_path / "r3", region="R3")
        original = list(iter_bundle_chunks(bundle, chunk_s=12 * 3600.0))
        for chunk in original:
            writer.append_chunk(chunk)
        writer.close(meta={"seed": 5}, functions=bundle.functions)

        saved = list(iter_saved_chunks(tmp_path / "r3"))
        assert sum(len(c.requests) for c in saved) == len(bundle.requests)
        # nominal window bounds survive the spill
        assert [(c.start_s, c.end_s) for c in saved] == [
            (c.start_s, c.end_s) for c in original
        ]

        loaded = load_chunked_bundle(tmp_path / "r3")
        assert np.array_equal(
            loaded.requests["timestamp_ms"],
            bundle.requests.sort_by("timestamp_ms")["timestamp_ms"],
        )
        assert len(loaded.pods) == len(bundle.pods)
        assert len(loaded.functions) == len(bundle.functions)
        assert loaded.meta == {"seed": 5}

    def test_chunked_writer_via_bundles_collects_functions(self, bundle, tmp_path):
        writer = ChunkedBundleWriter(tmp_path / "b", region="R3")
        writer.append_bundle(bundle)
        writer.close()
        loaded = load_chunked_bundle(tmp_path / "b")
        assert len(loaded.functions) == len(bundle.functions)

    def test_writer_rejects_foreign_region(self, bundle, tmp_path):
        writer = ChunkedBundleWriter(tmp_path / "x", region="R1")
        with pytest.raises(ValueError):
            writer.append_bundle(bundle)


class TestChunkFormatVersioning:
    @pytest.fixture(scope="class")
    def bundle(self):
        return generate_region("R3", seed=5, days=1, scale=0.1)

    @pytest.fixture()
    def chunk_dir(self, bundle, tmp_path):
        writer = ChunkedBundleWriter(tmp_path / "r3", region="R3")
        writer.append_bundle(bundle)
        writer.close(meta={"seed": 5})
        return tmp_path / "r3"

    def test_manifest_carries_version(self, chunk_dir):
        manifest = json.loads((chunk_dir / "manifest.json").read_text())
        assert manifest["version"] == CHUNK_FORMAT_VERSION

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ChunkDirectoryError, match="no manifest.json"):
            list(iter_saved_chunks(tmp_path / "empty"))

    def test_missing_version_is_a_clear_error(self, chunk_dir):
        manifest = json.loads((chunk_dir / "manifest.json").read_text())
        del manifest["version"]
        (chunk_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ChunkDirectoryError, match="no 'version'"):
            list(iter_saved_chunks(chunk_dir))
        with pytest.raises(ChunkDirectoryError, match="no 'version'"):
            load_chunked_bundle(chunk_dir)

    def test_unknown_version_is_a_clear_error(self, chunk_dir):
        manifest = json.loads((chunk_dir / "manifest.json").read_text())
        manifest["version"] = 999
        (chunk_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ChunkDirectoryError, match="version 999"):
            load_chunked_bundle(chunk_dir)

    def test_truncated_part_is_a_clear_error(self, chunk_dir):
        part = chunk_dir / "part-00000.npz"
        part.write_bytes(part.read_bytes()[: part.stat().st_size // 2])
        with pytest.raises(ChunkDirectoryError, match="part-00000.npz"):
            list(iter_saved_chunks(chunk_dir))

    def test_missing_part_is_a_clear_error(self, chunk_dir):
        (chunk_dir / "part-00000.npz").unlink()
        with pytest.raises(ChunkDirectoryError, match="missing on"):
            list(iter_saved_chunks(chunk_dir))

    def test_corrupt_manifest_json_is_a_clear_error(self, chunk_dir):
        (chunk_dir / "manifest.json").write_text("{not json")
        with pytest.raises(ChunkDirectoryError, match="not valid JSON"):
            list(iter_saved_chunks(chunk_dir))


class TestShardedCrossRegion:
    def test_jobs_invariance_is_bit_identical(self):
        kwargs = dict(
            remotes=("R3",), policy="best-region", seed=5, days=1, scale=0.1,
            n_groups=4,
        )
        results = {
            jobs: evaluate_cross_region("R1", jobs=jobs, **kwargs)
            for jobs in (1, 2, 4)
        }
        base = results[1]
        for jobs in (2, 4):
            assert results[jobs].metrics == base.metrics, f"jobs={jobs} diverged"
            assert results[jobs].remote_share == base.remote_share

    def test_single_group_matches_unsharded_evaluator(self):
        from repro.mitigation.cross_region import CrossRegionEvaluator, RoutingPolicy
        from repro.mitigation.evaluator import build_workload

        merged = evaluate_cross_region(
            "R1", remotes=("R3",), policy="best-region", seed=5, days=1,
            scale=0.1, n_groups=1, eval_seed=1,
        )
        _, traces = build_workload("R1", seed=5, days=1, scale=0.1)
        evaluator = CrossRegionEvaluator(home="R1", remotes=("R3",), seed=1)
        unsharded = evaluator.run(traces, policy=RoutingPolicy.BEST_REGION)
        assert merged.metrics.summary() == unsharded.summary()
        assert merged.remote_share == evaluator.remote_share(unsharded)

    def test_group_shards_partition_requests(self):
        merged = evaluate_cross_region(
            "R1", remotes=("R3",), policy="home-only", seed=5, days=1,
            scale=0.1, n_groups=3,
        )
        from repro.mitigation.evaluator import build_workload

        _, traces = build_workload("R1", seed=5, days=1, scale=0.1)
        assert merged.metrics.requests == sum(t.arrivals.size for t in traces)
        assert merged.remote_share == 0.0


class TestReplayShardErrors:
    """A failed §5 replay names its shard and the replay that failed; at
    jobs=1 the shard runs in the parent and its error surfaces as is."""

    KW = dict(seed=5, days=1, scale=0.1, n_groups=2, jobs=1)

    @staticmethod
    def _first_shard(region: str) -> str:
        plan = ShardPlan.for_evaluation(region, seed=5, days=1, scale=0.1, n_groups=2)
        return plan.shards[0].describe()

    def test_unknown_remote_names_shard_and_route(self):
        with pytest.raises(ShardError) as err:
            evaluate_cross_region("R1", remotes=("R9",), **self.KW)
        assert err.value.shard == self._first_shard("R1")
        assert self._first_shard("R1") in str(err.value)
        assert "'xregion:best-region'" in str(err.value)
        assert "R9" in str(err.value)

    def test_unknown_policy_names_shard_and_policy(self):
        with pytest.raises(ShardError) as err:
            evaluate_policies("R3", ("baseline", "no-such-policy"), **self.KW)
        assert err.value.shard == self._first_shard("R3")
        assert self._first_shard("R3") in str(err.value)
        assert "'no-such-policy'" in str(err.value)

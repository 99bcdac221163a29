"""Shared-memory shard result channel: codec, executor, and CLI surface.

The channel must be invisible in results — ``channel="shm"`` merges
bit-identically to ``channel="pickle"`` and to a serial run — while never
pickling payload arrays and never leaking shared-memory blocks.
"""

from __future__ import annotations

import pickle
from multiprocessing import get_all_start_methods

import numpy as np
import pytest

from repro.analysis.accumulators import LogHistogram, RegionAccumulator
from repro.mitigation.base import EvalMetrics
from repro.obs.telemetry import Telemetry, TelemetryEnvelope
from repro.runtime import (
    ParallelExecutor,
    ShardPlan,
    ShmResult,
    discard_shm,
    evaluate_cross_region,
    evaluate_policies,
    from_shm,
    shm_available,
    to_shm,
)
from repro.runtime.executor import run_generation_shard
from repro.workload.generator import generate_region

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no shared-memory support on this platform"
)


def _metrics(seed: int) -> EvalMetrics:
    rng = np.random.default_rng(seed)
    m = EvalMetrics(name="m")
    m.requests = int(rng.integers(50, 200))
    for wait, at in zip(rng.lognormal(0, 1.5, 40), rng.random(40) * 3600):
        m.record_cold(float(wait), float(at))
    m.warm_hits = m.requests - m.cold_starts
    m.pod_seconds = float(rng.random() * 1000)
    for alive in rng.integers(0, 5, size=12):
        m.record_tick(int(alive))
    return m


class _Unregistered:
    """A result type with no channel-specific code."""

    def __init__(self, values: np.ndarray):
        self.values = values


def _envelope() -> TelemetryEnvelope:
    tel = Telemetry(track="w")
    tel.count("c", 4)
    tel.vcount("v", 2)
    with tel.span("s"):
        pass
    return TelemetryEnvelope({"values": np.arange(4096.0)}, tel)


#: One builder per result type the executor returns.
_RESULTS = {
    "TraceBundle": lambda: generate_region("R3", seed=5, days=1, scale=0.05),
    "RegionAccumulator": lambda: RegionAccumulator.from_bundle(
        generate_region("R3", seed=5, days=1, scale=0.05)
    ),
    "dict-of-EvalMetrics": lambda: {"baseline": _metrics(1),
                                    "peak-shaving": _metrics(2)},
    "TelemetryEnvelope": _envelope,
}


def _block_gone(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        block = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    block.close()
    return False


class TestCodecRoundTrip:
    @pytest.mark.parametrize("kind", sorted(_RESULTS))
    def test_rebuilds_the_pickle_channels_object(self, kind):
        result = _RESULTS[kind]()
        handle = to_shm(result, min_bytes=0)
        assert isinstance(handle, ShmResult)
        back = from_shm(handle)
        assert pickle.dumps(back) == pickle.dumps(pickle.loads(pickle.dumps(result)))

    def test_unregistered_type_ships_its_array_through_the_block(self):
        result = _Unregistered(np.arange(1000, dtype=np.int64))
        handle = to_shm(result, min_bytes=0)
        assert isinstance(handle, ShmResult)
        assert handle.buffers == ((0, result.values.nbytes),)
        assert len(handle.header) < result.values.nbytes
        back = from_shm(handle)
        assert type(back) is _Unregistered
        assert np.array_equal(back.values, result.values)
        assert back.values.flags.writeable

    def test_eval_metrics_round_trip_exact(self):
        metrics = _metrics(1)
        handle = to_shm(metrics, min_bytes=0)
        assert isinstance(handle, ShmResult)
        back = from_shm(handle)
        assert back == metrics  # dataclass eq covers every accumulator
        assert back.summary() == metrics.summary()

    def test_dict_of_metrics_round_trip(self):
        payload = {"baseline": _metrics(1), "peak-shaving": _metrics(2)}
        back = from_shm(to_shm(payload, min_bytes=0))
        assert back == payload

    def test_widened_histogram_round_trip_merges_exactly(self):
        hist = LogHistogram()
        hist.add(np.array([0.5, 3.0, 2e5]))  # widened past the default hi
        back = from_shm(to_shm(hist, min_bytes=0))
        assert back == hist
        # the reconstructed grid must stay merge-compatible with a fresh one
        fresh = LogHistogram().add(np.array([1.0]))
        fresh.merge(back)
        assert fresh.n == hist.n + 1

    def test_region_accumulator_and_bundle_round_trip(self):
        bundle = generate_region("R3", seed=5, days=1, scale=0.05)
        acc = RegionAccumulator.from_bundle(bundle)
        back = from_shm(to_shm(acc, min_bytes=0))
        assert back.summary() == acc.summary()
        assert back.category_hists == acc.category_hists
        assert back.minute_requests == acc.minute_requests
        assert back.meta == acc.meta
        bundle_back = from_shm(to_shm(bundle, min_bytes=0))
        assert np.array_equal(
            bundle_back.requests["timestamp_ms"], bundle.requests["timestamp_ms"]
        )
        assert np.array_equal(bundle_back.pods["pod_id"], bundle.pods["pod_id"])
        assert len(bundle_back.functions) == len(bundle.functions)
        assert bundle_back.meta == bundle.meta

    def test_block_is_freed_after_reconstruction(self):
        handle = to_shm(_metrics(1), min_bytes=0)
        name = handle.shm_name
        from_shm(handle)
        assert _block_gone(name)

    def test_discard_frees_unconsumed_block(self):
        handle = to_shm(_metrics(1), min_bytes=0)
        discard_shm(handle)
        assert _block_gone(handle.shm_name)

    def test_small_results_fall_back_to_pickle(self):
        metrics = _metrics(1)
        assert to_shm(metrics, min_bytes=1 << 30) is metrics

    def test_results_without_arrays_fall_back_to_pickle(self):
        plain = {"name": "m", "counts": [1, 2, 3], "total": 6.0}
        assert to_shm(plain, min_bytes=0) is plain

    def test_from_shm_passes_plain_results_through(self):
        metrics = _metrics(1)
        assert from_shm(metrics) is metrics


class TestExecutorChannel:
    def test_rejects_unknown_channel(self):
        with pytest.raises(ValueError, match="channel"):
            ParallelExecutor(jobs=2, channel="carrier-pigeon")

    @staticmethod
    def _assert_generation_channels_agree(*, days, jobs, start_method=None):
        plan = ShardPlan.for_generation(
            ("R3",), seed=5, days=days, chunk_days=1, scale=0.05
        )
        shards = list(plan)
        serial = ParallelExecutor(jobs=1).run(run_generation_shard, shards)
        shm = ParallelExecutor(
            jobs=jobs, channel="shm", start_method=start_method,
            shm_min_bytes=0,
        ).run(run_generation_shard, shards)
        assert len(shm) == len(serial)
        for a, b in zip(serial, shm):
            assert np.array_equal(
                a.requests["timestamp_ms"], b.requests["timestamp_ms"]
            )
            assert np.array_equal(a.pods["cold_start_us"], b.pods["cold_start_us"])
            assert a.summary() == b.summary()
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_generation_results_identical_across_channels(self):
        self._assert_generation_channels_agree(days=2, jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_start_methods_match_serial(self, start_method, jobs):
        if start_method not in get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        self._assert_generation_channels_agree(
            days=4, jobs=jobs, start_method=start_method
        )

    def test_abandoned_generator_does_not_leak_blocks(self):
        from pathlib import Path

        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm to inspect on this platform")
        before = {p.name for p in shm_dir.iterdir()}
        plan = ShardPlan.for_generation(
            ("R3",), seed=5, days=3, chunk_days=1, scale=0.05
        )
        executor = ParallelExecutor(jobs=2, channel="shm", shm_min_bytes=0)
        stream = executor.imap(run_generation_shard, list(plan))
        next(stream)
        stream.close()  # in-flight shard results must be unlinked, not leaked
        leaked = {p.name for p in shm_dir.iterdir()} - before
        assert not leaked


class TestShardedEquivalence:
    """Acceptance: shm-channel merges are bit-identical to serial, N in {1,2,4}."""

    KW = dict(seed=5, days=1, scale=0.1, n_groups=4)

    def test_evaluate_policies_channel_invariant(self):
        serial = evaluate_policies("R3", ("baseline",), jobs=1, **self.KW)
        for jobs in (1, 2, 4):
            shm = evaluate_policies(
                "R3", ("baseline",), jobs=jobs, channel="shm", shm_min_bytes=0,
                **self.KW,
            )
            assert shm["baseline"] == serial["baseline"], f"jobs={jobs} diverged"

    def test_evaluate_cross_region_channel_invariant(self):
        serial = evaluate_cross_region("R1", remotes=("R3",), jobs=1, **self.KW)
        for jobs in (1, 2, 4):
            shm = evaluate_cross_region(
                "R1", remotes=("R3",), jobs=jobs, channel="shm",
                shm_min_bytes=0, **self.KW,
            )
            assert shm.metrics == serial.metrics, f"jobs={jobs} diverged"
            assert shm.remote_share == serial.remote_share


class TestStreamingStudyChannel:
    def test_streaming_analysis_channel_invariant(self):
        from repro.core.study import StreamingTraceStudy

        kwargs = dict(regions=("R3",), seed=7, days=2, scale=0.08, chunk_days=1)
        serial = StreamingTraceStudy.generate(jobs=1, **kwargs)
        shm = StreamingTraceStudy.generate(jobs=2, channel="shm", **kwargs)
        a, b = serial.stats["R3"], shm.stats["R3"]
        assert a.summary() == b.summary()
        assert a.category_hists == b.category_hists
        assert a.minute_requests == b.minute_requests

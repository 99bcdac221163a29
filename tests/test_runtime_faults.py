"""Fault-injection matrix for the supervised sharded runtime.

Every recovery path the executor advertises is exercised against the
deterministic fault harness (:mod:`repro.runtime.faults`): worker crashes,
hangs, worker exceptions, shm allocation/decode failures, pool->serial
degradation, interruption, and abandonment. The two invariants under test
throughout:

* a recovered run is **bit-identical** to a fault-free one (retried shards
  re-derive their seeds, so re-execution cannot drift), and
* no run — recovered, failed, interrupted, or abandoned — strands a
  shared-memory block (the autouse leak fixture asserts this per test).
"""

from __future__ import annotations

import math
import os
import pickle
import time
import warnings
from multiprocessing import get_all_start_methods
from pathlib import Path

import numpy as np
import pytest

from repro.obs.telemetry import profiled
from repro.runtime import (
    DEFAULT_SHARD_RETRIES,
    MAX_POOL_REBUILDS,
    Fault,
    FaultPlan,
    ParallelExecutor,
    ShardError,
    ShardPlan,
    evaluate_policies,
    run_generation_shard,
    shm_available,
)
from repro.runtime.faults import DEFAULT_HANG_S, FAULTS_ENV, SHARD_RETRIES_ENV


_SHM_DIR = Path("/dev/shm")


def _shm_blocks() -> set[str]:
    if not _SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(_SHM_DIR)
            if name.startswith(("repro-", "psm_"))}


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Every test in this file must leave /dev/shm exactly as it found it."""
    before = _shm_blocks()
    yield
    leaked = _shm_blocks() - before
    assert not leaked, f"leaked shared-memory blocks: {sorted(leaked)}"


#: ~320 KB of float64 per item — big enough that the shm channel actually
#: parks blocks instead of falling back to pickle for small payloads.
_PAYLOAD_FLOATS = 40_000


def _payload(i: int) -> dict:
    rng = np.random.default_rng(1000 + i)
    return {"index": i, "values": rng.standard_normal(_PAYLOAD_FLOATS)}


def _square(x: int) -> int:
    return x * x


def _raise_value_error(x: int) -> int:
    raise ValueError(f"deterministic config error on {x}")


def _dumps(result) -> bytes:
    return pickle.dumps(result)


def _run(executor: ParallelExecutor, fn, items) -> list[bytes]:
    return [_dumps(value) for value in executor.imap(fn, items)]


_CLEAN = {i: _dumps(_payload(i)) for i in range(8)}


# --- fault plan grammar ------------------------------------------------------


class TestFaultPlan:
    def test_parse_single_entry(self):
        plan = FaultPlan.parse("crash@1")
        assert plan.faults == (Fault(kind="crash", target="1"),)
        assert bool(plan)

    def test_parse_full_grammar(self):
        plan = FaultPlan.parse("hang@2*2=30, raise@*, crash@0*inf")
        assert plan.faults[0] == Fault(kind="hang", target="2", times=2.0,
                                       value=30.0)
        assert plan.faults[1] == Fault(kind="raise", target="*")
        assert plan.faults[2].times == math.inf

    def test_parse_label_target(self):
        plan = FaultPlan.parse("deny-shm@R3/d0+1/g0of8")
        fault = plan.faults[0]
        assert fault.matches(5, "R3/d0+1/g0of8", attempt=0)
        assert not fault.matches(5, "R3/d0+1/g1of8", attempt=0)

    def test_empty_spec_is_falsy(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  , ")

    @pytest.mark.parametrize("spec", [
        "bogus@1",          # unknown kind
        "crash",            # no target
        "crash@",           # empty target
        "crash@1*0",        # repeat count below 1
        "crash@1*x",        # non-integer repeat count
        "hang@1=x",         # non-numeric value
        "hang@1=-5",        # negative value
    ])
    def test_parse_rejects_bad_entries(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_resolve_first_match_wins_and_gates_on_attempt(self):
        plan = FaultPlan.parse("crash@1,raise@*")
        assert plan.resolve(1, "1", attempt=0).kind == "crash"
        assert plan.resolve(0, "0", attempt=0).kind == "raise"
        # default times=1: every fault fires on attempt 0 only, so the
        # retry of the same shard runs clean.
        assert plan.resolve(1, "1", attempt=1) is None
        repeated = FaultPlan.parse("crash@1,raise@**inf")
        assert repeated.resolve(1, "1", attempt=1).kind == "raise"
        assert repeated.resolve(1, "1", attempt=0).kind == "crash"

    def test_describe_round_trips(self):
        plan = FaultPlan.parse("hang@2*2=30,raise@*,crash@0*inf,hang@3")
        assert FaultPlan.parse(plan.describe()) == plan
        assert plan.faults[3].value == DEFAULT_HANG_S

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@0")
        assert FaultPlan.from_env() == FaultPlan.parse("raise@0")
        monkeypatch.delenv(FAULTS_ENV)
        assert not FaultPlan.from_env()


# --- constructor validation --------------------------------------------------


class TestConstructorValidation:
    def test_rejects_negative_shm_min_bytes(self):
        with pytest.raises(ValueError, match="shm_min_bytes"):
            ParallelExecutor(jobs=2, shm_min_bytes=-1)

    def test_rejects_unknown_start_method_at_construction(self):
        with pytest.raises(ValueError, match="supported"):
            ParallelExecutor(jobs=2, start_method="warp")

    def test_rejects_bad_supervision_parameters(self):
        with pytest.raises(ValueError, match="shard_retries"):
            ParallelExecutor(jobs=2, shard_retries=-1)
        with pytest.raises(ValueError, match="shard_timeout_s"):
            ParallelExecutor(jobs=2, shard_timeout_s=0)

    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv(SHARD_RETRIES_ENV, "5")
        assert ParallelExecutor(jobs=2).shard_retries == 5
        monkeypatch.setenv(SHARD_RETRIES_ENV, "many")
        with pytest.raises(ValueError, match=SHARD_RETRIES_ENV):
            ParallelExecutor(jobs=2)

    def test_defaults(self):
        executor = ParallelExecutor(jobs=2)
        assert executor.shard_retries == DEFAULT_SHARD_RETRIES
        assert executor.shard_timeout_s is None
        assert not executor.faults


# --- the recovery matrix -----------------------------------------------------


class TestFaultMatrix:
    """Injected faults recover; recovered output is bit-identical."""

    @pytest.mark.parametrize("channel", ["pickle", "shm"])
    @pytest.mark.parametrize("kind", ["crash", "raise", "deny-shm"])
    def test_recovers_bit_identical(self, kind, channel):
        if channel == "shm" and not shm_available():
            pytest.skip("no shared-memory mount")
        executor = ParallelExecutor(
            jobs=2, channel=channel, faults=FaultPlan.parse(f"{kind}@1"),
        )
        # deny-shm on the pickle channel is a no-op by design: nothing to
        # deny, nothing to warn about.
        if kind == "deny-shm" and channel == "pickle":
            got = _run(executor, _payload, range(6))
        else:
            with pytest.warns(RuntimeWarning):
                got = _run(executor, _payload, range(6))
        assert got == [_CLEAN[i] for i in range(6)]

    def test_hang_recovers_via_timeout(self):
        executor = ParallelExecutor(
            jobs=2, shard_timeout_s=0.75,
            faults=FaultPlan.parse("hang@1=30"),
        )
        with profiled() as tel:
            with pytest.warns(RuntimeWarning, match="wall-clock timeout"):
                got = _run(executor, _payload, range(6))
            assert tel.volatile["runtime/faults/timeouts"] >= 1
            assert tel.volatile["runtime/faults/pool_rebuilds"] >= 1
        assert got == [_CLEAN[i] for i in range(6)]

    def test_crash_recovers_at_four_jobs(self):
        executor = ParallelExecutor(
            jobs=4, faults=FaultPlan.parse("crash@2"),
        )
        with pytest.warns(RuntimeWarning, match="pool broke"):
            got = _run(executor, _payload, range(8))
        assert got == [_CLEAN[i] for i in range(8)]

    def test_crash_counts_rebuilds_and_reaps(self):
        if not shm_available():
            pytest.skip("no shared-memory mount")
        executor = ParallelExecutor(
            jobs=2, channel="shm", faults=FaultPlan.parse("crash@1"),
        )
        with profiled() as tel:
            with pytest.warns(RuntimeWarning, match="pool broke"):
                got = _run(executor, _payload, range(6))
            assert tel.volatile["runtime/faults/pool_rebuilds"] >= 1
            assert tel.volatile["runtime/faults/retries"] >= 1
        assert got == [_CLEAN[i] for i in range(6)]

    @pytest.mark.skipif("spawn" not in get_all_start_methods(),
                        reason="spawn start method unavailable")
    def test_spawn_crash_recovers_on_generation_shards(self):
        if not shm_available():
            pytest.skip("no shared-memory mount")
        plan = ShardPlan.for_generation(("R1", "R2"), seed=3, days=1,
                                        scale=0.05)
        specs = list(plan)
        clean = [_dumps(b) for b in
                 ParallelExecutor(jobs=1).run(run_generation_shard, specs)]
        executor = ParallelExecutor(
            jobs=2, channel="shm", start_method="spawn",
            faults=FaultPlan.parse("crash@0"),
        )
        with pytest.warns(RuntimeWarning, match="pool broke"):
            got = _run(executor, run_generation_shard, specs)
        assert got == clean


# --- graceful-degradation ladder ---------------------------------------------


class TestDegradationLadder:
    def test_deny_shm_falls_back_to_pickle(self):
        if not shm_available():
            pytest.skip("no shared-memory mount")
        executor = ParallelExecutor(
            jobs=2, channel="shm", faults=FaultPlan.parse("deny-shm@1"),
        )
        with profiled() as tel:
            with pytest.warns(RuntimeWarning, match="could not park"):
                got = _run(executor, _payload, range(6))
            assert tel.volatile["runtime/faults/channel_fallbacks"] == 1
        assert got == [_CLEAN[i] for i in range(6)]

    def test_plan_wide_fallback_warns_once_counts_every_shard(self):
        """``deny-shm`` on every shard and attempt: one warning for the
        run, one counted fallback per shard, results still bit-identical."""
        if not shm_available():
            pytest.skip("no shared-memory mount")
        specs = list(ShardPlan.for_generation(("R3",), seed=3, days=4,
                                              chunk_days=1, scale=0.05))
        clean = [_dumps(b) for b in
                 ParallelExecutor(jobs=1).run(run_generation_shard, specs)]
        executor = ParallelExecutor(
            jobs=2, channel="shm", shm_min_bytes=0,
            faults=FaultPlan.parse("deny-shm@**inf"),
        )
        with profiled() as tel:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = _run(executor, run_generation_shard, specs)
            parked = [w for w in caught
                      if "could not park" in str(w.message)]
            assert len(parked) == 1, "one warning per run per rung"
            assert "channel_fallbacks" in str(parked[0].message)
            assert tel.volatile["runtime/faults/channel_fallbacks"] == \
                len(specs)
        assert got == clean

    def test_corrupt_header_degrades_shard_and_retries(self):
        if not shm_available():
            pytest.skip("no shared-memory mount")
        executor = ParallelExecutor(
            jobs=2, channel="shm",
            faults=FaultPlan.parse("corrupt-shm-header@1"),
        )
        with profiled() as tel:
            with pytest.warns(RuntimeWarning, match="undecodable"):
                got = _run(executor, _payload, range(6))
            assert tel.volatile["runtime/faults/channel_fallbacks"] == 1
        assert got == [_CLEAN[i] for i in range(6)]

    def test_persistent_crash_degrades_to_serial(self):
        """A shard that kills every pool walks the whole ladder down to
        in-parent serial execution — and the answer is still right."""
        executor = ParallelExecutor(
            jobs=2, faults=FaultPlan.parse("crash@1*inf"),
        )
        with profiled() as tel:
            with pytest.warns(RuntimeWarning):
                got = _run(executor, _payload, range(6))
            assert tel.volatile["runtime/faults/pool_rebuilds"] == \
                MAX_POOL_REBUILDS
            assert tel.volatile["runtime/faults/serial_fallbacks"] == 1
        assert got == [_CLEAN[i] for i in range(6)]


# --- permanent failure -------------------------------------------------------


class TestPermanentFailure:
    def test_retry_exhaustion_carries_shard_context(self):
        executor = ParallelExecutor(
            jobs=2, faults=FaultPlan.parse("raise@1*inf"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ShardError, match="failed permanently") as err:
                executor.run(_square, range(6))
        assert err.value.attempts == DEFAULT_SHARD_RETRIES + 1
        assert err.value.kind == "worker exception"
        assert err.value.shard == "1"
        assert "InjectedFault" in str(err.value)

    def test_non_retryable_errors_fail_fast(self):
        executor = ParallelExecutor(jobs=2)
        with pytest.raises(ShardError, match="ValueError") as err:
            executor.run(_raise_value_error, range(4))
        assert err.value.attempts == 1  # no retry burned on a config error

    def test_zero_retries_fails_on_first_fault(self):
        executor = ParallelExecutor(
            jobs=2, shard_retries=0, faults=FaultPlan.parse("raise@1"),
        )
        with pytest.raises(ShardError) as err:
            executor.run(_square, range(6))
        assert err.value.attempts == 1


# --- interruption, abandonment, cleanup --------------------------------------


class TestTeardown:
    def test_keyboard_interrupt_reaps_and_reraises(self):
        if not shm_available():
            pytest.skip("no shared-memory mount")
        executor = ParallelExecutor(jobs=2, channel="shm")
        gen = executor.imap(_payload, range(8))
        assert _dumps(next(gen)) == _CLEAN[0]
        with pytest.raises(KeyboardInterrupt):
            gen.throw(KeyboardInterrupt)
        # the autouse fixture asserts no /dev/shm stragglers

    def test_abandoned_generator_cleans_up(self):
        if not shm_available():
            pytest.skip("no shared-memory mount")
        executor = ParallelExecutor(jobs=2, channel="shm")
        gen = executor.imap(_payload, range(8))
        assert _dumps(next(gen)) == _CLEAN[0]
        gen.close()

    def test_discard_failures_are_counted_not_swallowed(self, monkeypatch):
        def _explode(result):
            raise RuntimeError("hostile result")

        monkeypatch.setattr("repro.runtime.executor.discard_shm", _explode)
        executor = ParallelExecutor(jobs=2)
        gen = executor.imap(_payload, range(8))
        next(gen)
        time.sleep(0.5)  # let the in-flight window finish so there is
        # something to discard at teardown
        with profiled() as tel:
            with pytest.warns(RuntimeWarning, match="cleanup failed"):
                gen.close()
            assert tel.volatile["runtime/cleanup_errors"] >= 1


# --- end-to-end: real evaluation shards --------------------------------------


class TestEndToEnd:
    @pytest.mark.parametrize("jobs,channel", [
        (2, "pickle"), (2, "shm"), (4, "pickle"), (4, "shm"),
    ])
    def test_env_injected_crash_is_bit_identical(self, jobs, channel,
                                                 monkeypatch):
        if channel == "shm" and not shm_available():
            pytest.skip("no shared-memory mount")
        kwargs = dict(seed=0, days=1, scale=0.05, n_groups=4)
        clean = evaluate_policies("R3", ["baseline", "timer-prewarm"],
                                  jobs=1, **kwargs)
        monkeypatch.setenv(FAULTS_ENV, "crash@1")
        with pytest.warns(RuntimeWarning, match="pool broke"):
            faulted = evaluate_policies(
                "R3", ["baseline", "timer-prewarm"],
                jobs=jobs, channel=channel, **kwargs,
            )
        assert faulted == clean

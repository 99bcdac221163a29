"""Shard execution: serial and multi-process backends plus shard runners.

:class:`ParallelExecutor` maps a task function over shards with a fixed
result order, so merged outputs never depend on completion order. The
worker entry points (:func:`run_generation_shard`,
:func:`run_evaluation_shard`) are module-level functions — the process-pool
backend pickles only the :class:`~repro.runtime.shards.ShardSpec`, never
closures or trace data, and each worker rebuilds its shard from the spec's
derived seeds.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import signal
import time
import uuid
import warnings
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.mitigation.base import EvalMetrics
from repro.mitigation.cross_region import DEFAULT_INTER_REGION_RTT_S
from repro.obs import telemetry as obs
from repro.obs.telemetry import TelemetryEnvelope
from repro.runtime.faults import (
    SHARD_RETRIES_ENV,
    SHARD_TIMEOUT_ENV,
    FaultPlan,
    ShardError,
    describe_item,
    fire_worker_fault,
)
from repro.runtime.merge import (
    SHM_MIN_BYTES,
    ShmResult,
    discard_shm,
    from_shm,
    shm_available,
    to_shm,
    unlink_shm_block,
)
from repro.runtime.shards import WINDOW_ID_STRIDE, ShardSpec
from repro.trace.tables import TraceBundle
from repro.workload.function import FunctionSpec
from repro.workload.generator import WorkloadGenerator
from repro.workload.regions import REGION_PROFILES

#: Valid shard-result transports for :class:`ParallelExecutor`.
RESULT_CHANNELS = ("pickle", "shm")

#: Default bounded-retry budget per shard: how many *re-executions* a failed
#: shard gets after its first attempt. Shard seeds derive from the spec, so
#: every re-execution is bit-identical to what the first attempt would have
#: produced.
DEFAULT_SHARD_RETRIES = 2

#: Pool rebuilds tolerated in one ``imap`` before the run degrades to
#: serial in-parent execution (the last rung of the degradation ladder).
MAX_POOL_REBUILDS = 3

#: Poll interval for heartbeat-aware waits when a shard timeout is armed.
_POLL_S = 0.05

#: Grace period cleanup grants still-running shards before terminating them.
_CLEANUP_WAIT_S = 5.0

#: Exception types never worth retrying: deterministic configuration errors
#: (bad region name, bad group index, ...) recur identically on every
#: re-execution, so they fail fast with shard context instead.
_NON_RETRYABLE = (ValueError, KeyError, TypeError, NotImplementedError,
                  ShardError)


def _pool_context(start_method: str | None = None):
    """Multiprocessing context for the pool.

    ``None`` prefers fork (cheap, inherits the loaded library) where
    available and otherwise takes the platform default (spawn); an explicit
    method must be supported on this platform.
    """
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            raise ValueError(
                f"start method {start_method!r} is not available on this "
                f"platform (supported: {methods})"
            )
        return multiprocessing.get_context(start_method)
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _check_task_portable(fn: Callable, start_method: str) -> None:
    """Fail with an actionable message when ``fn`` cannot reach workers.

    Fork-less start methods re-import the library in every worker and ship
    tasks by reference, so only module-level callables survive the trip;
    anything else would die mid-pool with a bare pickling traceback.
    """
    try:
        pickle.loads(pickle.dumps(fn))
    except Exception as exc:
        raise RuntimeError(
            f"start method {start_method!r} re-imports the library in each "
            f"worker and can only ship module-level task functions; "
            f"{fn!r} is not importable by reference "
            f"({type(exc).__name__}: {exc}). Use a module-level entry point "
            "(like those in repro.runtime.executor) or a fork start method."
        ) from exc


# --- worker-side supervision plumbing --------------------------------------

#: Heartbeat queue adopted by pool workers via the pool initializer.
_worker_heartbeats = None


def _init_worker_heartbeats(conn) -> None:
    """Pool initializer: adopt the parent's heartbeat pipe in this worker."""
    global _worker_heartbeats
    _worker_heartbeats = conn


def _post_heartbeat(event: str, index: int, attempt: int) -> None:
    conn = _worker_heartbeats
    if conn is None:
        return
    try:
        conn.send((event, index, attempt, time.time()))
    except Exception:  # pragma: no cover - pipe torn down mid-shutdown
        pass


def _terminate_processes(processes) -> None:
    """Kill pool worker processes for certain, escalating to SIGKILL.

    ``Process.terminate()`` alone is not enough: SIGTERM can be ignored,
    masked, or (under some sandboxes) silently dropped, and a worker that
    outlives the pool teardown will happily finish its shard later and
    park a shared-memory block nobody is left to reap. Any worker still
    alive after a grace period is SIGKILLed — that cannot be blocked.
    """
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already gone
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
        except Exception:  # pragma: no cover - already gone
            pass
    survivors = []
    for process in processes:
        try:
            if process.is_alive():
                os.kill(process.pid, signal.SIGKILL)
                survivors.append(process)
        except Exception:  # pragma: no cover - exited in the window
            pass
    for process in survivors:
        try:
            process.join(timeout=1.0)
        except Exception:  # pragma: no cover - already gone
            pass


def _succeeded(future) -> bool:
    """Did this future complete with a result (not cancelled, no error)?"""
    return (future is not None and future.done() and not future.cancelled()
            and future.exception() is None)


class _HeartbeatBoard:
    """Parent-side view of worker start/end stamps.

    Workers post over a lock-free shared :func:`multiprocessing.Pipe`:
    each stamp is one ``send`` of a few dozen bytes — a single atomic
    pipe write (POSIX guarantees writes up to ``PIPE_BUF`` never
    interleave and never land partially), so concurrent writers need no
    lock and a worker killed at *any* instruction can neither corrupt the
    stream nor strand a lock other workers would block on (a
    ``SimpleQueue`` would be vulnerable to both: it serialises writers
    through a lock a SIGKILLed holder never releases). Writes are
    synchronous, so a stamp posted right before an ``os._exit`` crash
    still arrives; the parent drains non-blockingly. Stamps are keyed by
    ``(shard index, attempt)``, so messages from a superseded attempt
    never confuse the current one. Two consumers: wall-clock timeouts
    charge a shard from when it *started* (queued shards are never
    charged), and pool-breakage blame falls on the shards that had
    started but not finished when the pool died.
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._starts: dict[tuple[int, int], float] = {}
        self._ends: set[tuple[int, int]] = set()

    @classmethod
    def create(cls, context) -> "_HeartbeatBoard | None":
        try:
            reader, writer = context.Pipe(duplex=False)
            return cls(reader, writer)
        except Exception:  # pragma: no cover - no pipe support
            return None

    def drain(self) -> None:
        try:
            while self.reader.poll(0):
                event, index, attempt, stamp = self.reader.recv()
                if event == "start":
                    self._starts[(index, attempt)] = stamp
                else:
                    self._ends.add((index, attempt))
        except Exception:  # pragma: no cover - pipe torn down mid-shutdown
            pass

    def started(self, shard) -> float | None:
        return self._starts.get((shard.index, shard.attempt))

    def finished(self, shard) -> bool:
        return (shard.index, shard.attempt) in self._ends

    def suspects(self, shards) -> list:
        """Shards started but never finished — the likely pool killers."""
        self.drain()
        return [
            shard for shard in shards
            if self.started(shard) is not None
            and not self.finished(shard)
            and not _succeeded(shard.future)
        ]

    def close(self) -> None:
        for end in (self.reader, self.writer):
            try:
                end.close()
            except Exception:  # pragma: no cover - already closed
                pass


class _ChannelFallback:
    """Marker a worker returns when shm parking was denied or failed.

    The payload rides the pool's pickle pipe instead; the parent counts the
    degradation (``runtime/faults/channel_fallbacks``) and warns.
    """

    __slots__ = ("result",)

    def __init__(self, result):
        self.result = result


class _SupervisedTask:
    """Per-submission worker wrapper: heartbeat, fault injection, transport.

    Replaces the old ``_ShmTask``: every pooled submission is wrapped so
    the supervisor knows when the shard actually started, injected faults
    fire deterministically inside the worker, and shm parking failures
    degrade that one shard to the pickle pipe instead of killing the run.
    Picklable under any start method as long as ``fn`` itself is a
    module-level callable (which :func:`_check_task_portable` enforces for
    fork-less pools).
    """

    def __init__(self, fn: Callable, index: int, attempt: int, channel: str,
                 min_bytes: int, shm_name: str | None, fault, label: str):
        self.fn = fn
        self.index = index
        self.attempt = attempt
        self.channel = channel
        self.min_bytes = min_bytes
        self.shm_name = shm_name
        self.fault = fault
        self.label = label

    def __call__(self, item):
        _post_heartbeat("start", self.index, self.attempt)
        try:
            if self.fault is not None:
                fire_worker_fault(self.fault, shard=self.label)
            result = self.fn(item)
            if self.channel == "shm":
                result = self._park(result)
            return result
        finally:
            _post_heartbeat("end", self.index, self.attempt)

    def _park(self, result):
        if self.fault is not None and self.fault.kind == "deny-shm":
            return _ChannelFallback(result)
        try:
            handle = to_shm(result, min_bytes=self.min_bytes,
                            name=self.shm_name, strict=True)
        except Exception:
            # Allocation failed (shm mount full/missing): degrade this
            # one result to the pickle pipe rather than losing the shard.
            return _ChannelFallback(result)
        if (self.fault is not None
                and self.fault.kind == "corrupt-shm-header"
                and isinstance(handle, ShmResult)):
            handle = dataclasses.replace(
                handle, header=b"<injected-corrupt-header>"
            )
        return handle


class _ProfiledTask:
    """Wraps a shard task so its telemetry rides back with the result.

    In the worker: activates a *fresh* per-task telemetry (forked workers
    inherit the parent's, pool workers are reused — both must not leak
    counts between shards), runs the task — including any inner
    :class:`_SupervisedTask`, so shm park costs are counted — then snapshots and
    returns a :class:`~repro.obs.telemetry.TelemetryEnvelope`. Per-shard
    wall/CPU time and the worker's memory high-water ride along; the
    parent folds every envelope in plan order, keeping the deterministic
    counter section identical for any ``jobs``/``channel``.
    """

    def __init__(self, fn: Callable, channel: str):
        self.fn = fn
        self.channel = channel

    def __call__(self, item):
        tel = obs.enable(track=f"pid{os.getpid()}")
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result = None
        try:
            with tel.span("runtime/shard"):
                result = self.fn(item)
        finally:
            tel.vcount("runtime/shards")
            tel.time_add("runtime/shard_wall_s", time.perf_counter() - wall0)
            tel.time_add("runtime/shard_cpu_s", time.process_time() - cpu0)
            tel.sample_memory()
            if self.channel == "pickle":
                # The pool is about to pickle this result anyway; a profiled
                # run pays one extra serialization to report payload sizes.
                try:
                    payload = len(pickle.dumps(result, protocol=5))
                except Exception:
                    payload = 0
                tel.vcount("runtime/pickle/results")
                tel.vcount("runtime/payload_bytes", payload)
            snapshot = tel.snapshot()
            obs.disable()
        return TelemetryEnvelope(result, snapshot)


def _float_env(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def _int_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


class ParallelExecutor:
    """Runs shard tasks serially (``jobs=1``) or on a supervised process pool.

    Results always come back in *input order* regardless of backend — the
    guarantee sharded determinism rests on.

    ``channel`` picks the shard-result transport for pooled runs:
    ``"pickle"`` (default) ships results through the pool's regular pickle
    pipe; ``"shm"`` parks each result's numpy arrays in a
    ``multiprocessing.shared_memory`` block (see
    :func:`repro.runtime.merge.to_shm`) and pickles only a small header —
    results smaller than ``shm_min_bytes`` fall back to pickle per result.
    Each parked result lands in a fresh block under a deterministic,
    ledgered name; the parent rebuilds zero-copy views from it and unlinks
    the name on read. Task payloads always travel by pickle. The channel
    never changes results, only how they travel.

    Pooled runs are *supervised* (see :class:`_SupervisedMap`): worker
    crashes, hangs (with ``shard_timeout_s`` armed), and raised exceptions
    retry the affected shard up to ``shard_retries`` times — shard seeds
    derive from the spec, so a re-executed shard is bit-identical and the
    merged output equals a fault-free run — before failing with a
    :class:`~repro.runtime.faults.ShardError` that names the shard. Failures
    that survive retry degrade gracefully (shm→pickle per shard, pool→serial
    per run), each step a ``RuntimeWarning`` plus a ``runtime/faults/*``
    counter. ``faults`` takes a :class:`~repro.runtime.faults.FaultPlan`
    for deterministic fault injection; by default the plan (and
    ``shard_timeout_s``/``shard_retries``) come from the
    ``REPRO_INJECT_FAULTS``/``REPRO_SHARD_TIMEOUT``/``REPRO_SHARD_RETRIES``
    environment, which is how the CLI flags reach every nested executor.
    """

    def __init__(self, jobs: int = 1, channel: str = "pickle",
                 start_method: str | None = None,
                 shm_min_bytes: int = SHM_MIN_BYTES,
                 shard_timeout_s: float | None = None,
                 shard_retries: int | None = None,
                 faults: FaultPlan | None = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if channel not in RESULT_CHANNELS:
            raise ValueError(
                f"unknown result channel {channel!r} (choose from "
                f"{RESULT_CHANNELS})"
            )
        if start_method is not None:
            methods = multiprocessing.get_all_start_methods()
            if start_method not in methods:
                raise ValueError(
                    f"start method {start_method!r} is not available on this "
                    f"platform (supported: {methods})"
                )
        if shm_min_bytes < 0:
            raise ValueError(
                f"shm_min_bytes must be >= 0, got {shm_min_bytes}"
            )
        if shard_timeout_s is None:
            shard_timeout_s = _float_env(SHARD_TIMEOUT_ENV)
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be > 0 (or None to disable), got "
                f"{shard_timeout_s}"
            )
        if shard_retries is None:
            shard_retries = _int_env(SHARD_RETRIES_ENV, DEFAULT_SHARD_RETRIES)
        if shard_retries < 0:
            raise ValueError(f"shard_retries must be >= 0, got {shard_retries}")
        self.jobs = jobs
        self.channel = channel
        self.start_method = start_method
        self.shm_min_bytes = shm_min_bytes
        self.shard_timeout_s = shard_timeout_s
        self.shard_retries = shard_retries
        self.faults = faults if faults is not None else FaultPlan.from_env()

    def imap(self, fn: Callable, items: Sequence) -> Iterator:
        """Yield ``fn(item)`` per item, in input order, streaming.

        Submission is windowed: at most ``jobs + 1`` futures are
        outstanding (fewer when the plan is shorter), so results a slow
        consumer has not drained yet never pile up in the parent — the
        bounded-memory property
        :func:`~repro.runtime.stream.stream_generation` advertises.

        The serial path (``jobs=1`` or a single item) runs in-process with
        no supervision and no fault injection — an injected crash there
        would kill the caller rather than a worker.
        """
        items = list(items)
        if not items:
            return
        if self.jobs == 1 or len(items) == 1:
            for item in items:
                yield fn(item)
            return
        context = _pool_context(self.start_method)
        method = context.get_start_method()
        if self.channel == "shm" and not shm_available():
            raise RuntimeError(
                "channel='shm' needs multiprocessing.shared_memory with a "
                "writable shared-memory mount (e.g. /dev/shm), which this "
                "platform does not provide — rerun with channel='pickle'"
            )
        if method != "fork":
            _check_task_portable(fn, method)
        yield from _SupervisedMap(self, fn, items, context).results()

    def run(self, fn: Callable, items: Sequence) -> list:
        """Map ``fn`` over ``items``; list of results in input order."""
        return list(self.imap(fn, items))


@dataclass
class _Shard:
    """Parent-side supervision record for one work item.

    ``item`` is the work item every attempt dispatches, retries and the
    serial drain included. ``channel`` is the shard's *result* transport:
    it starts at the executor's channel and degrades to ``"pickle"`` for
    this shard alone after an undecodable shm result.
    """

    index: int
    item: object
    label: str
    channel: str
    attempt: int = 0
    future: object | None = None
    submitted_at: float = 0.0
    shm_name: str | None = None


class _ShardTimeout(Exception):
    """Internal: in-flight shards exceeded the wall-clock budget."""

    def __init__(self, shards):
        super().__init__(f"{len(shards)} shard(s) timed out")
        self.shards = shards


class _SupervisedMap:
    """One supervised ``imap`` execution: pool, ledger, heartbeats, retry.

    The control loop keeps the windowed-submission shape (at most
    ``jobs + 1`` futures outstanding, results yielded in plan order) and
    supervises the head wait:

    * a worker exception retries the shard in place — bounded and
      deterministic, since shard seeds derive from the spec — and exhausts
      into a :class:`~repro.runtime.faults.ShardError` carrying the shard
      label, attempt count, and the worker's traceback;
    * a broken pool is torn down and rebuilt (heartbeat stamps blame the
      shards that had started but not finished), at most
      :data:`MAX_POOL_REBUILDS` times before the run degrades to serial
      in-parent execution;
    * with ``shard_timeout_s`` armed, waits poll the heartbeat board so a
      hung worker is detected, terminated, and its shard retried;
    * every shm block name is recorded in a parent-side ledger *before*
      handoff and swept after worker death, interruption, or abandonment,
      so no fault path leaves orphans in ``/dev/shm``;
    * an undecodable shm result (corrupt header) degrades that shard to
      the pickle channel and re-executes it; a result the worker could not
      park (denied or failed allocation) arrives by pickle instead. Both
      fallbacks warn once per run and count every shard in
      ``runtime/faults/channel_fallbacks``.
    """

    def __init__(self, executor: ParallelExecutor, fn: Callable, items: list,
                 context):
        self.executor = executor
        self.fn = fn
        self.context = context
        self.profiled = obs.get_telemetry().enabled
        self.token = uuid.uuid4().hex[:8]
        self.shards = [
            _Shard(index=i, item=item, label=describe_item(item),
                   channel=executor.channel)
            for i, item in enumerate(items)
        ]
        self.workers = min(executor.jobs, len(items))
        self.window = min(executor.jobs + 1, len(items))
        self.board = _HeartbeatBoard.create(context)
        self.ledger: dict[int, str] = {}
        self.inflight: deque[_Shard] = deque()
        self.next_index = 0
        self.pool = None
        self.pool_rebuilds = 0
        self.serial = False
        self.reaped = 0
        self._warned: set[str] = set()

    # -- pool and submission -------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        if self.board is not None:
            return ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self.context,
                initializer=_init_worker_heartbeats,
                initargs=(self.board.writer,),
            )
        return ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=self.context)

    def _submit(self, shard: _Shard) -> None:
        ex = self.executor
        tel = obs.get_telemetry()
        fault = ex.faults.resolve(shard.index, shard.label, shard.attempt)
        tel.vcount("runtime/dispatch/inline")
        if tel.enabled:
            # Profiled runs pay one extra pickle to report what dispatch
            # costs on the wire.
            try:
                tel.vcount("runtime/dispatch/pickled_bytes",
                           len(pickle.dumps(shard.item, protocol=5)))
            except Exception:
                pass
        shard.shm_name = None
        if shard.channel == "shm":
            # Deterministic name, ledgered *before* handoff: a block parked
            # by a worker that dies before the parent consumes it can still
            # be reaped by name.
            shard.shm_name = (
                f"repro-{self.token}-i{shard.index}a{shard.attempt}"
            )
            self.ledger[shard.index] = shard.shm_name
        task = _SupervisedTask(
            self.fn, index=shard.index, attempt=shard.attempt,
            channel=shard.channel, min_bytes=ex.shm_min_bytes,
            shm_name=shard.shm_name, fault=fault, label=shard.label,
        )
        if self.profiled:
            task = _ProfiledTask(task, shard.channel)
        shard.future = None
        shard.submitted_at = time.time()
        shard.future = self.pool.submit(task, shard.item)

    def _refill(self) -> None:
        if self.next_index >= len(self.shards):
            return
        shard = self.shards[self.next_index]
        self.next_index += 1
        self.inflight.append(shard)
        try:
            self._submit(shard)
        except BrokenProcessPool:
            # The pool died between the head result and this submission;
            # the next head wait notices and rebuilds (a None future reads
            # as "needs resubmission").
            pass

    # -- failure handling ----------------------------------------------

    def _reap(self, shard: _Shard) -> None:
        """Unlink the shard's registered-but-unconsumed block, if any."""
        name = self.ledger.pop(shard.index, None)
        if name and unlink_shm_block(name):
            self.reaped += 1
            obs.get_telemetry().vcount("runtime/faults/shm_reaped")

    def _bump(self, shard: _Shard, kind: str, cause,
              retryable: bool | None = None) -> None:
        """Advance a shard's attempt counter, or fail it permanently."""
        shard.attempt += 1
        if retryable is None:
            retryable = not isinstance(cause, _NON_RETRYABLE)
        if retryable and shard.attempt <= self.executor.shard_retries:
            return
        if isinstance(cause, ShardError):
            raise cause  # already carries shard context from the worker
        detail = ""
        if cause is not None:
            detail = f": {type(cause).__name__}: {cause}"
            remote = getattr(cause, "__cause__", None)
            if remote is not None and type(remote).__name__ == "_RemoteTraceback":
                detail += f"\n{remote}"
        raise ShardError(
            f"shard {shard.label} failed permanently after {shard.attempt} "
            f"attempt(s) ({kind}{detail})",
            shard=shard.label, attempts=shard.attempt, kind=kind,
        ) from cause

    def _kill_pool(self) -> None:
        pool = self.pool
        self.pool = None
        if pool is None:
            return
        # Snapshot the worker processes FIRST: shutdown() drops the pool's
        # _processes reference even with wait=False, and a worker that is
        # never terminated can outlive the run and park an orphan block.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - pool already torn down
            pass
        _terminate_processes(processes)
        # With every worker dead, the pool's manager thread exits promptly;
        # joining it here keeps the interpreter's atexit hooks from poking
        # a torn-down pool.
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - already torn down
            pass

    def _rebuild(self, kind: str, blamed: list, cause) -> None:
        """Tear down the broken/hung pool, retry or fail the blamed shards."""
        tel = obs.get_telemetry()
        self._kill_pool()
        self.pool_rebuilds += 1
        tel.vcount("runtime/faults/pool_rebuilds")
        # Reap blocks parked by shards that will re-execute (or never
        # finish): their results can no longer be consumed.
        for shard in self.inflight:
            if not _succeeded(shard.future):
                self._reap(shard)
        if self.pool_rebuilds >= MAX_POOL_REBUILDS:
            # Last rung of the degradation ladder: stop trusting pools.
            self.serial = True
            tel.vcount("runtime/faults/serial_fallbacks")
            warnings.warn(
                f"worker pool broke {self.pool_rebuilds} times; degrading "
                f"to serial in-parent execution for the remaining shards",
                RuntimeWarning, stacklevel=4,
            )
            return
        for shard in blamed:
            self._bump(shard, kind, cause)
            tel.vcount("runtime/faults/retries")
        self.pool = self._new_pool()
        for shard in self.inflight:
            if _succeeded(shard.future):
                continue  # completed result, still waiting to be decoded
            self._submit(shard)

    # -- waiting and decoding ------------------------------------------

    def _await_head(self, head: _Shard):
        if head.future is None:
            raise BrokenProcessPool(
                "shard was never submitted; pool rebuild required"
            )
        timeout_s = self.executor.shard_timeout_s
        if timeout_s is None:
            return head.future.result()
        while True:
            hung = self._hung_shards(timeout_s)
            if hung:
                raise _ShardTimeout(hung)
            try:
                return head.future.result(timeout=_POLL_S)
            except FuturesTimeoutError:
                continue

    def _hung_shards(self, timeout_s: float) -> list:
        if self.board is not None:
            self.board.drain()
        now = time.time()
        hung = []
        for shard in self.inflight:
            future = shard.future
            if future is None or future.done():
                continue
            if self.board is not None:
                started = self.board.started(shard)
                if started is None or self.board.finished(shard):
                    # Still queued, or its result is in transit: not hung.
                    continue
                elapsed = now - started
            elif shard is self.inflight[0]:
                # No heartbeats available: only the head (oldest submission)
                # can be charged fairly against the wall clock.
                elapsed = now - shard.submitted_at
            else:
                continue
            if elapsed > timeout_s:
                hung.append(shard)
        return hung

    def _decode(self, raw):
        value = from_shm(raw)
        envelope = None
        if type(value) is TelemetryEnvelope:
            envelope = value
            value = from_shm(envelope.result)
        fell_back = type(value) is _ChannelFallback
        if fell_back:
            value = value.result
        if envelope is not None:
            # Merge only after the payload decoded: a decode failure means
            # the shard re-executes, and the retry's telemetry must not
            # stack on top of a half-consumed first attempt.
            obs.get_telemetry().merge(envelope.telemetry)
        return value, fell_back

    def _warn_channel(self, rung: str, message: str) -> None:
        """Count an shm→pickle fallback; warn only once per run per rung.

        A plan-wide fault (``deny-shm@*``) would otherwise emit one
        ``RuntimeWarning`` per shard; after the first, the degradation is
        carried by the ``runtime/faults/channel_fallbacks`` counter alone.
        """
        obs.get_telemetry().vcount("runtime/faults/channel_fallbacks")
        if rung in self._warned:
            return
        self._warned.add(rung)
        warnings.warn(
            message + " (one warning per run; further fallbacks of this "
            "kind are counted in runtime/faults/channel_fallbacks)",
            RuntimeWarning, stacklevel=4,
        )

    # -- the supervised loop -------------------------------------------

    def results(self) -> Iterator:
        tel = obs.get_telemetry()
        ex = self.executor
        try:
            self.pool = self._new_pool()
            for shard in self.shards[: self.window]:
                self.inflight.append(shard)
                self._submit(shard)
            self.next_index = self.window
            while self.inflight and not self.serial:
                head = self.inflight[0]
                try:
                    raw = self._await_head(head)
                except _ShardTimeout as timeout:
                    tel.vcount("runtime/faults/timeouts",
                               len(timeout.shards))
                    names = ", ".join(s.label for s in timeout.shards)
                    warnings.warn(
                        f"shard(s) {names} exceeded the "
                        f"{ex.shard_timeout_s:g}s wall-clock timeout; "
                        f"terminating the worker pool and retrying",
                        RuntimeWarning, stacklevel=3,
                    )
                    self._rebuild("timeout", timeout.shards, cause=None)
                    continue
                except BrokenProcessPool as exc:
                    blamed = (self.board.suspects(self.inflight)
                              if self.board is not None else [])
                    if not blamed:
                        blamed = [head]
                    names = ", ".join(s.label for s in blamed)
                    warnings.warn(
                        f"worker pool broke while running shard(s) {names}; "
                        f"rebuilding the pool and retrying",
                        RuntimeWarning, stacklevel=3,
                    )
                    self._rebuild("worker death", blamed, cause=exc)
                    continue
                except Exception as exc:
                    # Raised inside the worker; the pool itself is healthy.
                    self._reap(head)
                    self._bump(head, "worker exception", exc)
                    tel.vcount("runtime/faults/retries")
                    warnings.warn(
                        f"shard {head.label} raised "
                        f"{type(exc).__name__}; retrying (attempt "
                        f"{head.attempt + 1} of {ex.shard_retries + 1})",
                        RuntimeWarning, stacklevel=3,
                    )
                    self._submit(head)
                    continue
                try:
                    value, fell_back = self._decode(raw)
                except Exception as exc:
                    # Undecodable shm result: degrade this one shard to the
                    # pickle channel and re-execute it.
                    self._reap(head)
                    self._warn_channel(
                        "result-decode",
                        f"shard {head.label} returned an undecodable "
                        f"shared-memory result ({type(exc).__name__}: "
                        f"{exc}); degrading this shard to the pickle "
                        f"channel",
                    )
                    self._bump(head, "shm decode failure", exc,
                               retryable=True)
                    head.channel = "pickle"
                    self._submit(head)
                    continue
                self.inflight.popleft()
                self.ledger.pop(head.index, None)
                self._refill()
                if fell_back:
                    self._warn_channel(
                        "result-park",
                        f"shard {head.label} could not park its result in "
                        f"shared memory; it travelled by pickle instead",
                    )
                yield value
            if self.serial:
                yield from self._drain_serial()
        finally:
            self._cleanup()

    def _drain_serial(self) -> Iterator:
        """Finish the remaining shards in-parent, serially.

        Results of shards that completed before the pool gave out are
        still consumed; everything else re-executes in the parent process
        with no fault injection — a deterministic re-execution, same as
        any retry, so merged output is unchanged.
        """
        while self.inflight:
            shard = self.inflight.popleft()
            if _succeeded(shard.future):
                try:
                    value, _ = self._decode(shard.future.result())
                    self.ledger.pop(shard.index, None)
                    yield value
                    continue
                except Exception:
                    self._reap(shard)
            yield self.fn(shard.item)
        while self.next_index < len(self.shards):
            shard = self.shards[self.next_index]
            self.next_index += 1
            yield self.fn(shard.item)

    def _cleanup(self) -> None:
        """Release every straggler: futures, shm blocks, pool, heartbeats.

        Runs on normal completion, on abandonment (``GeneratorExit``), and
        on ``KeyboardInterrupt``: the pool is shut down with
        ``cancel_futures=True``, still-running shards get a bounded grace
        period before their workers are terminated, and every ledgered shm
        block is reaped — Ctrl-C never strands ``/dev/shm`` segments.
        Discard failures are counted (``runtime/cleanup_errors``) and
        reported in one ``RuntimeWarning`` instead of being swallowed.
        """
        tel = obs.get_telemetry()
        failures = 0
        pool = self.pool
        self.pool = None
        # Snapshot before shutdown(): it drops the _processes reference
        # even with wait=False (see _kill_pool).
        processes = list(
            (getattr(pool, "_processes", None) or {}).values()
        ) if pool is not None else []
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - pool already torn down
                failures += 1
        running = [s.future for s in self.inflight
                   if s.future is not None and not s.future.done()]
        if running:
            # Bounded grace period: a result that lands now is discarded
            # below; terminating stragglers afterwards guarantees no worker
            # parks a block after the ledger sweep.
            wait_futures(running, timeout=_CLEANUP_WAIT_S)
        if pool is not None:
            _terminate_processes(processes)
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - already torn down
                pass
        for shard in self.inflight:
            if not _succeeded(shard.future):
                continue
            try:
                leftover = shard.future.result()
                if type(leftover) is TelemetryEnvelope:
                    leftover = leftover.result
                discard_shm(leftover)
                self.ledger.pop(shard.index, None)
            except Exception:
                failures += 1
        # Ledger sweep: blocks registered before handoff whose results were
        # never consumed (dead worker, interruption, abandonment).
        swept = 0
        for index in list(self.ledger):
            name = self.ledger.pop(index)
            try:
                if unlink_shm_block(name):
                    swept += 1
                    tel.vcount("runtime/faults/shm_reaped")
            except Exception:  # pragma: no cover - hostile shm mount
                failures += 1
        self.reaped += swept
        if self.board is not None:
            self.board.close()
        if failures:
            tel.vcount("runtime/cleanup_errors", failures)
            warnings.warn(
                f"shard cleanup failed to discard {failures} leftover "
                f"result(s); the ledger reaper swept {swept} named "
                f"shared-memory block(s) to prevent leaks",
                RuntimeWarning, stacklevel=2,
            )


# --- worker entry points ---------------------------------------------------


def _shard_profile(spec: ShardSpec):
    try:
        profile = REGION_PROFILES[spec.region]
    except KeyError:
        raise KeyError(
            f"unknown region {spec.region!r}; sharded execution addresses "
            f"regions by name ({sorted(REGION_PROFILES)})"
        ) from None
    return profile.scaled(spec.scale) if spec.scale != 1.0 else profile


def run_generation_shard(spec: ShardSpec) -> TraceBundle:
    """Generate one (region, day-window) shard as a :class:`TraceBundle`."""
    generator = WorkloadGenerator(
        _shard_profile(spec),
        seed=spec.seed,
        days=spec.n_days,
        keepalive_s=spec.keepalive_s,
        start_day=spec.start_day,
        id_offset=spec.id_offset,
        windowed=spec.n_windows > 1,
    )
    bundle = generator.generate()
    if spec.n_windows > 1 and (
        len(bundle.requests) >= WINDOW_ID_STRIDE or len(bundle.pods) >= WINDOW_ID_STRIDE
    ):
        raise ShardError(
            f"shard {spec.describe()} produced "
            f"{max(len(bundle.requests), len(bundle.pods))} rows, exceeding the "
            f"per-window id capacity of {WINDOW_ID_STRIDE}; merged ids would "
            f"collide — lower --scale or raise --chunk-days",
            shard=spec.describe(), attempts=1, kind="id capacity",
        )
    return bundle


def run_analysis_shard(spec: ShardSpec):
    """Generate one (region, day-window) shard and reduce it to accumulators.

    The worker behind streaming analysis: the window bundle exists only
    inside this call; what crosses the process boundary is a
    :class:`~repro.analysis.accumulators.RegionAccumulator`, whose size is
    bounded by entity counts rather than trace rows. Same-region
    accumulators merge in plan (time) order.
    """
    from repro.analysis.accumulators import RegionAccumulator

    bundle = run_generation_shard(spec)
    acc = RegionAccumulator(
        spec.region, functions=bundle.functions, meta=dict(bundle.meta)
    )
    acc.update(requests=bundle.requests, pods=bundle.pods)
    return acc


def run_chunk_directory_analysis(directory):
    """Reduce one saved chunk directory to a region accumulator, lazily.

    Peak memory is one ``part-NNNNN.npz`` chunk plus the accumulator —
    the bounded-memory path for analysing traces larger than RAM.
    """
    from pathlib import Path

    from repro.analysis.accumulators import RegionAccumulator
    from repro.runtime.stream import iter_saved_chunks, load_chunk_functions, read_chunk_manifest

    directory = Path(directory)
    manifest = read_chunk_manifest(directory)
    acc = RegionAccumulator(
        manifest["region"],
        functions=load_chunk_functions(directory),
        meta=dict(manifest.get("meta", {})),
    )
    for chunk in iter_saved_chunks(directory):
        acc.update(chunk)
    return acc


def run_directory_analysis(directory):
    """Reduce one saved region directory (chunked or plain) to accumulators.

    Dispatches on layout: a ``manifest.json`` means a chunk directory
    (streamed lazily, see :func:`run_chunk_directory_analysis`); anything
    else is loaded as a plain saved bundle and reduced chunk by chunk. The
    worker entry point behind ``repro analyze/figures --load DIR --stream
    --jobs N``.
    """
    from pathlib import Path

    from repro.analysis.accumulators import RegionAccumulator
    from repro.trace.io import load_bundle

    directory = Path(directory)
    if (directory / "manifest.json").is_file():
        return run_chunk_directory_analysis(directory)
    return RegionAccumulator.from_bundle(load_bundle(directory))


@dataclass(frozen=True)
class EvaluationTask:
    """A function-group shard plus the §5 replays to run over it.

    ``policies`` names single-region configurations
    (:func:`make_policy_evaluator`), replayed up to ``horizon_s``
    (``None``: the shard's own last arrival). ``routes`` names
    :class:`~repro.mitigation.cross_region.RoutingPolicy` values, each
    replayed from the shard's region against ``remotes`` with ``rtt_s``
    of network penalty and ``keepalive_s`` of keep-alive. ``engine`` picks
    the replay engine (``"vector"``/``"event"``); it never changes merged
    metrics — the engines are bit-identical for every configuration the
    vector engine accepts — only wall-clock.
    """

    spec: ShardSpec
    #: The group's slice of the population, sampled once by the caller for
    #: every shard (see :func:`~repro.mitigation.evaluator.population_groups`).
    functions: tuple[FunctionSpec, ...]
    engine: str = "vector"
    horizon_s: float | None = None
    policies: tuple[str, ...] = ()
    routes: tuple[str, ...] = ()
    remotes: tuple[str, ...] = ()
    rtt_s: float = DEFAULT_INTER_REGION_RTT_S
    keepalive_s: float = 60.0


def make_policy_evaluator(profile, policy: str, seed: int, engine: str = "vector"):
    """Build the §5 evaluator configuration named ``policy``.

    Every named configuration — policy-free (``baseline``,
    ``dynamic-keepalive``) *and* coupled (pre-warming, peak shaving) —
    replays bit-identically on either engine: the coupled policies are
    tick-protocol machines, and ``engine="vector"`` (default) runs every
    configuration through one schedule-taking driver (the policy-free ones
    on the empty schedule).
    """
    from repro.mitigation import (
        AsyncPeakShaver,
        DynamicKeepAlive,
        HistogramPrewarmPolicy,
        RegionEvaluator,
        TimerPrewarmPolicy,
    )

    if policy == "timer-prewarm":
        return RegionEvaluator(
            profile, prewarm_policy=TimerPrewarmPolicy(), seed=seed, engine=engine
        )
    if policy == "histogram-prewarm":
        return RegionEvaluator(
            profile,
            prewarm_policy=HistogramPrewarmPolicy(threshold=0.35, min_observations=30),
            seed=seed,
            engine=engine,
        )
    if policy == "dynamic-keepalive":
        return RegionEvaluator(
            profile, keepalive_policy=DynamicKeepAlive(), seed=seed, engine=engine
        )
    if policy == "peak-shaving":
        return RegionEvaluator(
            profile, peak_shaver=AsyncPeakShaver(max_delay_s=120.0), seed=seed,
            engine=engine,
        )
    if policy == "baseline":
        return RegionEvaluator(profile, seed=seed, engine=engine)
    raise ValueError(f"unknown policy {policy!r}")


def run_evaluation_shard(task: EvaluationTask) -> dict[str, EvalMetrics]:
    """Replay one function group under every listed policy and route.

    The shard generates its group's traces once (arrival streams are
    addressed per function id, so they equal the unsharded traces exactly)
    and replays them under each policy, then each route, with the
    shard-derived evaluator seed. Results are keyed by their metrics name:
    the policy name, or ``xregion:<route>``. Under the vector engine the
    policies share one :class:`~repro.mitigation.evaluator.SharedReplay`,
    so the work no policy changes — the replay columns and the walk of
    each function no decision touches — is paid once per shard.

    A routed replay keeps warm pods per (function, region), so a group
    replays exactly the requests those functions see unsharded; the
    per-region cold-start EMA that steers routing is estimated
    *shard-locally*, the one documented deviation from an unsharded
    replay. ``n_groups=1`` reproduces the unsharded evaluators bit for bit
    under either engine.
    """
    from repro.mitigation.cross_region import CrossRegionEvaluator, RoutingPolicy
    from repro.mitigation.evaluator import SharedReplay, build_workload_shard

    spec = task.spec
    replay = "traces"
    try:
        profile, traces = build_workload_shard(
            spec.region, seed=spec.seed, days=spec.n_days, scale=spec.scale,
            functions=task.functions,
        )
        shared = (
            SharedReplay(traces, task.horizon_s)
            if task.engine == "vector" and task.policies else None
        )
        out: dict[str, EvalMetrics] = {}
        for policy in task.policies:
            replay = policy
            evaluator = make_policy_evaluator(
                profile, policy, seed=spec.shard_seed, engine=task.engine
            )
            out[policy] = evaluator.run(
                traces, horizon_s=task.horizon_s, name=policy, shared=shared
            )
        for route in task.routes:
            replay = f"xregion:{route}"
            evaluator = CrossRegionEvaluator(
                home=spec.region, remotes=task.remotes, rtt_s=task.rtt_s,
                seed=spec.shard_seed, engine=task.engine,
            )
            out[replay] = evaluator.run(
                traces, policy=RoutingPolicy(route), keepalive_s=task.keepalive_s
            )
        return out
    except ShardError:
        raise
    except Exception as exc:
        # Configuration/replay errors cross the pool boundary with the
        # shard's identity attached; the supervisor re-raises them without
        # burning retries on a deterministic failure.
        raise ShardError(
            f"evaluation shard {spec.describe()} failed in replay {replay!r} "
            f"(policies {task.policies}, routes {task.routes}, remotes "
            f"{task.remotes}): {type(exc).__name__}: {exc}",
            shard=spec.describe(), attempts=1, kind="evaluation",
        ) from exc


def _replay_plan(region: str, *, seed: int, days: int, scale: float,
                 n_groups: int, eval_seed: int, engine: str, executor: dict,
                 **replays) -> dict[str, EvalMetrics]:
    """Run the §5 replays over every function group; fold them per key.

    The shard plan depends only on ``(region, seed, days, scale, n_groups,
    eval_seed)`` — never on the ``executor`` settings (jobs, channel,
    timeouts) or ``engine`` — and shard results fold through
    :meth:`EvalMetrics.merge` in plan order as they arrive, so the parent
    holds the running merge plus one in-flight shard and any worker count,
    result transport and replay engine merges bit-identically. The
    population is sampled once, here, and each task carries its group's
    slice of it, so shards generate only their group's traces.
    ``replays`` are the :class:`EvaluationTask` replay fields.
    """
    from repro.mitigation.evaluator import ENGINES, population_groups
    from repro.runtime.merge import merge_eval_metrics
    from repro.runtime.shards import ShardPlan

    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    plan = ShardPlan.for_evaluation(
        region, seed=seed, days=days, scale=scale, n_groups=n_groups,
        eval_seed=eval_seed,
    )
    groups = population_groups(
        region, seed=seed, days=days, scale=scale, n_groups=n_groups
    )
    tasks = [
        EvaluationTask(spec=spec, functions=groups[spec.group], engine=engine,
                       **replays)
        for spec in plan
    ]
    merged: dict[str, EvalMetrics] = {}
    for part in ParallelExecutor(**executor).imap(run_evaluation_shard, tasks):
        for key, metrics in part.items():
            if key in merged:
                merged[key].merge(metrics)
            else:
                merged[key] = merge_eval_metrics([metrics])
    return merged


def evaluate_policies(
    region: str,
    policies: Sequence[str],
    seed: int = 0,
    days: int = 3,
    scale: float = 0.3,
    jobs: int = 1,
    n_groups: int = 8,
    eval_seed: int = 1,
    horizon_s: float | None = None,
    channel: str = "pickle",
    shm_min_bytes: int = SHM_MIN_BYTES,
    engine: str = "vector",
    shard_timeout_s: float | None = None,
    shard_retries: int | None = None,
    faults: FaultPlan | None = None,
) -> dict[str, EvalMetrics]:
    """Sharded policy evaluation: merge per-policy metrics over all groups.

    Any worker count, result transport (``channel="shm"`` ships shard
    arrays as shared-memory blocks instead of pickle bytes) and replay
    engine yields identical merged metrics (see :func:`_replay_plan`);
    :mod:`repro.runtime.merge` documents per-metric equality guarantees
    against an unsharded replay.

    ``horizon_s=None`` lets each shard close out at its own last arrival
    (the evaluator's default), matching the unsharded pod-time accounting;
    a shard's horizon depends only on its traces, never on ``jobs``.
    """
    return _replay_plan(
        region, seed=seed, days=days, scale=scale, n_groups=n_groups,
        eval_seed=eval_seed, engine=engine,
        executor=dict(jobs=jobs, channel=channel, shm_min_bytes=shm_min_bytes,
                      shard_timeout_s=shard_timeout_s,
                      shard_retries=shard_retries, faults=faults),
        policies=tuple(policies), horizon_s=horizon_s,
    )


@dataclass(frozen=True)
class CrossRegionResult:
    """Merged cross-region replay outcome: the metrics plus the home
    region name routing shares are read against (per-region cold-start
    placements live on :attr:`EvalMetrics.cold_starts_by_region`)."""

    metrics: EvalMetrics
    home: str = ""

    @property
    def remote_share(self) -> float:
        """Fraction of cold starts placed away from the home region."""
        return self.metrics.remote_cold_share(self.home)


def evaluate_cross_region(
    home: str,
    remotes: tuple[str, ...] = ("R3",),
    policy: str = "best-region",
    seed: int = 0,
    days: int = 3,
    scale: float = 0.3,
    jobs: int = 1,
    n_groups: int = 8,
    eval_seed: int = 1,
    rtt_s: float | None = None,
    keepalive_s: float = 60.0,
    channel: str = "pickle",
    shm_min_bytes: int = SHM_MIN_BYTES,
    engine: str = "vector",
    shard_timeout_s: float | None = None,
    shard_retries: int | None = None,
    faults: FaultPlan | None = None,
) -> CrossRegionResult:
    """Sharded §5 cross-region replay with a deterministic merge.

    The plan and fold of :func:`evaluate_policies` (see
    :func:`_replay_plan`) with one route instead of policies; per-region
    EMA routing state is shard-local (see :func:`run_evaluation_shard`).
    Routing is a tick-phase policy, so both engines replay it
    bit-identically. ``rtt_s=None`` charges the default inter-region RTT.
    """
    merged = _replay_plan(
        home, seed=seed, days=days, scale=scale, n_groups=n_groups,
        eval_seed=eval_seed, engine=engine,
        executor=dict(jobs=jobs, channel=channel, shm_min_bytes=shm_min_bytes,
                      shard_timeout_s=shard_timeout_s,
                      shard_retries=shard_retries, faults=faults),
        routes=(policy,), remotes=tuple(remotes),
        rtt_s=DEFAULT_INTER_REGION_RTT_S if rtt_s is None else rtt_s,
        keepalive_s=keepalive_s,
    )
    (metrics,) = merged.values()
    return CrossRegionResult(metrics=metrics, home=home)

"""Associative reducers turning shard results into whole-experiment results.

Every reducer here is associative and order-insensitive in its *semantics*
(list-like fields are concatenated in the given order, which the executor
fixes to plan order), so ``merge(merge(a, b), c) == merge(a, merge(b, c))``
and a ``--jobs 1`` run merges to exactly the same result as ``--jobs N``.

Equality guarantees of a *sharded* run against an *unsharded* run:

=====================  ======================================================
Metric                 Guarantee
=====================  ======================================================
requests, functions    exact for function-group shards; day-window shards
                       regenerate arrivals per window (statistically
                       equivalent volume, boundary sessions truncated).
cold-start counts      function-group shards replay identical arrivals (the
                       evaluator is function-centric), so counts match an
                       unsharded replay in practice — not provably exactly:
                       a shard-local cold-duration draw can flip a
                       queue-behind-initialising-pod decision. Day-window
                       shards add at most one extra cold start per function
                       per boundary.
cold-start latencies   statistically equivalent: shards draw from the same
                       latency model but estimate congestion shard-locally.
pod_seconds            exact up to boundary pods (windows) / closeout (groups).
peak_pods              exact at tick times where all shards still tick
                       (per-tick gauges are summed element-wise); tail ticks
                       of longer-running shards count the others as drained.
analysis accumulators  counts/keys exact; floating sums to addition order
                       (~1e-12 rel.); histogram quantiles to one bin
                       (see repro.analysis.accumulators).
unique users/pods      exact (set union, see StreamingSummary).
=====================  ======================================================
"""

from __future__ import annotations

import pickle
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.mitigation.base import EvalMetrics
from repro.obs.telemetry import get_telemetry
from repro.trace.tables import (
    PodTable,
    RequestTable,
    TraceBundle,
    dedupe_functions,
)

__all__ = [
    "SHM_MIN_BYTES",
    "ShmResult",
    "dedupe_functions",
    "discard_shm",
    "from_shm",
    "merge_bundles",
    "merge_eval_metrics",
    "shm_available",
    "to_shm",
    "StreamingSummary",
]


def merge_bundles(parts: Sequence[TraceBundle]) -> TraceBundle:
    """Merge day-window shards of one region into a single bundle.

    Requests and pods are concatenated and re-sorted by timestamp; the
    function table is the union over windows (a function appears in every
    window it had arrivals in). Merging a single part returns it unchanged.
    """
    if not parts:
        raise ValueError("need at least one bundle to merge")
    if len(parts) == 1:
        return parts[0]
    regions = {part.region for part in parts}
    if len(regions) != 1:
        raise ValueError(f"cannot merge bundles of different regions: {sorted(regions)}")
    parts = sorted(parts, key=lambda p: int(p.meta.get("start_day", 0)))

    requests = RequestTable.concat([p.requests for p in parts]).sort_by("timestamp_ms")
    pods = PodTable.concat([p.pods for p in parts]).sort_by("timestamp_ms")
    functions = dedupe_functions([p.functions for p in parts])

    meta = dict(parts[0].meta)
    meta["days"] = int(sum(int(p.meta.get("days", 0)) for p in parts))
    meta["start_day"] = int(parts[0].meta.get("start_day", 0))
    meta["merged_shards"] = len(parts)
    return TraceBundle(
        region=parts[0].region,
        requests=requests,
        pods=pods,
        functions=functions,
        meta=meta,
    )


def merge_eval_metrics(
    parts: Sequence[EvalMetrics], name: str | None = None
) -> EvalMetrics:
    """Reduce per-shard :class:`EvalMetrics` into experiment totals.

    Counters, cost accumulators, and latency/allocation histograms sum
    (bin-exact); per-tick pod gauges sum element-wise (shards tick on the
    same absolute grid), and ``peak_pods`` is recomputed from the summed
    series so re-merging stays associative. Delegates to
    :meth:`EvalMetrics.merge`, the same reducer evaluator shards use.
    """
    if not parts:
        raise ValueError("need at least one EvalMetrics to merge")
    merged = EvalMetrics(name=name if name is not None else parts[0].name)
    for part in parts:
        merged.merge(part)
    return merged


class StreamingSummary:
    """Bounded-memory accumulator for :meth:`TraceBundle.summary` totals.

    Consumes whole bundles or streamed chunks; holds only per-entity id
    sets (functions, users, pods — orders of magnitude smaller than rows).
    ``merge`` is associative, so shard summaries reduce in any grouping.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.cold_starts = 0
        self._functions: set[int] = set()
        self._users: set[int] = set()
        self._pods: set[int] = set()

    def update(
        self, requests: RequestTable | None = None, pods: PodTable | None = None
    ) -> "StreamingSummary":
        if requests is not None and len(requests):
            self.requests += len(requests)
            self._users.update(np.unique(requests["user"]).tolist())
            self._functions.update(np.unique(requests["function"]).tolist())
        if pods is not None and len(pods):
            self.cold_starts += len(pods)
            self._pods.update(np.unique(pods["pod_id"]).tolist())
        return self

    def update_bundle(self, bundle: TraceBundle) -> "StreamingSummary":
        return self.update(requests=bundle.requests, pods=bundle.pods)

    def merge(self, other: "StreamingSummary") -> "StreamingSummary":
        out = StreamingSummary()
        out.requests = self.requests + other.requests
        out.cold_starts = self.cold_starts + other.cold_starts
        out._functions = self._functions | other._functions
        out._users = self._users | other._users
        out._pods = self._pods | other._pods
        return out

    def result(self) -> dict[str, int]:
        """Same keys as :meth:`TraceBundle.summary`.

        ``functions`` counts functions observed in the request stream (the
        bundle summary counts the metadata table, which may also list
        functions without requests in a window).
        """
        return {
            "requests": self.requests,
            "cold_starts": self.cold_starts,
            "functions": len(self._functions),
            "pods": len(self._pods),
            "users": len(self._users),
        }


# --- shared-memory result channel ---------------------------------------------
#
# Shard results are overwhelmingly flat numpy arrays (histogram counts,
# binned series, keyed matrices, trace columns). ``to_shm`` pickles a result
# with protocol 5 and a ``buffer_callback``, so every contiguous array's bytes
# leave the pickle stream out of band; it copies those buffers into one
# ``multiprocessing.shared_memory`` block and returns a :class:`ShmResult`
# handle whose header is the rest of the stream. ``from_shm`` in the parent
# unpickles the header against views of the block. The arrays therefore
# cross the process boundary as a single shared mapping — no pickle
# byte-string of the payload ever exists on either side — and the parent
# gets exactly the object graph the pickle pipe would have delivered. Any
# picklable result takes this path; no type needs channel-specific code.

#: Below this many out-of-band bytes a result travels by pickle: a
#: shared-memory segment costs several syscalls per shard, which only pays
#: off once the payload dwarfs the header.
SHM_MIN_BYTES = 64 * 1024

#: Buffer offsets inside a block are aligned to this many bytes.
_SHM_ALIGN = 64


@dataclass(frozen=True)
class ShmResult:
    """Picklable handle to one shard result parked in shared memory.

    ``header`` is the result's protocol-5 pickle with every array buffer
    taken out of band; ``buffers`` holds each buffer's ``(offset, nbytes)``
    in the block named ``shm_name``, in the order the header consumes them.
    The handle itself is tiny; pickling it costs O(fields), never O(rows).
    """

    shm_name: str
    header: bytes
    buffers: tuple[tuple[int, int], ...]
    nbytes: int


def _unregister_from_tracker(raw_name: str) -> None:
    """Detach a block from this process's resource tracker.

    The creating worker hands the block to the parent, which unlinks it
    after reconstruction; without this, the worker's tracker would try to
    unlink the (already-removed) block again at exit and warn about leaks.
    """
    try:  # pragma: no cover - tracker layout is a CPython detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister(raw_name, "shared_memory")
    except Exception:
        pass


def to_shm(result, min_bytes: int = SHM_MIN_BYTES, name: str | None = None,
           strict: bool = False):
    """Park ``result``'s arrays in a shared-memory block; return the handle.

    Falls back to returning ``result`` unchanged (the pickle path) when its
    out-of-band buffers total fewer than ``min_bytes`` bytes (object-dtype
    and non-contiguous arrays pickle in band) or a block cannot be created,
    so callers can always send the return value across a process boundary.
    With ``strict=True`` allocation failures raise instead of silently
    falling back — the supervised executor uses this so a worker can
    *report* the degradation (warning + counter) rather than hide it.

    ``name`` pins the block's name. The supervised executor names every
    block deterministically and records the name in a parent-side ledger
    *before* handoff, so blocks parked by workers that die mid-shard can be
    reaped by name; a stale block left by a killed earlier attempt under
    the same name is replaced.
    """
    buffers: list[pickle.PickleBuffer] = []
    header = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    layout: list[tuple[int, int]] = []
    total = 0
    for view in views:
        offset = -(-total // _SHM_ALIGN) * _SHM_ALIGN
        layout.append((offset, view.nbytes))
        total = offset + view.nbytes
    tel = get_telemetry()
    if not views or total < min_bytes:
        if tel.enabled:
            tel.vcount("runtime/shm/small_fallbacks")
            tel.vcount("runtime/payload_bytes", total)
        return result
    try:
        from multiprocessing import shared_memory

        try:
            block = shared_memory.SharedMemory(create=True,
                                               size=max(total, 1), name=name)
        except FileExistsError:
            if name is None:
                raise
            unlink_shm_block(name)  # stale block from a killed attempt
            block = shared_memory.SharedMemory(create=True,
                                               size=max(total, 1), name=name)
    except (ImportError, OSError):
        if strict:
            raise
        return result
    if tel.enabled:
        tel.vcount("runtime/shm/blocks")
        tel.vcount("runtime/payload_bytes", total)
        tel.vcount("runtime/shm/bytes", total)
    try:
        for view, (offset, nbytes) in zip(views, layout):
            block.buf[offset:offset + nbytes] = view
        handle = ShmResult(shm_name=block.name, header=header,
                           buffers=tuple(layout), nbytes=total)
    except Exception:
        block.close()
        block.unlink()
        raise
    raw_name = getattr(block, "_name", block.name)
    block.close()
    _unregister_from_tracker(raw_name)
    return handle


def from_shm(result):
    """Rebuild a result parked by :func:`to_shm`.

    Non-:class:`ShmResult` values (the pickle fallback) pass through
    unchanged. The rebuilt arrays *view* the mapped block — no
    payload-sized copy is ever made — and the block's name is unlinked
    immediately and its fd closed, so nothing leaks; the mapping lives
    exactly as long as the arrays referencing it.
    """
    if not isinstance(result, ShmResult):
        return result
    import os

    from multiprocessing import shared_memory

    block = shared_memory.SharedMemory(name=result.shm_name)
    try:
        views = [block.buf[offset:offset + nbytes]
                 for offset, nbytes in result.buffers]
        # Hand the mapping over to the views: each one keeps the block's
        # mmap object alive, which unmaps only when the last view dies —
        # but SharedMemory.__del__ calls close(), which would unmap it under
        # the views' feet. Neuter the block (close its fd, drop its
        # mmap/buffer references) so close() becomes a no-op and the views
        # own the mapping outright.
        try:
            fd = block._fd
            assert block._mmap is not None
            block._buf = None
            block._mmap = None
            if fd >= 0:
                os.close(fd)
                block._fd = -1
        except Exception:  # pragma: no cover - unexpected stdlib layout
            views = [bytearray(view) for view in views]
        return pickle.loads(result.header, buffers=views)
    finally:
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - already freed
            pass
        block.close()  # no-op once detached; frees the mapping otherwise


def discard_shm(result) -> None:
    """Free the block behind an unconsumed :class:`ShmResult`, if any."""
    if not isinstance(result, ShmResult):
        return
    try:
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(name=result.shm_name)
        block.close()
        block.unlink()
    except (ImportError, OSError):  # pragma: no cover - already freed
        pass


def unlink_shm_block(name: str) -> bool:
    """Best-effort unlink of a shared-memory block by name.

    The supervised executor's reaper: blocks are named before handoff, so
    one parked by a worker that died (or whose result was never consumed)
    can be swept without holding a handle. Returns ``True`` when a block
    existed and was removed, ``False`` when there was nothing to reap.
    """
    if not name:
        return False
    try:
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except (ImportError, OSError):  # pragma: no cover - no shm support
        return False
    try:
        block.unlink()
    except FileNotFoundError:  # pragma: no cover - concurrent reap
        pass
    block.close()
    return True


def shm_available() -> bool:
    """Whether this interpreter can create shared-memory blocks at all."""
    try:
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(create=True, size=16)
    except (ImportError, OSError):
        return False
    block.close()
    block.unlink()
    return True

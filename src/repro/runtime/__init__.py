"""Sharded parallel runtime: chunked trace streaming + multi-process execution.

The paper's trace covers 85 billion requests; a single process materialising
whole :class:`~repro.trace.tables.TraceBundle` objects cannot approach that.
This subsystem makes every experiment *embarrassingly parallel* along its
natural axes:

* :mod:`~repro.runtime.shards` — deterministic shard plans along
  (region, day-window) for generation and (region, function-group) for
  policy evaluation, each shard carrying a derived seed;
* :mod:`~repro.runtime.executor` — serial and process-pool execution with
  plan-order results (``--jobs N`` never changes merged output) and a
  choice of result transport (``channel="pickle"`` or ``"shm"``);
* :mod:`~repro.runtime.stream` — bounded-memory chunk production,
  spilling, and lazy re-consumption;
* :mod:`~repro.runtime.merge` — associative reducers with documented
  per-metric equality guarantees, plus the shared-memory (pickle-free)
  shard-result codec (:func:`~repro.runtime.merge.to_shm` /
  :func:`~repro.runtime.merge.from_shm`): each worker parks its result
  in a fresh block under a ledgered name, and the parent rebuilds
  zero-copy views and unlinks the block on read. Task payloads always
  travel by pickle.
"""

from repro.runtime.executor import (
    DEFAULT_SHARD_RETRIES,
    MAX_POOL_REBUILDS,
    RESULT_CHANNELS,
    CrossRegionResult,
    EvaluationTask,
    ParallelExecutor,
    evaluate_cross_region,
    evaluate_policies,
    make_policy_evaluator,
    run_analysis_shard,
    run_chunk_directory_analysis,
    run_directory_analysis,
    run_evaluation_shard,
    run_generation_shard,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    InjectedFault,
    ShardError,
)
from repro.runtime.merge import (
    SHM_MIN_BYTES,
    ShmResult,
    StreamingSummary,
    dedupe_functions,
    discard_shm,
    from_shm,
    merge_bundles,
    merge_eval_metrics,
    shm_available,
    to_shm,
    unlink_shm_block,
)
from repro.runtime.shards import (
    MAX_WINDOWS,
    WINDOW_ID_STRIDE,
    ShardPlan,
    ShardSpec,
    partition_days,
)
from repro.runtime.stream import (
    CHUNK_FORMAT_VERSION,
    ChunkDirectoryError,
    ChunkedBundleWriter,
    TraceChunk,
    iter_bundle_chunks,
    iter_saved_chunks,
    load_chunk_functions,
    load_chunked_bundle,
    read_chunk_manifest,
    stream_generation,
)

__all__ = [
    "CHUNK_FORMAT_VERSION",
    "ChunkDirectoryError",
    "ChunkedBundleWriter",
    "CrossRegionResult",
    "DEFAULT_SHARD_RETRIES",
    "EvaluationTask",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "MAX_POOL_REBUILDS",
    "MAX_WINDOWS",
    "ParallelExecutor",
    "RESULT_CHANNELS",
    "SHM_MIN_BYTES",
    "ShardError",
    "ShardPlan",
    "ShardSpec",
    "ShmResult",
    "StreamingSummary",
    "TraceChunk",
    "WINDOW_ID_STRIDE",
    "dedupe_functions",
    "discard_shm",
    "from_shm",
    "evaluate_cross_region",
    "evaluate_policies",
    "iter_bundle_chunks",
    "iter_saved_chunks",
    "load_chunk_functions",
    "load_chunked_bundle",
    "make_policy_evaluator",
    "merge_bundles",
    "merge_eval_metrics",
    "partition_days",
    "read_chunk_manifest",
    "shm_available",
    "to_shm",
    "run_analysis_shard",
    "run_chunk_directory_analysis",
    "run_directory_analysis",
    "run_evaluation_shard",
    "run_generation_shard",
    "stream_generation",
    "unlink_shm_block",
]

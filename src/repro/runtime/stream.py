"""Chunked trace streaming: bounded-memory production and consumption.

Three layers, composable:

* :func:`stream_generation` — run a generation :class:`ShardPlan` and yield
  each (region, day-window) bundle as it completes, in plan order. Peak
  memory is one window per in-flight worker instead of the whole horizon.
* :func:`iter_bundle_chunks` — slice an in-memory bundle into time-aligned
  :class:`TraceChunk` pieces for streaming consumers (running aggregates,
  exporters).
* :class:`ChunkedBundleWriter` / :func:`iter_saved_chunks` — spill chunks to
  ``part-NNNNN.npz`` files and read them back lazily, so a trace larger
  than memory can be produced and re-consumed chunk by chunk.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.trace.io import read_table_npz, write_table_npz
from repro.trace.tables import (
    FunctionTable,
    PodTable,
    RequestTable,
    TraceBundle,
    dedupe_functions,
)


@dataclass(frozen=True)
class TraceChunk:
    """A time-contiguous slice of one region's request/pod streams."""

    region: str
    index: int
    start_s: float
    end_s: float
    requests: RequestTable
    pods: PodTable

    def __len__(self) -> int:
        return len(self.requests) + len(self.pods)


def iter_bundle_chunks(bundle: TraceBundle, chunk_s: float) -> Iterator[TraceChunk]:
    """Slice a bundle into time windows of ``chunk_s`` seconds.

    Requests and pods of the same wall-clock window travel together, so a
    consumer sees a consistent slice of platform time. Empty windows are
    skipped.
    """
    if chunk_s <= 0:
        raise ValueError("chunk_s must be positive")
    req_ts = bundle.requests.timestamps_s
    pod_ts = bundle.pods.timestamps_s
    if req_ts.size == 0 and pod_ts.size == 0:
        return
    t0 = min(req_ts.min() if req_ts.size else np.inf,
             pod_ts.min() if pod_ts.size else np.inf)
    t1 = max(req_ts.max() if req_ts.size else -np.inf,
             pod_ts.max() if pod_ts.size else -np.inf)
    start = float(np.floor(t0 / chunk_s) * chunk_s)
    # Requests are sorted by construction; pods are ordered per function, so
    # sort them once up front and slice both with searchsorted.
    pod_order = np.argsort(pod_ts, kind="stable")
    pods_sorted = bundle.pods.filter(pod_order)
    pod_ts_sorted = pod_ts[pod_order]
    index = 0
    while start <= t1:
        end = start + chunk_s
        r0, r1 = np.searchsorted(req_ts, [start, end], side="left")
        p0, p1 = np.searchsorted(pod_ts_sorted, [start, end], side="left")
        if r1 > r0 or p1 > p0:
            yield TraceChunk(
                region=bundle.region,
                index=index,
                start_s=start,
                end_s=end,
                requests=bundle.requests.filter(np.arange(r0, r1)),
                pods=pods_sorted.filter(np.arange(p0, p1)),
            )
            index += 1
        start = end


def stream_generation(
    plan, jobs: int = 1, channel: str = "pickle",
    shard_timeout_s: float | None = None,
    shard_retries: int | None = None,
    faults=None,
) -> Iterator[tuple[object, TraceBundle]]:
    """Execute a generation plan, yielding ``(ShardSpec, bundle)`` lazily.

    Bundles arrive in plan order; memory is bounded by the windows currently
    in flight rather than the full horizon. Callers that need whole regions
    can feed consecutive same-region bundles to
    :func:`~repro.runtime.merge.merge_bundles`. ``channel="shm"`` ships each
    window's arrays through shared memory instead of the pool's pickle pipe
    (see :class:`~repro.runtime.executor.ParallelExecutor`).
    ``shard_timeout_s``/``shard_retries``/``faults`` pass through to the
    executor's supervision layer (crash/hang recovery, fault injection).
    """
    from repro.runtime.executor import ParallelExecutor, run_generation_shard

    shards = list(plan)
    executor = ParallelExecutor(jobs=jobs, channel=channel,
                                shard_timeout_s=shard_timeout_s,
                                shard_retries=shard_retries, faults=faults)
    results = executor.imap(run_generation_shard, shards)
    for spec, bundle in zip(shards, results):
        yield spec, bundle


# --- chunk spill format ----------------------------------------------------

#: On-disk chunk-directory format version. Bump when the manifest layout or
#: part encoding changes incompatibly; readers refuse unknown versions.
CHUNK_FORMAT_VERSION = 1

_CHUNK_TABLES = (("requests", RequestTable), ("pods", PodTable))


class ChunkDirectoryError(ValueError):
    """A chunk directory is missing, truncated, or of an unknown version."""


def _load_manifest(directory: Path) -> dict:
    """Read and validate ``manifest.json``, with actionable errors."""
    path = directory / "manifest.json"
    if not path.is_file():
        raise ChunkDirectoryError(
            f"{directory} is not a chunk directory: no manifest.json "
            "(expected a directory written by ChunkedBundleWriter)"
        )
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ChunkDirectoryError(
            f"{path} is not valid JSON ({exc}); the manifest is corrupt — "
            "regenerate the chunk directory"
        ) from exc
    version = manifest.get("version")
    if version is None:
        raise ChunkDirectoryError(
            f"{path} carries no 'version' field; it predates the versioned "
            f"chunk format — regenerate the directory (current version: "
            f"{CHUNK_FORMAT_VERSION})"
        )
    if version != CHUNK_FORMAT_VERSION:
        raise ChunkDirectoryError(
            f"{path} has chunk-format version {version!r}; this build reads "
            f"only version {CHUNK_FORMAT_VERSION} — regenerate the directory "
            "or upgrade the library"
        )
    if not isinstance(manifest.get("parts"), list):
        raise ChunkDirectoryError(f"{path} lists no 'parts' array")
    return manifest


def read_chunk_manifest(directory: str | Path) -> dict:
    """Validated manifest of a chunk directory (region, parts, meta)."""
    return _load_manifest(Path(directory))


def load_chunk_functions(directory: str | Path) -> FunctionTable:
    """The (small, static) function table a chunk directory carries."""
    path = Path(directory) / "functions.npz"
    if not path.is_file():
        raise ChunkDirectoryError(
            f"{directory} has no functions.npz; the writer was never closed "
            "— call ChunkedBundleWriter.close() (or regenerate)"
        )
    return read_table_npz(FunctionTable, path)


class ChunkedBundleWriter:
    """Spills a region's stream to ``part-NNNNN.npz`` files plus a manifest.

    Append order defines chunk order. The function table (small, static) is
    written once into the manifest directory at :meth:`close` — pass it
    there explicitly when appending raw request/pod chunks via
    :meth:`append`; only :meth:`append_bundle` collects it automatically.
    """

    def __init__(self, directory: str | Path, region: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.region = region
        self._parts: list[dict] = []
        self._functions: list[FunctionTable] = []
        self._closed = False

    def append(
        self,
        requests: RequestTable,
        pods: PodTable,
        start_s: float | None = None,
        end_s: float | None = None,
    ) -> Path:
        """Write one chunk; returns the part path.

        ``start_s``/``end_s`` record the chunk's nominal window bounds in
        the manifest (pass :attr:`TraceChunk.start_s`/``end_s`` when
        spilling streamed chunks); omitted bounds fall back to the observed
        timestamp extremes on read.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        path = self.directory / f"part-{len(self._parts):05d}.npz"
        arrays: dict[str, np.ndarray] = {}
        for prefix, table in (("requests", requests), ("pods", pods)):
            for name in table.columns:
                arrays[f"{prefix}.{name}"] = table.column(name)
        np.savez_compressed(path, **arrays)
        self._parts.append(
            {"file": path.name, "start_s": start_s, "end_s": end_s}
        )
        return path

    def append_chunk(self, chunk: TraceChunk) -> Path:
        """Write a :class:`TraceChunk`, preserving its window bounds."""
        if chunk.region != self.region:
            raise ValueError(f"chunk region {chunk.region!r} != {self.region!r}")
        return self.append(
            chunk.requests, chunk.pods, start_s=chunk.start_s, end_s=chunk.end_s
        )

    def append_bundle(self, bundle: TraceBundle) -> Path:
        """Write a (window) bundle as one chunk, remembering its functions."""
        if bundle.region != self.region:
            raise ValueError(f"bundle region {bundle.region!r} != {self.region!r}")
        self._functions.append(bundle.functions)
        start_day = bundle.meta.get("start_day")
        days = bundle.meta.get("days")
        bounds: dict[str, float] = {}
        if start_day is not None and days is not None:
            bounds = {
                "start_s": float(start_day) * 86_400.0,
                "end_s": float(start_day + days) * 86_400.0,
            }
        return self.append(bundle.requests, bundle.pods, **bounds)

    def close(
        self, meta: dict | None = None, functions: FunctionTable | None = None
    ) -> Path:
        """Write the manifest (and the function-table union) and seal.

        ``functions`` joins whatever :meth:`append_bundle` collected; a
        writer fed only via :meth:`append` must pass it here or the saved
        directory will (deliberately) carry an empty function table.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        self._closed = True
        collected = self._functions + ([functions] if functions is not None else [])
        write_table_npz(dedupe_functions(collected), self.directory / "functions.npz")
        manifest = {
            "region": self.region,
            "format": "npz-chunks",
            "version": CHUNK_FORMAT_VERSION,
            "parts": self._parts,
            "meta": meta or {},
        }
        path = self.directory / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, default=str))
        return path


def _read_part(path: Path) -> tuple[RequestTable, PodTable]:
    if not path.is_file():
        raise ChunkDirectoryError(
            f"part file {path} is listed in the manifest but missing on "
            "disk; the chunk directory is incomplete — regenerate it"
        )
    try:
        with np.load(path) as data:
            tables = []
            for prefix, cls in _CHUNK_TABLES:
                tables.append(cls({
                    name: data[f"{prefix}.{name}"]
                    for name in cls.schema.column_names
                }))
    except ChunkDirectoryError:
        raise
    except KeyError as exc:
        raise ChunkDirectoryError(
            f"part file {path} lacks expected column {exc.args[0]!r}; it was "
            "not written by ChunkedBundleWriter or is from an incompatible "
            "version — regenerate the chunk directory"
        ) from exc
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ChunkDirectoryError(
            f"part file {path} is truncated or not a valid npz archive "
            f"({exc}); regenerate the chunk directory"
        ) from exc
    return tuple(tables)


def iter_saved_chunks(directory: str | Path) -> Iterator[TraceChunk]:
    """Lazily read chunks written by :class:`ChunkedBundleWriter`.

    Chunks carry the window bounds recorded at write time; parts written
    without bounds fall back to their observed timestamp extremes. Missing
    manifests, unknown format versions, and truncated part files raise
    :class:`ChunkDirectoryError` with a recovery hint.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory)
    for index, part in enumerate(manifest["parts"]):
        requests, pods = _read_part(directory / part["file"])
        start_s, end_s = part.get("start_s"), part.get("end_s")
        if start_s is None or end_s is None:
            req_ts = requests.timestamps_s
            pod_ts = pods.timestamps_s
            lows = [a.min() for a in (req_ts, pod_ts) if a.size]
            highs = [a.max() for a in (req_ts, pod_ts) if a.size]
            start_s = float(min(lows)) if lows else 0.0
            end_s = float(max(highs)) if highs else 0.0
        yield TraceChunk(
            region=manifest["region"],
            index=index,
            start_s=float(start_s),
            end_s=float(end_s),
            requests=requests,
            pods=pods,
        )


def load_chunked_bundle(directory: str | Path) -> TraceBundle:
    """Materialise a chunk directory back into one :class:`TraceBundle`.

    Raises :class:`ChunkDirectoryError` on missing/unversioned manifests or
    truncated parts (see :func:`iter_saved_chunks`).
    """
    directory = Path(directory)
    manifest = _load_manifest(directory)
    chunks = list(iter_saved_chunks(directory))
    requests = RequestTable.concat([c.requests for c in chunks]).sort_by("timestamp_ms")
    pods = PodTable.concat([c.pods for c in chunks]).sort_by("timestamp_ms")
    functions = load_chunk_functions(directory)
    return TraceBundle(
        region=manifest["region"],
        requests=requests,
        pods=pods,
        functions=functions,
        meta=dict(manifest.get("meta", {})),
    )

"""Trace import/export: CSV (optionally gzipped) and binary ``.npz``.

Exports anonymise identifier columns through :class:`~repro.trace.hashing.IdHasher`
when a hasher is supplied, mirroring the public release of the paper's dataset.
Round trips without a hasher are lossless (identifiers stay integers).

The ``.npz`` format stores each table's columns as compressed numpy arrays —
an order of magnitude faster to round-trip than CSV and the format sharded
workers (:mod:`repro.runtime`) use to spill chunks, where serialising
multi-million-row streams through text would dominate the run.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from pathlib import Path

import numpy as np

from repro.trace.hashing import IdHasher
from repro.trace.tables import ColumnTable, FunctionTable, PodTable, RequestTable, TraceBundle


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


def _export_columns(table: ColumnTable, hasher: IdHasher | None) -> dict[str, np.ndarray]:
    """Columns ready for export; identifier columns hashed when requested."""
    out: dict[str, np.ndarray] = {}
    for name in table.columns:
        col = table.column(name)
        if hasher is not None and name in table.schema.identifier_columns:
            col = hasher.hash_array(name, col)
        out[name] = col
    return out


def write_table_csv(
    table: ColumnTable, path: str | Path, hasher: IdHasher | None = None
) -> Path:
    """Write ``table`` to CSV (gzip if the path ends with ``.gz``).

    Returns the path written. Column order follows the schema.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = _export_columns(table, hasher)
    names = list(table.columns)
    with _open_text(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        cols = [columns[name] for name in names]
        for row in zip(*cols) if cols and len(table) else ():
            writer.writerow(row)
    return path


def read_table_csv(table_cls: type[ColumnTable], path: str | Path) -> ColumnTable:
    """Read a CSV produced by :func:`write_table_csv` (without a hasher).

    Hashed exports are not re-importable into integer ID columns by design —
    anonymisation is one-way, as in the public dataset.
    """
    path = Path(path)
    with _open_text(path, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return table_cls.empty()
        rows = list(reader)
    data: dict[str, np.ndarray] = {}
    for idx, name in enumerate(header):
        spec = table_cls.schema[name]
        raw = [row[idx] for row in rows]
        if np.dtype(spec.dtype).kind in "iu":
            data[name] = np.array([int(v) for v in raw], dtype=spec.dtype)
        elif np.dtype(spec.dtype).kind == "f":
            data[name] = np.array([float(v) for v in raw], dtype=spec.dtype)
        else:
            data[name] = np.array(raw, dtype=spec.dtype)
    return table_cls(data)


def read_anonymised_csv(
    table_cls: type[ColumnTable], path: str | Path
) -> dict[str, np.ndarray]:
    """Read a *hashed* export as raw columns (ids stay hex strings).

    Anonymised releases keep measures (timestamps, durations, usage) fully
    numeric while identifier columns hold one-way digests, so they cannot
    round-trip into the integer-typed tables. This reader returns a plain
    column dict: numeric dtypes for measure columns, strings for
    identifiers — exactly what an analysis of the public dataset gets.
    """
    path = Path(path)
    with _open_text(path, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return {}
        rows = list(reader)
    identifiers = set(table_cls.schema.identifier_columns)
    data: dict[str, np.ndarray] = {}
    for idx, name in enumerate(header):
        spec = table_cls.schema[name]
        raw = [row[idx] for row in rows]
        if name in identifiers:
            data[name] = np.array(raw, dtype="U32")
        elif np.dtype(spec.dtype).kind in "iu":
            data[name] = np.array([int(v) for v in raw], dtype=spec.dtype)
        elif np.dtype(spec.dtype).kind == "f":
            data[name] = np.array([float(v) for v in raw], dtype=spec.dtype)
        else:
            data[name] = np.array(raw, dtype=spec.dtype)
    return data


def write_table_npz(
    table: ColumnTable, path: str | Path, hasher: IdHasher | None = None
) -> Path:
    """Write ``table`` as a compressed ``.npz`` of per-column arrays."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = _export_columns(table, hasher)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **columns)
    return path


def read_table_npz(table_cls: type[ColumnTable], path: str | Path) -> ColumnTable:
    """Read an ``.npz`` produced by :func:`write_table_npz` without a hasher.

    As with CSV, hashed exports cannot round-trip into integer id columns;
    use :func:`read_anonymised_npz` for those.
    """
    with np.load(Path(path)) as data:
        return table_cls(
            {
                name: data[name].astype(table_cls.schema[name].dtype)
                for name in table_cls.schema.column_names
            }
        )


def read_anonymised_npz(
    table_cls: type[ColumnTable], path: str | Path
) -> dict[str, np.ndarray]:
    """Read a *hashed* ``.npz`` export as raw columns (ids stay hex strings)."""
    identifiers = set(table_cls.schema.identifier_columns)
    with np.load(Path(path)) as data:
        out: dict[str, np.ndarray] = {}
        for name in table_cls.schema.column_names:
            col = data[name]
            out[name] = col if name in identifiers else col.astype(
                table_cls.schema[name].dtype
            )
        return out


_BUNDLE_TABLES = (
    ("requests", RequestTable),
    ("pods", PodTable),
    ("functions", FunctionTable),
)


def save_bundle(
    bundle: TraceBundle,
    directory: str | Path,
    compress: bool = True,
    hasher: IdHasher | None = None,
    fmt: str = "csv",
) -> Path:
    """Persist a :class:`TraceBundle` as three tables plus a meta.json.

    ``fmt="csv"`` writes the release-style text tables (gzipped unless
    ``compress=False``); ``fmt="npz"`` writes the fast binary format.
    """
    if fmt not in ("csv", "npz"):
        raise ValueError(f"unknown bundle format {fmt!r}; use 'csv' or 'npz'")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if fmt == "npz":
        for name, _cls in _BUNDLE_TABLES:
            write_table_npz(getattr(bundle, name), directory / f"{name}.npz", hasher)
    else:
        suffix = ".csv.gz" if compress else ".csv"
        for name, _cls in _BUNDLE_TABLES:
            write_table_csv(getattr(bundle, name), directory / f"{name}{suffix}", hasher)
    meta = dict(bundle.meta)
    meta["region"] = bundle.region
    meta["anonymised"] = hasher is not None
    meta["format"] = fmt
    (directory / "meta.json").write_text(json.dumps(meta, indent=2, default=str))
    return directory


def load_bundle(directory: str | Path) -> TraceBundle:
    """Load a bundle saved by :func:`save_bundle` (non-anonymised only).

    The table format is auto-detected from the files present, so mixed
    CSV/npz dataset directories load transparently.
    """
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    if meta.get("anonymised"):
        raise ValueError("anonymised bundles cannot be loaded back (one-way hashing)")
    #: meta.json records the format of the *latest* save; honouring it keeps
    #: a re-export in another format from silently reading the stale files
    #: the earlier save left behind. Pre-format bundles fall back to
    #: auto-detection.
    declared = meta.get("format")
    tables = {}
    for name, cls in _BUNDLE_TABLES:
        npz = directory / f"{name}.npz"
        gz = directory / f"{name}.csv.gz"
        plain = directory / f"{name}.csv"
        use_npz = declared == "npz" if declared in ("csv", "npz") else npz.exists()
        if use_npz:
            tables[name] = read_table_npz(cls, npz)
        else:
            tables[name] = read_table_csv(cls, gz if gz.exists() else plain)
    region = meta.pop("region")
    meta.pop("anonymised", None)
    meta.pop("format", None)
    return TraceBundle(region=region, meta=meta, **tables)

"""Trace data model: the paper's Table 1 as columnar tables plus I/O.

The dataset in the paper comes from three monitoring streams:

* request-level monitoring (per-request rows, ms timestamps),
* pod-level monitoring (one row per cold start with component times in µs),
* function-level monitoring (static metadata: runtime, trigger, CPU-MEM).

This package reproduces that schema field-for-field (:mod:`repro.trace.schema`),
provides vectorised columnar containers (:mod:`repro.trace.tables`), stable
ID anonymisation (:mod:`repro.trace.hashing`), and CSV/``.npz`` round-trip
I/O plus JSONL export (:mod:`repro.trace.io`).
"""

from repro.trace.hashing import IdHasher, stable_hash
from repro.trace.schema import (
    FUNCTION_SCHEMA,
    POD_SCHEMA,
    REQUEST_SCHEMA,
    ColumnSpec,
    TableSchema,
)
from repro.trace.tables import (
    ColumnTable,
    FunctionTable,
    PodTable,
    RequestTable,
    TraceBundle,
)
from repro.trace.io import (
    read_table_csv,
    write_table_csv,
)

__all__ = [
    "ColumnSpec",
    "TableSchema",
    "REQUEST_SCHEMA",
    "POD_SCHEMA",
    "FUNCTION_SCHEMA",
    "ColumnTable",
    "RequestTable",
    "PodTable",
    "FunctionTable",
    "TraceBundle",
    "IdHasher",
    "stable_hash",
    "read_table_csv",
    "write_table_csv",
]

"""Versioned profile documents: JSON emission, validation, trace export.

A *profile* is the serialized form of one command's merged
:class:`~repro.obs.telemetry.Telemetry`:

``schema``
    The literal :data:`PROFILE_SCHEMA` string; consumers reject documents
    they do not understand.
``counters``
    Deterministic replay counters — identical for any ``--jobs`` and
    ``--channel`` (the property CI's ``profile-smoke`` asserts).
``volatile`` / ``timers`` / ``gauges`` / ``spans``
    Transport counters, accumulated wall-clock, memory high-water, and
    the phase-span list — informative, run-dependent.

:func:`write_chrome_trace` emits the same spans in Chrome trace-event
format (``{"traceEvents": [...]}``, ``ph="X"`` complete events with
microsecond timestamps) — load the file in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.telemetry import Telemetry

__all__ = [
    "PROFILE_SCHEMA",
    "build_profile",
    "dominant_cost_center",
    "render_report",
    "validate_profile",
    "write_chrome_trace",
    "write_profile",
]

#: Bump on any structural change; validators match it exactly.
PROFILE_SCHEMA = "repro-profile/1"

#: Required top-level keys and their types.
_REQUIRED: dict[str, type] = {
    "schema": str,
    "meta": dict,
    "counters": dict,
    "volatile": dict,
    "timers": dict,
    "gauges": dict,
    "spans": list,
}


def build_profile(tel: Telemetry, meta: dict | None = None) -> dict:
    """Freeze a telemetry into a schema-versioned, JSON-ready document.

    Keys are sorted so the deterministic sections serialize byte-identically
    across worker counts and channels.
    """
    return {
        "schema": PROFILE_SCHEMA,
        "meta": dict(meta or {}),
        "counters": {k: tel.counters[k] for k in sorted(tel.counters)},
        "volatile": {k: tel.volatile[k] for k in sorted(tel.volatile)},
        "timers": {k: round(tel.timers[k], 6) for k in sorted(tel.timers)},
        "gauges": {k: tel.gauges[k] for k in sorted(tel.gauges)},
        "spans": [
            {"name": name, "track": track,
             "t0_s": round(t0, 6), "dur_s": round(dur, 6)}
            for name, track, t0, dur in tel.spans
        ],
    }


def validate_profile(doc: dict) -> dict:
    """Check a profile document against the schema; return it or raise."""
    if not isinstance(doc, dict):
        raise ValueError(f"profile must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError(
            f"unsupported profile schema {doc.get('schema')!r} "
            f"(this build reads {PROFILE_SCHEMA!r})"
        )
    for key, expected in _REQUIRED.items():
        if key not in doc:
            raise ValueError(f"profile missing required key {key!r}")
        if not isinstance(doc[key], expected):
            raise ValueError(
                f"profile key {key!r} must be {expected.__name__}, "
                f"got {type(doc[key]).__name__}"
            )
    for section in ("counters", "volatile", "timers", "gauges"):
        for name, value in doc[section].items():
            if not isinstance(name, str) or isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                raise ValueError(
                    f"profile {section}[{name!r}] must be numeric, "
                    f"got {value!r}"
                )
    for span in doc["spans"]:
        if not isinstance(span, dict) or not {"name", "track", "t0_s",
                                              "dur_s"} <= span.keys():
            raise ValueError(f"malformed span entry: {span!r}")
    return doc


def write_profile(doc: dict, path) -> Path:
    """Validate and write a profile document; returns the path."""
    path = Path(path)
    validate_profile(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return path


def write_chrome_trace(doc: dict, path) -> Path:
    """Export a profile's spans as Chrome trace events (Perfetto-loadable)."""
    tracks = sorted({span["track"] for span in doc["spans"]})
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    events = [
        {
            "name": span["name"],
            "cat": "repro",
            "ph": "X",
            "ts": round(span["t0_s"] * 1e6, 3),
            "dur": round(span["dur_s"] * 1e6, 3),
            "pid": 1,
            "tid": tids[span["track"]],
        }
        for span in doc["spans"]
    ]
    events.extend(
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": track}}
        for track, tid in tids.items()
    )
    path = Path(path)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}) + "\n")
    return path


def dominant_cost_center(doc: dict) -> tuple[str, float] | None:
    """The timer label with the largest accumulated wall-clock share.

    CLI/shard wrapper spans aggregate everything beneath them, so they are
    excluded; what remains are the leaf phase timers the engines record.
    """
    leaves: dict[str, float] = {}
    for name, secs in doc["timers"].items():
        # Worker spans nest under the runtime/shard wrapper; fold them back
        # onto their engine-level label so shards aggregate.
        if name.startswith("runtime/shard/"):
            name = name[len("runtime/shard/"):]
        if name.startswith(("cli/", "runtime/")):
            continue
        leaves[name] = leaves.get(name, 0.0) + secs
    if not leaves:
        return None
    name = max(sorted(leaves), key=lambda k: leaves[k])
    return name, leaves[name]


def _render_tick_section(counters: dict) -> list[str]:
    """Coupled-policy schedule summary from the ``tick/*`` counters: ticks
    the vector engine decided in closed form, tick-machine steps (either
    engine), and outcome-fed runs ``engine="vector"`` handed to the event
    engine (see ``mitigation.evaluator``)."""
    rows = [
        ("ticks decided in closed form", counters.get("tick/horizon_ticks", 0)),
        ("ticks stepped", counters.get("tick/steps", 0)),
        ("runs dispatched to event", counters.get("tick/event_dispatches", 0)),
    ]
    if not any(count for _, count in rows):
        return []
    lines = ["tick schedule (coupled policies):"]
    for label, count in rows:
        lines.append(f"  {label:<28}  {int(count):>14,}")
    return lines


def _render_faults_section(volatile: dict) -> list[str]:
    """Supervision summary from the ``runtime/faults/*`` counters the
    fault-tolerant executor emits (see ``runtime.executor``). All volatile:
    how often recovery machinery fired depends on jobs/channel/timing."""
    rows = [
        ("shard retries", "runtime/faults/retries"),
        ("shard timeouts", "runtime/faults/timeouts"),
        ("pool rebuilds", "runtime/faults/pool_rebuilds"),
        ("shm blocks reaped", "runtime/faults/shm_reaped"),
        ("shm->pickle fallbacks", "runtime/faults/channel_fallbacks"),
        ("pool->serial fallbacks", "runtime/faults/serial_fallbacks"),
        ("cleanup errors", "runtime/cleanup_errors"),
    ]
    if not any(volatile.get(key) for _, key in rows):
        return []
    lines = ["fault tolerance (supervised shard recovery):"]
    for label, key in rows:
        count = volatile.get(key, 0)
        if count:
            lines.append(f"  {label:<22}  {int(count):>14,}")
    return lines


def render_report(doc: dict) -> str:
    """Human-readable profile summary (the ``repro profile`` subcommand)."""
    lines: list[str] = []
    meta = doc.get("meta", {})
    header = meta.get("command") or meta.get("label") or "profile"
    lines.append(f"profile: {header}  [{doc['schema']}]")
    for key in sorted(meta):
        if key not in ("command",):
            lines.append(f"  {key}: {meta[key]}")
    dominant = dominant_cost_center(doc)
    if dominant is not None:
        lines.append(f"dominant cost center: {dominant[0]} "
                     f"({dominant[1]:.3f}s accumulated)")
    lines.extend(_render_tick_section(doc["counters"]))
    lines.extend(_render_faults_section(doc["volatile"]))
    if doc["counters"]:
        lines.append("counters (deterministic):")
        width = max(len(k) for k in doc["counters"])
        for name in sorted(doc["counters"]):
            lines.append(f"  {name:<{width}}  {doc['counters'][name]:>14,}")
    if doc["timers"]:
        lines.append("timers (accumulated wall seconds):")
        width = max(len(k) for k in doc["timers"])
        for name, secs in sorted(doc["timers"].items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"  {name:<{width}}  {secs:>12.4f}")
    if doc["volatile"]:
        lines.append("volatile (transport, jobs/channel-dependent):")
        width = max(len(k) for k in doc["volatile"])
        for name in sorted(doc["volatile"]):
            value = doc["volatile"][name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name:<{width}}  {shown:>14,}")
    if doc["gauges"]:
        lines.append("gauges (high water):")
        width = max(len(k) for k in doc["gauges"])
        for name in sorted(doc["gauges"]):
            lines.append(f"  {name:<{width}}  {doc['gauges'][name]:>14,.0f}")
    lines.append(f"spans: {len(doc['spans'])}")
    return "\n".join(lines)

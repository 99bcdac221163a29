"""Mergeable telemetry: counters, gauges, phase spans, memory high-water.

The observability substrate for both replay engines, the sharded runtime,
and the CLI. Design constraints, in order:

1. **Zero overhead when disabled.** :func:`get_telemetry` returns a
   module-level :class:`NullTelemetry` singleton whose ``enabled`` is
   ``False``; hot loops hoist ``tel = get_telemetry()`` once and guard
   batched flushes with ``if tel.enabled``. Instrumentation sites count
   *regime transitions* (tick-machine steps, episode entries, speculation
   blocks), never per-arrival work, so the disabled cost is a handful of
   local integer adds per function replay.

2. **Mergeable across shards.** A :class:`Telemetry` object is an
   associative monoid: deterministic counters add, gauges take the max,
   timers add, spans concatenate. Worker-side telemetry rides back to the
   parent inside a :class:`TelemetryEnvelope` over either result channel
   (both carry any picklable object, see :mod:`repro.runtime.merge`), and
   folds in plan order — so the ``counters`` section is bit-identical for
   any ``--jobs``/``--channel``.

3. **Deterministic vs. volatile split.** ``counters`` hold replay facts
   that depend only on the workload and engine (tick-machine steps,
   episode entries, speculation blocks); ``volatile`` holds transport
   facts that legitimately depend on ``--jobs``/``--channel`` (shm blocks parked,
   pickle payload bytes); ``timers``/``gauges``/``spans`` hold wall-clock
   and memory readings. Equality tests and CI compare ``counters`` only.

   The supervised executor's recovery counters are volatile by the same
   rule — how often machinery fired depends on jobs/channel/timing, never
   on results. The ``runtime/faults/*`` family: ``retries`` (shard
   re-executions), ``timeouts`` (heartbeat-declared hangs),
   ``pool_rebuilds`` (broken pools replaced), ``shm_reaped`` (orphaned
   shared-memory blocks unlinked by the parent ledger),
   ``channel_fallbacks`` (shards degraded shm->pickle),
   ``serial_fallbacks`` (runs degraded pool->serial); plus
   ``runtime/cleanup_errors`` (discard failures during teardown, counted
   instead of silently swallowed).

Span times use :func:`time.perf_counter` (monotonic); span ``t0`` is
relative to the owning telemetry's epoch, and each telemetry carries a
``track`` label (``main`` in the parent, ``pid<N>`` in workers) that maps
to a Chrome trace-event ``tid`` on export.
"""

from __future__ import annotations

import time
from typing import Iterable

__all__ = [
    "NullTelemetry",
    "Telemetry",
    "TelemetryEnvelope",
    "disable",
    "enable",
    "get_telemetry",
    "profiled",
]


class _SpanHandle:
    """Yielded by ``span()``; ``elapsed`` is filled when the block exits."""

    __slots__ = ("elapsed",)

    def __init__(self) -> None:
        self.elapsed = 0.0


class _Span:
    """An open span; records itself on the owning telemetry at exit."""

    __slots__ = ("_tel", "_name", "_t0", "_handle")

    def __init__(self, tel: "Telemetry", name: str):
        self._tel = tel
        self._name = name

    def __enter__(self) -> _SpanHandle:
        tel = self._tel
        tel._stack.append(self._name)
        self._handle = _SpanHandle()
        self._t0 = time.perf_counter()
        return self._handle

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter() - self._t0
        tel = self._tel
        path = "/".join(tel._stack)
        tel._stack.pop()
        self._handle.elapsed = dur
        tel.spans.append((path, tel.track, self._t0 - tel._epoch, dur))
        tel.timers[path] = tel.timers.get(path, 0.0) + dur
        return None


class _NullSpan:
    """Measures elapsed time (the CLI prints it) but records nothing."""

    __slots__ = ("_t0", "_handle")

    def __enter__(self) -> _SpanHandle:
        self._handle = _SpanHandle()
        self._t0 = time.perf_counter()
        return self._handle

    def __exit__(self, *exc) -> None:
        self._handle.elapsed = time.perf_counter() - self._t0
        return None


class Telemetry:
    """One process's (or one shard's) telemetry accumulator."""

    enabled = True

    __slots__ = ("track", "counters", "volatile", "gauges", "timers",
                 "spans", "_stack", "_epoch")

    def __init__(self, track: str = "main"):
        self.track = track
        #: Deterministic replay counters (jobs/channel-invariant).
        self.counters: dict[str, int] = {}
        #: Transport / runtime counters (legitimately jobs/channel-dependent).
        self.volatile: dict[str, float] = {}
        #: High-water readings, merged by max (e.g. ``mem/max_rss_kb``).
        self.gauges: dict[str, float] = {}
        #: Accumulated wall-clock seconds per label (non-deterministic).
        self.timers: dict[str, float] = {}
        #: Completed spans: ``(path, track, t0_rel_s, dur_s)``.
        self.spans: list[tuple[str, str, float, float]] = []
        self._stack: list[str] = []
        self._epoch = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def count_many(self, pairs: Iterable[tuple[str, int]]) -> None:
        counters = self.counters
        for name, n in pairs:
            if n:
                counters[name] = counters.get(name, 0) + n

    def vcount(self, name: str, n: float = 1) -> None:
        self.volatile[name] = self.volatile.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def time_add(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def span(self, name: str) -> _Span:
        """Hierarchical phase span (``perf_counter``-based) as a context
        manager; nested spans record slash-joined paths."""
        return _Span(self, name)

    def sample_memory(self) -> None:
        """Record this process's max-RSS high water (kB, Linux units)."""
        try:
            import resource

            rss_kb = float(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except Exception:  # pragma: no cover - non-POSIX fallback
            return
        self.gauge_max(f"mem/max_rss_kb[{self.track}]", rss_kb)

    # -- merge / transport --------------------------------------------------

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold ``other`` in: counters/volatile/timers add, gauges max,
        spans concatenate. Associative and order-insensitive for every
        section except span order (which only affects trace display)."""
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in other.volatile.items():
            self.volatile[key] = self.volatile.get(key, 0) + value
        for key, value in other.timers.items():
            self.timers[key] = self.timers.get(key, 0.0) + value
        for key, value in other.gauges.items():
            if value > self.gauges.get(key, float("-inf")):
                self.gauges[key] = value
        self.spans.extend(other.spans)
        return self

    def snapshot(self) -> "Telemetry":
        """A detached copy, safe to ship across a process boundary."""
        out = Telemetry(track=self.track)
        out.counters = dict(self.counters)
        out.volatile = dict(self.volatile)
        out.gauges = dict(self.gauges)
        out.timers = dict(self.timers)
        out.spans = list(self.spans)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Telemetry(track={self.track!r}, "
                f"{len(self.counters)} counters, {len(self.spans)} spans)")


class NullTelemetry:
    """The disabled singleton: every method is a no-op, ``enabled`` is
    ``False`` so hot paths can skip batched flushes entirely."""

    enabled = False

    __slots__ = ()

    def count(self, name: str, n: int = 1) -> None:
        pass

    def count_many(self, pairs) -> None:
        pass

    def vcount(self, name: str, n: float = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def time_add(self, name: str, seconds: float) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NullSpan()

    def sample_memory(self) -> None:
        pass


NULL = NullTelemetry()

_active: Telemetry | None = None


def get_telemetry():
    """The active :class:`Telemetry`, or the null singleton when disabled."""
    active = _active
    return active if active is not None else NULL


def enable(track: str = "main") -> Telemetry:
    """Activate a fresh telemetry for this process and return it."""
    global _active
    _active = Telemetry(track=track)
    return _active


def disable() -> None:
    """Deactivate telemetry; :func:`get_telemetry` returns the null again."""
    global _active
    _active = None


class profiled:
    """``with profiled() as tel:`` — enable fresh, disable on exit.

    The test/benchmark helper; the CLI manages enable/disable explicitly
    around command dispatch.
    """

    def __enter__(self) -> Telemetry:
        return enable()

    def __exit__(self, *exc) -> None:
        disable()
        return None


class TelemetryEnvelope:
    """Worker-to-parent carrier: one shard's result plus its telemetry.

    ``result`` may itself be a :class:`~repro.runtime.merge.ShmResult`
    handle: the executor parks the payload *before* wrapping, so shm park
    costs are counted in the shard's telemetry and a profiled
    ``--channel shm`` run still moves payload arrays through shared
    memory. The envelope pickles small either way.
    """

    __slots__ = ("result", "telemetry")

    def __init__(self, result, telemetry: Telemetry):
        self.result = result
        self.telemetry = telemetry

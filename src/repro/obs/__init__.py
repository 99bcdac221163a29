"""Observability: zero-overhead-when-disabled, shard-mergeable telemetry.

* :mod:`~repro.obs.telemetry` — counters / gauges / ``perf_counter``
  phase spans / memory high-water, with a null singleton when disabled
  and an associative :meth:`~repro.obs.telemetry.Telemetry.merge` so
  worker-side readings fold back deterministically over either result
  channel;
* :mod:`~repro.obs.profile` — the versioned JSON profile document
  (``repro-profile/1``), its validator, the ``repro profile`` report
  renderer, and Chrome trace-event (Perfetto) span export.

Enable with ``--profile[=PATH]`` on any CLI command, or
programmatically::

    from repro.obs import profiled, build_profile
    with profiled() as tel:
        evaluate_policies("R1", ["baseline"], jobs=4)
    print(build_profile(tel)["counters"])
"""

from repro.obs.profile import (
    PROFILE_SCHEMA,
    build_profile,
    dominant_cost_center,
    render_report,
    validate_profile,
    write_chrome_trace,
    write_profile,
)
from repro.obs.telemetry import (
    NullTelemetry,
    Telemetry,
    TelemetryEnvelope,
    disable,
    enable,
    get_telemetry,
    profiled,
)

__all__ = [
    "PROFILE_SCHEMA",
    "NullTelemetry",
    "Telemetry",
    "TelemetryEnvelope",
    "build_profile",
    "disable",
    "dominant_cost_center",
    "enable",
    "get_telemetry",
    "profiled",
    "render_report",
    "validate_profile",
    "write_chrome_trace",
    "write_profile",
]

"""Function specification: everything the platform knows about one function.

A :class:`FunctionSpec` combines the function-level metadata of Table 1
(runtime, trigger type, CPU-MEM configuration) with the behavioural
parameters the generator needs (arrival process, execution time, resource
usage, code/dependency footprint).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workload.catalog import (
    ResourceConfig,
    Runtime,
    Trigger,
    aggregate_trigger_label,
    combo_label,
    primary_trigger,
)


@dataclass(frozen=True)
class FunctionSpec:
    """Static description of one deployed function.

    Attributes:
        function_id: internal integer identifier (hashed on trace export).
        user_id: owning user's internal identifier.
        runtime: runtime language (or Custom/http/unknown).
        triggers: the function's trigger bindings; most functions have one,
            a minority bind several (paper: APIG-S + TIMER-A is 13 %).
        config: CPU-MEM configuration of the function's pods.
        mean_exec_s: mean request execution time in seconds.
        cpu_millicores: typical CPU usage while executing, in millicores.
        memory_mb: typical memory usage while executing, in MB.
        arrival_kind: ``"poisson"``, ``"timer"``, or ``"bursty"``; selects
            the arrival process used by the generator.
        daily_rate: mean requests per day (Poisson/bursty processes).
        timer_period_s: firing period for timer functions, seconds.
        burst_factor: peak rate multiplier for bursty functions.
        has_dependencies: whether the function ships dependency layers
            (functions without layers log a zero deploy-dependency time).
        code_size_mb: compressed code package size (drives deploy-code time).
        dep_size_mb: dependency layer size (drives deploy-dependency time).
        session_mean_requests: mean requests per invocation session; user-
            driven triggers arrive in short correlated bursts, which is what
            gives pods useful lifetimes beyond a single request (§4.5).
        session_duration_s: median session window in seconds.
        concurrency: per-pod concurrent request limit (user-set).
        single_cluster: True if the function is pinned to one cluster
            instead of being balanced across the region's clusters.
        workflow_children: function_ids invoked downstream by this function
            (workflow trigger chains).
    """

    function_id: int
    user_id: int
    runtime: Runtime
    triggers: tuple[Trigger, ...]
    config: ResourceConfig
    mean_exec_s: float
    cpu_millicores: float
    memory_mb: float
    arrival_kind: str = "poisson"
    daily_rate: float = 10.0
    timer_period_s: float = 3600.0
    burst_factor: float = 1.0
    has_dependencies: bool = False
    code_size_mb: float = 5.0
    dep_size_mb: float = 0.0
    session_mean_requests: float = 1.0
    session_duration_s: float = 20.0
    concurrency: int = 1
    single_cluster: bool = False
    workflow_children: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.mean_exec_s <= 0:
            raise ValueError("mean_exec_s must be positive")
        if self.daily_rate < 0:
            raise ValueError("daily_rate must be non-negative")
        if self.arrival_kind not in ("poisson", "timer", "bursty"):
            raise ValueError(f"unknown arrival_kind: {self.arrival_kind!r}")
        if self.arrival_kind == "timer" and self.timer_period_s <= 0:
            raise ValueError("timer_period_s must be positive for timers")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.session_mean_requests < 1.0:
            raise ValueError("session_mean_requests must be >= 1")
        if self.session_duration_s <= 0:
            raise ValueError("session_duration_s must be positive")
        if self.has_dependencies and self.dep_size_mb <= 0:
            raise ValueError("dependency-bearing functions need dep_size_mb > 0")

    @property
    def primary_trigger(self) -> Trigger:
        """The dominant trigger binding (synchronous bindings win)."""
        return primary_trigger(self.triggers)

    @property
    def trigger_label(self) -> str:
        """Aggregated analysis label of the primary trigger (e.g. TIMER-A)."""
        return aggregate_trigger_label(self.primary_trigger)

    @property
    def trigger_combo(self) -> str:
        """Full combo label as stored in the function-level stream."""
        return combo_label(self.triggers)

    @property
    def is_timer_driven(self) -> bool:
        return self.arrival_kind == "timer"

    @property
    def synchronous(self) -> bool:
        """Whether the primary trigger invokes synchronously."""
        return self.primary_trigger.synchronous

    @property
    def expected_requests(self) -> float:
        """Expected requests per day under the nominal rate."""
        if self.arrival_kind == "timer":
            return 86_400.0 / self.timer_period_s
        return self.daily_rate

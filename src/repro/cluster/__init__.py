"""Platform substrate: keep-alive policies and the vectorised keep-alive
lifecycle reconstruction used by the trace generator."""

from repro.cluster.lifecycle import (
    FixedKeepAlive,
    KeepAlivePolicy,
    PodLifecycle,
    reconstruct_function_pods,
)

__all__ = [
    "KeepAlivePolicy",
    "FixedKeepAlive",
    "PodLifecycle",
    "reconstruct_function_pods",
]

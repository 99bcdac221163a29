"""Simulation substrate: deterministic RNG streams and cold-start latency
models."""

from repro.sim.rng import RngFactory
from repro.sim.latency import ComponentParams, LatencyModel

__all__ = [
    "RngFactory",
    "ComponentParams",
    "LatencyModel",
]

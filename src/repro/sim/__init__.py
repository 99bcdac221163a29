"""Simulation substrate: deterministic RNG streams and cold-start latency
models."""

from repro.sim.rng import RngFactory
from repro.sim.latency import ColdStartSampler, ComponentParams, LatencyModel

__all__ = [
    "RngFactory",
    "ColdStartSampler",
    "ComponentParams",
    "LatencyModel",
]

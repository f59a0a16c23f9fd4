"""Chiplet-based system topologies and fault injection."""

from repro.topology.chiplet import (
    SystemTopology,
    baseline_system,
    build_heterogeneous_system,
    build_system,
    large_system,
    star_system,
)
from repro.topology.faults import inject_faults
from repro.topology.registry import get_topology, topology_names, topology_params

__all__ = [
    "SystemTopology",
    "baseline_system",
    "build_heterogeneous_system",
    "build_system",
    "get_topology",
    "inject_faults",
    "large_system",
    "star_system",
    "topology_names",
    "topology_params",
]

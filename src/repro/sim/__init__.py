"""Simulation driving: the run loop, sweep results, Table II presets."""

from repro.schemes.registry import make_scheme
from repro.sim.experiment import SweepPoint, saturation_throughput
from repro.sim.presets import TABLE_II, table2_config, table2_upp_config
from repro.sim.simulator import DeadlockError, Simulation, SimulationResult

__all__ = [
    "DeadlockError",
    "Simulation",
    "SimulationResult",
    "SweepPoint",
    "TABLE_II",
    "make_scheme",
    "saturation_throughput",
    "table2_config",
    "table2_upp_config",
]

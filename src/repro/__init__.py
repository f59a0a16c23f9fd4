"""repro — a reproduction of *Upward Packet Popup for Deadlock Freedom in
Modular Chiplet-Based Systems* (HPCA 2022).

The package provides a cycle-level chiplet-NoC simulator, the UPP deadlock
recovery framework, the composable-routing and remote-control baselines,
synthetic and coherence traffic, and the experiment harnesses that
regenerate every figure of the paper's evaluation.

Quickstart (the :mod:`repro.api` facade is the orchestration surface)::

    from repro import api

    sim = api.build_simulation("baseline", scheme="upp")
    from repro import install_synthetic_traffic
    install_synthetic_traffic(sim.network, "uniform_random", rate=0.05)
    result = sim.run(warmup=1000, measure=5000)
    print(result.summary)

    # or, one call per figure-style experiment (parallel + cached):
    points = api.run_sweep("baseline", scheme="upp",
                           rates=(0.01, 0.03, 0.05), jobs=4)
"""

from repro import api
from repro.api import build_simulation, load_preset, make_runner
from repro.core.config import UPPConfig
from repro.noc.config import NocConfig
from repro.noc.flit import FlitKind, Packet, Port
from repro.noc.network import Network
from repro.schemes.composable import ComposableRoutingScheme
from repro.schemes.none import UnprotectedScheme
from repro.schemes.registry import make_scheme
from repro.schemes.remote_control import RemoteControlScheme
from repro.schemes.upp import UPPScheme
from repro.sim.experiment import saturation_throughput
from repro.sim.presets import table2_config, table2_upp_config
from repro.sim.simulator import DeadlockError, Simulation, SimulationResult
from repro.topology.chiplet import (
    SystemTopology,
    baseline_system,
    build_heterogeneous_system,
    build_system,
    large_system,
    star_system,
)
from repro.topology.faults import inject_faults
from repro.traffic.coherence import install_coherence_workload, workload_finished
from repro.traffic.synthetic import PATTERNS, install_synthetic_traffic
from repro.traffic.workloads import ALL_WORKLOADS, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "ComposableRoutingScheme",
    "api",
    "build_simulation",
    "load_preset",
    "make_runner",
    "DeadlockError",
    "FlitKind",
    "Network",
    "NocConfig",
    "PATTERNS",
    "Packet",
    "Port",
    "RemoteControlScheme",
    "Simulation",
    "SimulationResult",
    "SystemTopology",
    "UPPConfig",
    "UPPScheme",
    "UnprotectedScheme",
    "baseline_system",
    "build_heterogeneous_system",
    "build_system",
    "get_workload",
    "inject_faults",
    "install_coherence_workload",
    "install_synthetic_traffic",
    "large_system",
    "make_scheme",
    "saturation_throughput",
    "star_system",
    "table2_config",
    "table2_upp_config",
    "workload_finished",
    "workload_names",
]

"""Named topology factories.

The experiment runner ships work to subprocess workers as plain JSON-able
specs, so a sweep point cannot carry a topology *object* — it carries a
registered topology *name* that the worker resolves back to a factory.
The registry also gives the CLI its ``--topology`` choices.

Factories must be zero-argument and deterministic (same topology every
call); parameterised builders register a closure per named variant.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.topology.chiplet import (
    SystemTopology,
    baseline_system,
    large_system,
    mc_2x1_system,
    mc_2x2_system,
)

TopologyFactory = Callable[[], SystemTopology]

_TOPOLOGIES: Dict[str, TopologyFactory] = {}


def register_topology(name: str, factory: TopologyFactory) -> TopologyFactory:
    """Register a zero-argument topology factory under ``name``."""
    if name in _TOPOLOGIES:
        raise ValueError(f"topology {name!r} is already registered")
    _TOPOLOGIES[name] = factory
    return factory


def get_topology(name: str) -> TopologyFactory:
    """Factory for a registered topology name."""
    try:
        return _TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; registered topologies: "
            f"{', '.join(topology_names())}"
        ) from None


def topology_names() -> Tuple[str, ...]:
    """Every registered topology name, in registration order."""
    return tuple(_TOPOLOGIES)


def topology_name_of(factory: TopologyFactory) -> Optional[str]:
    """Reverse lookup by factory identity (None when unregistered).

    Experiment harnesses accept arbitrary callables for ad-hoc topologies;
    only registered ones can be fanned out to workers or cached, so the
    harness probes here and runs an unregistered one on a serial,
    uncached runner instead.
    """
    for name, registered in _TOPOLOGIES.items():
        if registered is factory:
            return name
    return None


register_topology("baseline", baseline_system)
register_topology("large", large_system)
register_topology("mc-2x1", mc_2x1_system)
register_topology("mc-2x2", mc_2x2_system)

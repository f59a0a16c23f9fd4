"""Topologies as parameters: a sweep point is pickled to workers and
content-addressed, so it carries its topology as a parameter dict that the
worker builds: ``build_system``'s arguments plus ``faults`` link pairs
failed by ``inject_faults`` drawing from ``random.Random(fault_seed)``
(Fig. 11).  The named systems are aliases of such dicts.
"""

from __future__ import annotations

import functools
import random
from inspect import signature
from typing import Callable, Dict, Mapping, Tuple, Union

from repro.topology.chiplet import PRESET_PARAMS, SystemTopology, build_system
from repro.topology.faults import inject_faults

#: a topology argument: an alias or a (partial) parameter dict.
TopologyLike = Union[str, Mapping[str, object]]


def _nested(value, sequence=list):
    """``value`` with its lists and tuples as ``sequence``, recursively."""
    if isinstance(value, (list, tuple)):
        return sequence([_nested(item, sequence) for item in value])
    return value


#: every parameter at its default: ``build_system``'s (the paper's
#: baseline system) and no faults.
DEFAULT_PARAMS: Dict[str, object] = {
    **{p.name: _nested(p.default) for p in signature(build_system).parameters.values()},
    "faults": 0,
    "fault_seed": 0,
}


def topology_params(topology: TopologyLike) -> Dict[str, object]:
    """The canonical parameter dict of an alias or a (partial) dict:
    defaults filled, tuples as lists, ``boundary_per_chiplet`` the count
    of explicit ``boundary_coords`` and ``fault_seed`` 0 without faults,
    so equal topologies give equal dicts (and cache keys).  Values are
    checked with the spec, by :func:`repro.exp.schemas.validate_job`."""
    if isinstance(topology, str):
        try:
            topology = TOPOLOGY_ALIASES[topology]
        except KeyError:
            raise ValueError(
                f"unknown topology {topology!r}; aliases: "
                f"{', '.join(topology_names())}"
            ) from None
    elif not isinstance(topology, Mapping):
        raise TypeError(
            f"a topology is an alias ({', '.join(topology_names())}) or a "
            "parameter dict such as {'boundary_per_chiplet': 2} or "
            f"{{'faults': 5, 'fault_seed': 11}}, not {type(topology).__name__}"
        )
    params = {**DEFAULT_PARAMS, **{k: _nested(v) for k, v in topology.items()}}
    if isinstance(params["boundary_coords"], list):
        params["boundary_per_chiplet"] = len(params["boundary_coords"])
    if params["faults"] == 0:
        params["fault_seed"] = DEFAULT_PARAMS["fault_seed"]
    return params


#: alias -> canonical parameter dict of each named system.
TOPOLOGY_ALIASES: Dict[str, Dict[str, object]] = {
    name: topology_params(params) for name, params in PRESET_PARAMS.items()
}


def _build(params: Mapping[str, object]) -> SystemTopology:
    args = {name: _nested(value, tuple) for name, value in params.items()}
    faults, fault_seed = args.pop("faults"), args.pop("fault_seed")
    topo = build_system(**args)
    if faults > 0:
        inject_faults(topo, faults, random.Random(fault_seed))
    return topo


def get_topology(topology: TopologyLike) -> Callable[[], SystemTopology]:
    """Zero-argument factory building an alias or a parameter dict."""
    return functools.partial(_build, topology_params(topology))


def topology_names() -> Tuple[str, ...]:
    """Every topology alias."""
    return tuple(TOPOLOGY_ALIASES)


def topology_label(params: Mapping[str, object]) -> str:
    """A canonical dict's alias, else its non-default parameters:
    ``system(boundary_per_chiplet=2)``, ``system(faults=5, fault_seed=11)``."""
    for name, alias in TOPOLOGY_ALIASES.items():
        if params == alias:
            return name
    changed = ", ".join(
        f"{name}={params[name]}"
        for name, default in DEFAULT_PARAMS.items()
        if params.get(name, default) != default
    )
    return f"system({changed})"

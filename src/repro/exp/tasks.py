"""Experiment point specs: JSON-able task descriptions and their executor.

A *spec* is a plain dict fully describing one simulation point — topology
parameters, canonical config dicts (plus their content fingerprints), scheme,
traffic and window parameters.  Specs cross process boundaries (the
runner pickles them to workers) and are the hashed payload of the result
cache, so everything in them must be canonical and serialisable; no live
objects, no callables.

:func:`execute_spec` is the single worker entry point: it rebuilds the
simulation from the spec and returns a plain-dict result.  Because every
point constructs a fresh seeded network, executing a spec in a worker
process is bit-identical to executing it inline — the property the
parallel-vs-serial regression tests assert.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Mapping, Optional

from repro.core.config import UPPConfig
from repro.exp.schemas import JOB_SCHEMA, validate_job
from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme, spec_upp_config
from repro.topology.registry import TopologyLike, get_topology, topology_params
from repro.traffic.coherence import WorkloadProfile


def _spec(
    kind: str, topology: TopologyLike, cfg: NocConfig, scheme: str,
    upp_cfg: Optional[UPPConfig],
) -> Dict[str, object]:
    """The fields every kind's spec shares."""
    upp_cfg = spec_upp_config(scheme, upp_cfg)
    return {
        "schema": JOB_SCHEMA,
        "kind": kind,
        "topology": topology_params(topology),
        "cfg": cfg.to_dict(),
        "cfg_fingerprint": cfg.fingerprint(),
        "scheme": scheme,
        "upp_cfg": upp_cfg.to_dict() if upp_cfg is not None else None,
        "upp_cfg_fingerprint": (
            upp_cfg.fingerprint() if upp_cfg is not None else None
        ),
    }


def sweep_point_spec(
    topology: TopologyLike,
    cfg: NocConfig,
    scheme: str,
    pattern: str,
    rate: float,
    warmup: int,
    measure: int,
    upp_cfg: Optional[UPPConfig] = None,
    allow_deadlock: bool = False,
) -> Dict[str, object]:
    """One open-loop injection-rate point (the unit of a latency sweep)."""
    return {
        **_spec("sweep_point", topology, cfg, scheme, upp_cfg),
        "pattern": pattern,
        "rate": rate,
        "warmup": warmup,
        "measure": measure,
        "allow_deadlock": allow_deadlock,
    }


def workload_spec(
    topology: TopologyLike,
    cfg: NocConfig,
    scheme: str,
    profile: WorkloadProfile,
    upp_cfg: Optional[UPPConfig] = None,
    max_cycles: int = 400_000,
) -> Dict[str, object]:
    """One closed-loop coherence workload run (Figs. 8, 12, 15)."""
    return {
        **_spec("workload", topology, cfg, scheme, upp_cfg),
        "profile": dataclasses.asdict(profile),
        "max_cycles": max_cycles,
    }


# --------------------------------------------------------------------- #
# Execution (runs inline or inside a worker process).


def _simulation(spec: Mapping):
    """A fresh simulation of the spec's topology, configs and scheme."""
    from repro.sim.simulator import Simulation

    upp_cfg = spec["upp_cfg"]
    upp_cfg = UPPConfig.from_dict(upp_cfg) if upp_cfg is not None else None
    return Simulation(
        get_topology(spec["topology"])(),
        NocConfig.from_dict(spec["cfg"]),
        make_scheme(spec["scheme"], upp_cfg),
    )


def _execute_sweep_point(spec: Mapping) -> Dict[str, object]:
    from repro.traffic.synthetic import install_synthetic_traffic

    sim = _simulation(spec)
    install_synthetic_traffic(sim.network, spec["pattern"], spec["rate"])
    result = sim.run(
        spec["warmup"], spec["measure"], allow_deadlock=spec["allow_deadlock"]
    )
    summary = result.summary
    return {
        "rate": spec["rate"],
        "latency": summary["avg_total_latency"],
        "network_latency": summary["avg_network_latency"],
        "queueing_latency": summary["avg_queueing_latency"],
        "throughput": summary["throughput"],
        "deadlocked": result.deadlocked,
        "upward_packets": result.scheme_stats.get("upward_packets", 0),
    }


def _execute_workload(spec: Mapping) -> Dict[str, object]:
    from repro.traffic.coherence import install_coherence_workload, workload_finished

    profile = WorkloadProfile(**spec["profile"])
    max_cycles = spec["max_cycles"]
    sim = _simulation(spec)
    endpoints = install_coherence_workload(sim.network, profile)
    unfinished = [e for e in endpoints if not e.done]

    def finished(_net) -> bool:
        # ``done`` only goes False -> True: pop finished cores off the
        # end, so the per-cycle check is amortized O(1)
        while unfinished and unfinished[-1].done:
            unfinished.pop()
        return not unfinished

    result = sim.run(
        warmup=0, measure=max_cycles, stop_when=finished, max_cycles=max_cycles
    )
    if not workload_finished(endpoints):
        raise RuntimeError(
            f"workload {profile.name} did not finish within {max_cycles} "
            f"cycles under {spec['scheme']}"
        )
    summary = dict(result.summary)
    summary["runtime"] = result.cycles
    summary["upward_packets"] = result.scheme_stats.get("upward_packets", 0)
    summary["total_packets"] = result.stats.ejected_packets
    return summary


_EXECUTORS: Dict[str, Callable[[Mapping], Dict[str, object]]] = {
    "sweep_point": _execute_sweep_point,
    "workload": _execute_workload,
}


def execute_spec(spec: Mapping) -> Dict[str, object]:
    """Run one task spec to completion and return its plain-dict result.

    Specs are validated against the ``repro-job/v2`` wire schema first
    (:func:`~repro.exp.schemas.validate_job`; this is the one place it is
    applied, so every spec a runner executes — inline, in a worker or
    for the service — passes the same gate).  The spec's topology
    parameters are built through :func:`get_topology`.
    """
    spec = validate_job(spec)
    return _EXECUTORS[spec["kind"]](spec)

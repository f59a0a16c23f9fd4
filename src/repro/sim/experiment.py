"""Experiment harnesses: the parameter sweeps behind every figure.

Each function builds fresh networks per data point (schemes keep no state
across runs) and returns plain dicts/lists so benchmarks can print the
same rows/series the paper reports.

Points are submitted through :mod:`repro.exp` — pass ``runner=`` (or set
``REPRO_JOBS`` / ``REPRO_CACHE_DIR``) to fan a sweep out over worker
processes and/or replay completed points from the content-addressed
result cache.  Results are bit-identical at any job count: every point
is an independent, freshly seeded simulation.  Ad-hoc topology callables
that are not in :mod:`repro.topology.registry` cannot be shipped to
workers and fall back to in-process execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.config import UPPConfig
from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme
from repro.topology.chiplet import SystemTopology
from repro.topology.registry import get_topology, topology_name_of
from repro.traffic.workloads import WorkloadProfile

#: a topology argument: a registered name or a zero-argument factory.
TopologyLike = Union[str, Callable[[], SystemTopology]]

__all__ = [
    "SweepPoint",
    "latency_sweep",
    "make_scheme",
    "run_workload",
    "runtime_comparison",
    "replicate",
    "saturation_throughput",
    "sweep_to_rows",
]


def _resolve_topology(topo_factory: TopologyLike):
    """(name, factory) for a topology argument; name None if unregistered."""
    if isinstance(topo_factory, str):
        return topo_factory, get_topology(topo_factory)
    return topology_name_of(topo_factory), topo_factory


def _runner_or_default(runner):
    if runner is not None:
        return runner
    # env configuration (REPRO_JOBS / REPRO_CACHE_DIR) lives in exactly
    # one place: repro.api.make_runner.  Imported lazily — repro.api
    # imports this module at load time.
    from repro import api

    return api.make_runner()


@dataclass
class SweepPoint:
    """One injection-rate point of a latency sweep."""

    rate: float
    latency: float
    network_latency: float
    queueing_latency: float
    throughput: float
    deadlocked: bool
    upward_packets: int
    #: fraction of evaluated cycles the vector engine fell back to the
    #: scalar per-router step (None on non-vector engines and for rows
    #: replayed from a cache written before this field existed).
    #: Diagnostics only — deliberately excluded from
    #: :func:`sweep_to_rows` so engine choice never leaks into the
    #: bit-identity projection.
    scalar_fallback_fraction: Optional[float] = None


def latency_sweep(
    topo_factory: TopologyLike,
    cfg: NocConfig,
    scheme_name: str,
    pattern: str,
    rates: Sequence[float],
    warmup: int = 2000,
    measure: int = 8000,
    upp_cfg: Optional[UPPConfig] = None,
    saturation_latency: float = 200.0,
    runner=None,
) -> List[SweepPoint]:
    """Latency vs injection rate (Figs. 7, 9, 11, 13).

    The sweep stops early once average latency explodes past
    ``saturation_latency`` — beyond saturation the queueing latency is
    unbounded and later points carry no information.  (A parallel runner
    executes every point and truncates the series at the same rate, so
    the returned points are identical either way.)
    """
    from repro.exp.tasks import sweep_point_spec

    topo_name, factory = _resolve_topology(topo_factory)
    allow_deadlock = scheme_name == "none"

    def saturated(row: Dict[str, object]) -> bool:
        return row["latency"] > saturation_latency or row["deadlocked"]

    if topo_name is None:
        rows = _sweep_inline(
            factory, cfg, scheme_name, pattern, rates, warmup, measure,
            upp_cfg, allow_deadlock, saturated,
        )
    else:
        # a sweep's points differ only in rate: canonicalise and
        # fingerprint the configs once, not once per point
        shared = sweep_point_spec(
            topo_name, cfg, scheme_name, pattern, None, warmup, measure,
            upp_cfg=upp_cfg, allow_deadlock=allow_deadlock,
        )
        specs = [{**shared, "rate": rate} for rate in rates]
        rows = _runner_or_default(runner).run(specs, stop_after=saturated)
    return [SweepPoint(**row) for row in rows]


def _sweep_inline(
    factory, cfg, scheme_name, pattern, rates, warmup, measure,
    upp_cfg, allow_deadlock, saturated,
) -> List[Dict[str, object]]:
    """In-process sweep for unregistered (ad-hoc) topology factories."""
    from repro.sim.simulator import Simulation
    from repro.traffic.synthetic import install_synthetic_traffic

    rows: List[Dict[str, object]] = []
    for rate in rates:
        sim = Simulation(factory(), cfg, make_scheme(scheme_name, upp_cfg))
        install_synthetic_traffic(sim.network, pattern, rate)
        result = sim.run(warmup, measure, allow_deadlock=allow_deadlock)
        summary = result.summary
        rows.append({
            "rate": rate,
            "latency": summary["avg_total_latency"],
            "network_latency": summary["avg_network_latency"],
            "queueing_latency": summary["avg_queueing_latency"],
            "throughput": summary["throughput"],
            "deadlocked": result.deadlocked,
            "upward_packets": result.scheme_stats.get("upward_packets", 0),
        })
        if saturated(rows[-1]):
            break
    return rows


def saturation_throughput(points: List[SweepPoint], zero_load_factor: float = 2.0) -> float:
    """Saturation throughput: accepted traffic at the last point whose
    latency stays below ``zero_load_factor`` x the zero-load latency (the
    conventional NoC definition)."""
    if not points:
        return 0.0
    zero_load = points[0].latency
    best = 0.0
    for point in points:
        if point.deadlocked or point.latency > zero_load_factor * zero_load:
            break
        best = max(best, point.throughput)
    return best


def run_workload(
    topo_factory: TopologyLike,
    cfg: NocConfig,
    scheme_name: str,
    profile: WorkloadProfile,
    upp_cfg: Optional[UPPConfig] = None,
    max_cycles: int = 400_000,
    runner=None,
) -> Dict[str, float]:
    """Closed-loop coherence run; runtime = cycles until every core done
    (Figs. 8, 12, 15)."""
    from repro.exp.tasks import workload_spec

    topo_name, factory = _resolve_topology(topo_factory)
    if topo_name is None:
        return _workload_inline(factory, cfg, scheme_name, profile, upp_cfg, max_cycles)
    spec = workload_spec(
        topo_name, cfg, scheme_name, profile, upp_cfg=upp_cfg, max_cycles=max_cycles
    )
    return _runner_or_default(runner).run([spec])[0]


def _workload_inline(
    factory, cfg, scheme_name, profile, upp_cfg, max_cycles
) -> Dict[str, float]:
    """In-process workload run for unregistered topology factories."""
    from repro.sim.simulator import Simulation
    from repro.traffic.coherence import install_coherence_workload, workload_finished

    sim = Simulation(factory(), cfg, make_scheme(scheme_name, upp_cfg))
    endpoints = install_coherence_workload(sim.network, profile)
    # keep the stats callback installed by Simulation: coherence endpoints
    # consume from ejection queues; stats hook sees every ejection.
    result = sim.run(
        warmup=0,
        measure=max_cycles,
        stop_when=lambda net: workload_finished(endpoints),
        max_cycles=max_cycles,
    )
    if not workload_finished(endpoints):
        raise RuntimeError(
            f"workload {profile.name} did not finish within {max_cycles} "
            f"cycles under {scheme_name}"
        )
    summary = dict(result.summary)
    summary["runtime"] = result.cycles
    summary["upward_packets"] = result.scheme_stats.get("upward_packets", 0)
    summary["total_packets"] = result.stats.ejected_packets
    # keep the dict shape identical to the spec/worker executor
    # (tests assert the two paths reproduce each other exactly)
    summary["scalar_fallback_fraction"] = result.datapath.get(
        "scalar_fallback_fraction"
    )
    return summary


def runtime_comparison(
    topo_factory: TopologyLike,
    cfg: NocConfig,
    profile: WorkloadProfile,
    schemes: Sequence[str] = ("composable", "remote_control", "upp"),
    upp_cfg: Optional[UPPConfig] = None,
    max_cycles: int = 400_000,
    runner=None,
) -> Dict[str, Dict[str, float]]:
    """Per-scheme workload runtimes, plus values normalised to the first
    scheme (the paper normalises to composable routing).

    All schemes' runs are submitted as one batch, so a parallel runner
    overlaps them.
    """
    from repro.exp.tasks import workload_spec

    topo_name, factory = _resolve_topology(topo_factory)
    if topo_name is None:
        results = {
            name: _workload_inline(factory, cfg, name, profile, upp_cfg, max_cycles)
            for name in schemes
        }
    else:
        specs = [
            workload_spec(
                topo_name, cfg, name, profile, upp_cfg=upp_cfg, max_cycles=max_cycles
            )
            for name in schemes
        ]
        rows = _runner_or_default(runner).run(specs)
        results = dict(zip(schemes, rows))
    reference = results[schemes[0]]["runtime"]
    for name in schemes:
        results[name]["normalized_runtime"] = results[name]["runtime"] / reference
    return results


def replicate(run_once: Callable[[int], float], seeds: Sequence[int]) -> Dict[str, float]:
    """Run a scalar-valued experiment across seeds and report mean/spread.

    ``run_once(seed)`` must build its own simulation from the seed.  Used
    by benches that average over randomized topologies (Fig. 11) or want
    seed-robust comparisons.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    values = [float(run_once(seed)) for seed in seeds]
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return {
        "mean": mean,
        "std": variance ** 0.5,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def sweep_to_rows(points: List[SweepPoint]) -> List[dict]:
    """Plain-dict form of a sweep (JSON-serialisable).

    This is the bit-identity projection the parallel/cache regression
    checks compare, so it carries measurement fields only —
    ``scalar_fallback_fraction`` (an engine diagnostic) stays out.
    """
    return [
        {
            "rate": p.rate,
            "latency": p.latency,
            "network_latency": p.network_latency,
            "queueing_latency": p.queueing_latency,
            "throughput": p.throughput,
            "deadlocked": p.deadlocked,
            "upward_packets": p.upward_packets,
        }
        for p in points
    ]

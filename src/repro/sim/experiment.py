"""Experiment harnesses: the parameter sweeps behind every figure.

Each function builds fresh networks per data point (schemes keep no state
across runs) and returns plain dicts/lists so benchmarks can print the
same rows/series the paper reports.

Every point is a :mod:`repro.exp.tasks` spec run by an
:class:`~repro.exp.runner.ExperimentRunner` through
:func:`~repro.exp.tasks.execute_spec` — pass ``runner=`` (or set
``REPRO_JOBS`` / ``REPRO_CACHE_DIR``) to fan a sweep out over worker
processes and/or replay completed points from the content-addressed
result cache.  Results are bit-identical at any job count: every point
is an independent, freshly seeded simulation.  A topology is an alias
or a (partial) parameter dict of :mod:`repro.topology.registry` — for
example ``{"boundary_per_chiplet": 2}`` (Fig. 10) or ``{"faults": 5,
"fault_seed": 11}`` (Fig. 11) — never a callable: a spec carries the
parameters, so every point can fan out and replay from the cache.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import UPPConfig
from repro.exp.tasks import sweep_point_spec, workload_spec
from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme
from repro.topology.registry import TopologyLike
from repro.traffic.workloads import WorkloadProfile

__all__ = [
    "SweepPoint",
    "latency_sweep",
    "make_scheme",
    "run_workload",
    "runtime_comparison",
    "saturation_throughput",
    "sweep_to_rows",
]


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


def latency_sweep(
    topology: TopologyLike,
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
    def saturated(row: Dict[str, object]) -> bool:
        return row["latency"] > saturation_latency or row["deadlocked"]

    # a sweep's points differ only in rate: canonicalise and
    # fingerprint the configs once, not once per point
    shared = sweep_point_spec(
        topology, cfg, scheme_name, pattern, None, warmup, measure,
        upp_cfg=upp_cfg, allow_deadlock=scheme_name == "none",
    )
    specs = [{**shared, "rate": rate} for rate in rates]
    rows = _runner_or_default(runner).run(specs, stop_after=saturated)
    return [SweepPoint(**row) for row in rows]


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
    topology: TopologyLike,
    cfg: NocConfig,
    scheme_name: str,
    profile: WorkloadProfile,
    upp_cfg: Optional[UPPConfig] = None,
    max_cycles: int = 400_000,
    runner=None,
) -> Dict[str, float]:
    """Closed-loop coherence run; runtime = cycles until every core done
    (Figs. 8, 12, 15)."""
    spec = workload_spec(
        topology, cfg, scheme_name, profile, upp_cfg=upp_cfg, max_cycles=max_cycles
    )
    return _runner_or_default(runner).run([spec])[0]


def runtime_comparison(
    topology: TopologyLike,
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
    overlaps them.  The returned summaries are new dicts: a runner's
    results may be its cache's own entries, which must not change.
    """
    if not schemes:
        raise ValueError("schemes must name at least one scheme")
    specs = [
        workload_spec(
            topology, cfg, name, profile, upp_cfg=upp_cfg, max_cycles=max_cycles
        )
        for name in schemes
    ]
    rows = _runner_or_default(runner).run(specs)
    reference = rows[0]["runtime"]
    return {
        name: {**row, "normalized_runtime": row["runtime"] / reference}
        for name, row in zip(schemes, rows)
    }


def sweep_to_rows(points: List[SweepPoint]) -> List[dict]:
    """Plain-dict form of a sweep (JSON-serialisable) — the projection
    the parallel/cache bit-identity checks compare."""
    return [asdict(p) for p in points]

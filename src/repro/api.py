"""repro.api — the unified experiment surface.

One import gives scripts everything they need to orchestrate
experiments, without reaching into six deep modules:

* :func:`load_preset` — a named Table II system preset (topology +
  network config + UPP config) as one immutable object;
* :func:`build_simulation` — preset + scheme name -> a ready
  :class:`~repro.sim.simulator.Simulation`;
* :func:`run_sweep` — a latency-vs-injection-rate sweep, optionally
  fanned out over worker processes and served from the result cache;
* :func:`run_workload` — closed-loop coherence runs across one or many
  schemes, normalised to the first;
* :func:`make_runner` — an explicit :class:`~repro.exp.runner.ExperimentRunner`
  when a script wants to share one runner (and its stats) across calls.

Scheme names resolve through :mod:`repro.schemes.registry`, so the
facade automatically covers any scheme registered later; topology
aliases resolve through :mod:`repro.topology.registry`.

Example::

    from repro.api import run_sweep

    points = run_sweep("baseline", scheme="upp", pattern="uniform_random",
                       rates=(0.01, 0.03, 0.05), jobs=4,
                       cache_dir="~/.cache/repro-exp")
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.config import UPPConfig
from repro.exp.backends import (
    CacheBackend,
    MemoryBackend,
    TieredBackend,
)
from repro.exp.cache import ResultCache
from repro.exp.runner import ExperimentRunner, ProgressFn
from repro.exp.schemas import JOB_SCHEMA, JobSchemaError, validate_job
from repro.exp.tasks import sweep_point_spec, workload_spec
from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.experiment import SweepPoint, saturation_throughput, sweep_to_rows
from repro.sim.presets import SYSTEM_PRESETS, table2_config, table2_upp_config
from repro.sim.simulator import Simulation
from repro.topology.registry import TopologyLike, get_topology, topology_names
from repro.traffic.workloads import get_workload

__all__ = [
    "CacheBackend",
    "ExperimentRunner",
    "JOB_SCHEMA",
    "JobSchemaError",
    "MemoryBackend",
    "Preset",
    "ResultCache",
    "SweepPoint",
    "TieredBackend",
    "build_simulation",
    "load_preset",
    "make_cache",
    "make_runner",
    "make_scheme",
    "preset_names",
    "run_sweep",
    "run_workload",
    "saturation_throughput",
    "scheme_names",
    "sweep_to_rows",
    "topology_names",
    "validate_job",
]


@dataclass(frozen=True)
class Preset:
    """One system configuration: topology + Table II configs.

    A figure's variant of a named preset is a
    ``dataclasses.replace(load_preset(name), topology=..., upp_config=...)``.
    """

    #: topology alias or (partial) parameter dict of
    #: :mod:`repro.topology.registry` (resolve with :meth:`topology_factory`).
    topology: TopologyLike
    config: NocConfig
    upp_config: UPPConfig

    def topology_factory(self):
        """The zero-argument factory building the preset's topology."""
        return get_topology(self.topology)


def preset_names() -> Sequence[str]:
    """Every system preset name (`baseline`, `baseline-4vc`, ...)."""
    return tuple(SYSTEM_PRESETS)


def load_preset(
    name: str = "baseline",
    *,
    seed: int = 2022,
    threshold: Optional[int] = None,
) -> Preset:
    """A named Table II preset; ``threshold`` overrides UPP detection."""
    try:
        topo_name, vcs = SYSTEM_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; presets: {', '.join(preset_names())}"
        ) from None
    return Preset(
        topology=topo_name,
        config=table2_config(vcs, seed=seed),
        upp_config=table2_upp_config(threshold),
    )


def _coerce_preset(preset: Union[str, Preset]) -> Preset:
    return preset if isinstance(preset, Preset) else load_preset(preset)


def build_simulation(
    preset: Union[str, Preset] = "baseline",
    scheme: str = "upp",
    *,
    watchdog_window: int = 3000,
) -> Simulation:
    """A ready-to-run simulation of ``preset`` under ``scheme``."""
    resolved = _coerce_preset(preset)
    return Simulation(
        resolved.topology_factory()(),
        resolved.config,
        make_scheme(scheme, resolved.upp_config),
        watchdog_window=watchdog_window,
    )


def make_cache(
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    *,
    tiered: bool = False,
) -> Optional[CacheBackend]:
    """A cache backend from a directory path (or ``REPRO_CACHE_DIR``).

    Plain by default: a sharded-dir :class:`ResultCache` rooted at
    ``cache_dir``, or None when no directory is configured.  With
    ``tiered=True`` the dir becomes the L1 of a
    :class:`~repro.exp.backends.TieredBackend` over an in-process
    :class:`~repro.exp.backends.MemoryBackend` L2 — the sweep service's
    default shape.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    if not cache_dir:
        return None
    local = ResultCache(os.path.expanduser(os.fspath(cache_dir)))
    if not tiered:
        return local
    return TieredBackend(local, MemoryBackend())


def make_runner(
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    *,
    cache: Optional[CacheBackend] = None,
    retries: int = 2,
    progress: Optional[ProgressFn] = None,
) -> ExperimentRunner:
    """An experiment runner; None arguments defer to ``REPRO_JOBS`` /
    ``REPRO_CACHE_DIR`` (both defaulting to serial, uncached).

    This is the **only** place library code reads those environment
    variables — pass ``cache=`` (any :class:`CacheBackend`) or
    ``cache_dir=`` to configure caching explicitly.
    """
    if cache is not None and cache_dir is not None:
        raise ValueError("pass either cache= or cache_dir=, not both")
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1") or "1"
        try:
            jobs = int(raw)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {raw!r}")
    if cache is None:
        cache = make_cache(cache_dir)
    return ExperimentRunner(jobs=jobs, cache=cache, retries=retries, progress=progress)


def _resolve_runner(runner, jobs, cache_dir, cache, progress) -> ExperimentRunner:
    if runner is not None:
        if jobs is not None or cache_dir is not None or cache is not None:
            raise ValueError(
                "pass either runner= or jobs=/cache_dir=/cache=, not both"
            )
        return runner
    return make_runner(jobs, cache_dir, cache=cache, progress=progress)


def run_sweep(
    preset: Union[str, Preset] = "baseline",
    scheme: str = "upp",
    pattern: str = "uniform_random",
    rates: Sequence[float] = (0.01, 0.03, 0.05, 0.07, 0.09),
    *,
    warmup: int = 2000,
    measure: int = 8000,
    saturation_latency: float = 200.0,
    runner: Optional[ExperimentRunner] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    cache: Optional[CacheBackend] = None,
    progress: Optional[ProgressFn] = None,
) -> List[SweepPoint]:
    """Latency vs injection rate for one scheme/pattern on a preset.

    ``jobs``/``cache_dir``/``cache`` build a throwaway runner; pass
    ``runner=`` to share one (and read its ``stats``) across calls.
    ``cache`` accepts any :class:`CacheBackend` (memory, tiered, ...);
    ``cache_dir`` is shorthand for the sharded-dir backend.
    """
    resolved = _coerce_preset(preset)
    run = _resolve_runner(runner, jobs, cache_dir, cache, progress)

    def saturated(row: Dict[str, object]) -> bool:
        return row["latency"] > saturation_latency or row["deadlocked"]

    # a sweep's points differ only in rate: canonicalise and
    # fingerprint the configs once, not once per point
    shared = sweep_point_spec(
        resolved.topology, resolved.config, scheme, pattern, None, warmup,
        measure, upp_cfg=resolved.upp_config, allow_deadlock=scheme == "none",
    )
    rows = run.run([{**shared, "rate": rate} for rate in rates], stop_after=saturated)
    return [SweepPoint(**row) for row in rows]


def run_workload(
    preset: Union[str, Preset] = "baseline",
    workload: str = "canneal",
    schemes: Union[str, Sequence[str]] = ("composable", "remote_control", "upp"),
    *,
    scale: float = 0.25,
    max_cycles: int = 400_000,
    runner: Optional[ExperimentRunner] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    cache: Optional[CacheBackend] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, Dict[str, float]]:
    """Closed-loop coherence runs, keyed by scheme name.

    With a sequence of schemes each summary gains ``normalized_runtime``
    relative to the first scheme (the paper normalises to composable);
    their runs are submitted as one batch, so a parallel runner overlaps
    them.  A single scheme name returns ``{scheme: summary}`` without the
    normalisation.
    """
    resolved = _coerce_preset(preset)
    profile = get_workload(workload, scale=scale)
    run = _resolve_runner(runner, jobs, cache_dir, cache, progress)
    names = (schemes,) if isinstance(schemes, str) else tuple(schemes)
    if not names:
        raise ValueError("schemes must name at least one scheme")
    rows = run.run([
        workload_spec(
            resolved.topology, resolved.config, name, profile,
            upp_cfg=resolved.upp_config, max_cycles=max_cycles,
        )
        for name in names
    ])
    if isinstance(schemes, str):
        return {schemes: rows[0]}
    # new dicts: a runner's results may be its cache's own entries
    reference = rows[0]["runtime"]
    return {
        name: {**row, "normalized_runtime": row["runtime"] / reference}
        for name, row in zip(names, rows)
    }

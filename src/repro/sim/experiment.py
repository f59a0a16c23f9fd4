"""Sweep results: the row type every figure's latency sweep returns.

Sweeps and workload runs themselves go through :mod:`repro.api`
(:func:`~repro.api.run_sweep`, :func:`~repro.api.run_workload`); this
module holds what their callers read back — :class:`SweepPoint`, the
saturation-throughput definition and the plain-dict projection the
parallel/cache bit-identity checks compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = [
    "SweepPoint",
    "saturation_throughput",
    "sweep_to_rows",
]


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


def sweep_to_rows(points: List[SweepPoint]) -> List[dict]:
    """Plain-dict form of a sweep (JSON-serialisable) — the projection
    the parallel/cache bit-identity checks compare.

    Exactly ``dataclasses.asdict`` per point (same keys, same order),
    read straight from the fields: every field is a scalar, so asdict's
    recursive deep copy would copy nothing.
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

"""Fig. 15: normalized network energy over the full-system (stand-in)
workloads, normalized to composable routing.

Expected shape (Sec. VI-D): real-benchmark loads are light, so static
energy dominates and the normalized energy tracks normalized runtime —
UPP, with the shortest runtimes, consumes the least energy on geomean."""

import math

import pytest

from repro.metrics.energy import network_energy
from repro.schemes.registry import make_scheme
from repro.sim.presets import table2_config
from repro.sim.simulator import Simulation
from repro.topology.chiplet import baseline_system
from repro.traffic.coherence import install_coherence_workload, workload_finished
from repro.traffic.workloads import get_workload, workload_names

from benchmarks.common import bench_scale, full_mode, print_series

WORKLOADS_DEFAULT = ("blackscholes", "canneal", "fft", "radix")
SCHEMES = ("composable", "remote_control", "upp")


def workloads():
    return tuple(workload_names("all")) if full_mode() else WORKLOADS_DEFAULT


def run_energy(vcs: int):
    scale = 0.25 * bench_scale()
    results = {}
    for name in workloads():
        profile = get_workload(name, scale=scale)
        per_scheme = {}
        for scheme_name in SCHEMES:
            sim = Simulation(
                baseline_system(), table2_config(vcs), make_scheme(scheme_name)
            )
            endpoints = install_coherence_workload(sim.network, profile)
            result = sim.run(
                warmup=0,
                measure=400_000,
                stop_when=lambda net: workload_finished(endpoints),
                max_cycles=400_000,
            )
            energy = network_energy(sim.network, result.cycles)
            per_scheme[scheme_name] = {
                "total": energy.total,
                "static_fraction": energy.static / energy.total,
            }
        reference = per_scheme[SCHEMES[0]]["total"]
        for scheme_name in SCHEMES:
            per_scheme[scheme_name]["normalized"] = (
                per_scheme[scheme_name]["total"] / reference
            )
        results[name] = per_scheme
    return results


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


@pytest.mark.parametrize("vcs", (1, 4))
def test_fig15(benchmark, vcs):
    results = benchmark.pedantic(run_energy, args=(vcs,), rounds=1, iterations=1)
    rows = [
        [name] + [v[s]["normalized"] for s in SCHEMES]
        for name, v in results.items()
    ]
    gm = {
        s: geomean([results[n][s]["normalized"] for n in results]) for s in SCHEMES
    }
    rows.append(["geomean"] + [gm[s] for s in SCHEMES])
    print_series(
        f"Fig. 15 — normalized energy, {vcs} VC(s) (normalized to composable)",
        ["benchmark"] + list(SCHEMES),
        rows,
    )
    static_fracs = [
        results[n][s]["static_fraction"] for n in results for s in SCHEMES
    ]
    print(f"  static-energy fraction: min {min(static_fracs):.2f}")
    # Sec. VI-D: static power dominates at real-benchmark loads
    assert min(static_fracs) > 0.5
    # UPP consumes the least energy on geomean (shorter runtime)
    assert gm["upp"] <= min(gm.values()) + 1e-9

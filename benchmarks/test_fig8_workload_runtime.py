"""Fig. 8: normalized full-system runtime (PARSEC / SPLASH-2 stand-ins)
for 1 VC and 4 VCs per VNet, normalized to composable routing.

Expected shape: UPP's geomean runtime is ~5-10% below composable with
1 VC and ~3-5% below with 4 VCs; remote control sits between (its
injection-control latency occasionally hurts, e.g. canneal with 1 VC).
"""

import math

import pytest

from repro import api
from repro.traffic.workloads import workload_names

from benchmarks.common import bench_runner, bench_scale, full_mode, print_series

WORKLOADS_DEFAULT = ("blackscholes", "canneal", "fft", "lu_cb", "radix", "water_nsquared")
SCHEMES = ("composable", "remote_control", "upp")


def workloads():
    return tuple(workload_names("all")) if full_mode() else WORKLOADS_DEFAULT


def run_suite(vcs: int):
    preset = "baseline" if vcs == 1 else "baseline-4vc"
    return {
        name: api.run_workload(
            preset, name, SCHEMES, scale=0.25 * bench_scale(),
            runner=bench_runner(),
        )
        for name in workloads()
    }


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


@pytest.mark.parametrize("vcs", (1, 4))
def test_fig8(benchmark, vcs):
    results = benchmark.pedantic(run_suite, args=(vcs,), rounds=1, iterations=1)
    rows = []
    for name, per_scheme in results.items():
        rows.append(
            [name]
            + [per_scheme[s]["normalized_runtime"] for s in SCHEMES]
        )
    gm = {
        s: geomean([results[n][s]["normalized_runtime"] for n in results])
        for s in SCHEMES
    }
    rows.append(["geomean"] + [gm[s] for s in SCHEMES])
    print_series(
        f"Fig. 8 — normalized runtime, {vcs} VC(s) per VNet "
        "(normalized to composable)",
        ["benchmark"] + list(SCHEMES),
        rows,
    )
    # shape: UPP's geomean runtime beats composable's
    assert gm["upp"] < 1.0
    # and UPP is the fastest of the three on geomean
    assert gm["upp"] <= min(gm.values()) + 1e-9

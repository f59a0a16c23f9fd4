"""Fig. 12: number of detected upward packets during the full-system
(stand-in) workloads, with 1 vs 4 VCs per VNet.

Expected shape: upward packets are a vanishing fraction of total traffic;
network-bound benchmarks (canneal, fft, radix) dominate the counts with
1 VC; moving to 4 VCs collapses the counts toward zero — so false
positives cost almost nothing (Sec. VI-C)."""


from repro import api
from repro.traffic.workloads import workload_names

from benchmarks.common import bench_runner, bench_scale, full_mode, print_series

WORKLOADS_DEFAULT = ("blackscholes", "canneal", "fft", "water_nsquared")


def workloads():
    return tuple(workload_names("all")) if full_mode() else WORKLOADS_DEFAULT


def run_counts():
    results = {}
    for name in workloads():
        per_vcs = {}
        for vcs, preset in ((1, "baseline"), (4, "baseline-4vc")):
            summary = api.run_workload(
                preset, name, "upp", scale=0.25 * bench_scale(),
                runner=bench_runner(),
            )["upp"]
            per_vcs[vcs] = {
                "upward": summary["upward_packets"],
                "total": summary["total_packets"],
            }
        results[name] = per_vcs
    return results


def test_fig12(benchmark):
    results = benchmark.pedantic(run_counts, rounds=1, iterations=1)
    rows = [
        [
            name,
            v[1]["upward"],
            v[4]["upward"],
            v[1]["upward"] / max(v[1]["total"], 1),
        ]
        for name, v in results.items()
    ]
    print_series(
        "Fig. 12 — detected upward packets (1 VC vs 4 VCs)",
        ["benchmark", "upward @1VC", "upward @4VC", "fraction @1VC"],
        rows,
    )
    total_1vc = sum(v[1]["upward"] for v in results.values())
    total_4vc = sum(v[4]["upward"] for v in results.values())
    # more VCs -> far fewer upward packets (paper: orders of magnitude)
    assert total_4vc <= total_1vc
    # upward packets are a tiny fraction of total traffic
    for name, v in results.items():
        assert v[1]["upward"] <= 0.01 * v[1]["total"]
    # the network-bound benchmarks dominate the counts
    light = results.get("blackscholes", {1: {"upward": 0}})[1]["upward"]
    heavy = max(
        results[n][1]["upward"] for n in results if n in ("canneal", "fft", "radix")
    )
    assert heavy >= light

"""Fig. 11: UPP latency in irregular systems with 0/1/5/10/15/20 faulty
links (averaged over randomized faulty topologies), 1 and 4 VCs per VNet.

Composable routing and remote control are excluded, as in the paper:
composable's design-time search cannot rerun online and remote control's
permission subnetwork is hard-wired.  Expected shape: graceful saturation
degradation and a mild latency increase as links fail."""

import dataclasses

import pytest

from repro import api

from benchmarks.common import bench_runner, full_mode, print_series, scaled

FAULTS_DEFAULT = (0, 5, 20)
FAULTS_FULL = (0, 1, 5, 10, 15, 20)
RATES = (0.01, 0.04, 0.07, 0.10)
SEEDS = (11, 23)


def run_counts(vcs: int):
    counts = FAULTS_FULL if full_mode() else FAULTS_DEFAULT
    base = api.load_preset("baseline" if vcs == 1 else "baseline-4vc")
    results = {}
    for n_faults in counts:
        latencies, saturations = [], []
        for seed in SEEDS if n_faults else SEEDS[:1]:
            preset = dataclasses.replace(
                base, topology={"faults": n_faults, "fault_seed": seed}
            )
            points = api.run_sweep(
                preset, "upp", "uniform_random", RATES,
                warmup=scaled(400), measure=scaled(1500), runner=bench_runner(),
            )
            latencies.append(points[0].latency)
            saturations.append(api.saturation_throughput(points))
        results[n_faults] = {
            "latency": sum(latencies) / len(latencies),
            "saturation": sum(saturations) / len(saturations),
        }
    return results


@pytest.mark.parametrize("vcs", (1, 4))
def test_fig11(benchmark, vcs):
    results = benchmark.pedantic(run_counts, args=(vcs,), rounds=1, iterations=1)
    rows = [
        [f"{n} faulty links", v["latency"], v["saturation"]]
        for n, v in results.items()
    ]
    print_series(
        f"Fig. 11 — UPP under faulty links, {vcs} VC(s)",
        ["series", "latency (cyc)", "sat thpt"],
        rows,
    )
    counts = sorted(results)
    # graceful degradation: latency rises, saturation falls, no collapse
    assert results[counts[-1]]["latency"] >= results[0]["latency"]
    assert results[counts[-1]]["latency"] < 4 * results[0]["latency"]
    assert results[counts[-1]]["saturation"] <= results[0]["saturation"] * 1.05
    assert results[counts[-1]]["saturation"] > 0

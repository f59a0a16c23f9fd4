"""Fig. 10: sensitivity to the number of boundary routers per chiplet
(2 / 4 / 8), reporting latency and saturation throughput normalized to
composable routing with 4 boundary routers and 1 VC.

Expected shape: every scheme improves with more vertical links; UPP keeps
the lowest latency and best-or-equal throughput at every point."""

import dataclasses

import pytest

from repro import api

from benchmarks.common import bench_runner, print_series, scaled

SCHEMES = ("composable", "remote_control", "upp")
COUNTS = (2, 4, 8)
RATES = (0.01, 0.04, 0.07, 0.10, 0.13)


def run_all(vcs: int):
    base = api.load_preset("baseline" if vcs == 1 else "baseline-4vc")
    results = {}
    for count in COUNTS:
        preset = dataclasses.replace(base, topology={"boundary_per_chiplet": count})
        for scheme in SCHEMES:
            points = api.run_sweep(
                preset, scheme, "uniform_random", RATES,
                warmup=scaled(400), measure=scaled(1500), runner=bench_runner(),
            )
            results[(count, scheme)] = {
                "latency": points[0].latency,
                "saturation": api.saturation_throughput(points),
            }
    return results


@pytest.mark.parametrize("vcs", (1, 4))
def test_fig10(benchmark, vcs):
    results = benchmark.pedantic(run_all, args=(vcs,), rounds=1, iterations=1)
    ref_lat = results[(4, "composable")]["latency"]
    ref_thp = results[(4, "composable")]["saturation"]
    rows = [
        [
            f"{scheme}-{count}b",
            results[(count, scheme)]["latency"] / ref_lat,
            results[(count, scheme)]["saturation"] / max(ref_thp, 1e-9),
        ]
        for count in COUNTS
        for scheme in SCHEMES
    ]
    print_series(
        f"Fig. 10 — boundary-router sensitivity, {vcs} VC(s) "
        "(normalized to composable/4-boundary)",
        ["series", "norm latency", "norm thpt"],
        rows,
    )
    for count in COUNTS:
        assert (
            results[(count, "upp")]["latency"]
            <= results[(count, "remote_control")]["latency"]
        )
    # more boundary routers help UPP's latency
    assert results[(8, "upp")]["latency"] < results[(2, "upp")]["latency"]

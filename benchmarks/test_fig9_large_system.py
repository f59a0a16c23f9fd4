"""Fig. 9: latency comparison in the 128-node system (4x8 interposer,
eight 4x4 chiplets) under uniform random traffic.

Expected shape: UPP still wins on latency and saturation, but the
throughput gap to composable narrows versus the baseline system (the
larger network is inherently less load-balanced, Sec. VI-B)."""

import pytest

from repro import api

from benchmarks.common import bench_runner, print_series, scaled

SCHEMES = ("composable", "remote_control", "upp")
RATES = (0.01, 0.03, 0.05, 0.07, 0.09)


@pytest.mark.parametrize("vcs", (1, 4))
def test_fig9(benchmark, vcs):
    preset = "large" if vcs == 1 else "large-4vc"

    def run():
        return {
            scheme: api.run_sweep(
                preset, scheme, "uniform_random", RATES,
                warmup=scaled(400), measure=scaled(1600), runner=bench_runner(),
            )
            for scheme in SCHEMES
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"{scheme}-{vcs}VC", p.rate, p.latency, p.throughput]
        for scheme, points in results.items()
        for p in points
    ]
    print_series(
        f"Fig. 9 — 128-node system, uniform random, {vcs} VC(s)",
        ["series", "inj rate", "latency (cyc)", "thpt"],
        rows,
    )
    sat = {s: api.saturation_throughput(pts) for s, pts in results.items()}
    print("  saturation:", {k: round(v, 4) for k, v in sat.items()})
    assert results["upp"][0].latency <= results["remote_control"][0].latency
    assert sat["upp"] >= sat["composable"] * 0.99

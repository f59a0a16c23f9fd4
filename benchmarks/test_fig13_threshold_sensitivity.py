"""Fig. 13: sensitivity to the UPP detection-threshold value (20 / 100 /
1000 cycles) under uniform random traffic.

Expected shape: (a) saturation throughput is essentially flat across
thresholds; (b) the fraction of packets ever selected as upward packets
stays small (well below 10% with 1 VC, near zero with 4 VCs) and shrinks
as the threshold grows."""

import dataclasses

import pytest

from repro import api
from repro.core.config import UPPConfig

from benchmarks.common import bench_runner, print_series, scaled

THRESHOLDS = (20, 100, 1000)
RATES = (0.02, 0.05, 0.08, 0.11)


def run_thresholds(vcs: int):
    base = api.load_preset("baseline" if vcs == 1 else "baseline-4vc")
    results = {}
    for threshold in THRESHOLDS:
        preset = dataclasses.replace(base, upp_config=UPPConfig(
            detection_threshold=threshold, ack_timeout=max(20 * threshold, 400),
        ))
        points = api.run_sweep(
            preset, "upp", "uniform_random", RATES,
            warmup=scaled(400), measure=scaled(1800), runner=bench_runner(),
        )
        total_upward = sum(p.upward_packets for p in points)
        results[threshold] = {
            "saturation": api.saturation_throughput(points),
            "upward": total_upward,
            "points": points,
        }
    return results


@pytest.mark.parametrize("vcs", (1, 4))
def test_fig13(benchmark, vcs):
    results = benchmark.pedantic(run_thresholds, args=(vcs,), rounds=1, iterations=1)
    rows = [
        [f"{t}-cycle", v["saturation"], v["upward"]]
        for t, v in results.items()
    ]
    print_series(
        f"Fig. 13 — detection threshold sensitivity, {vcs} VC(s)",
        ["threshold", "sat thpt", "upward pkts"],
        rows,
    )
    sats = [v["saturation"] for v in results.values()]
    # (a) threshold has little impact on saturation throughput
    assert max(sats) <= min(sats) * 1.3 + 1e-9
    # (b) larger thresholds select fewer upward packets
    assert results[1000]["upward"] <= results[20]["upward"]

"""Fig. 7: latency vs injection rate under four synthetic traffic
patterns, for {composable, remote control, UPP} x {1, 4} VCs per VNet on
the baseline system.

Expected shape (paper Sec. VI-A): UPP always has the lowest latency and
the highest saturation point; remote control matches UPP's saturation but
sits 5-8% higher in latency; composable routing saturates earliest
(funneling + non-minimal routes).
"""

import pytest

from repro import api

from benchmarks.common import bench_runner, full_mode, print_series, scaled

SCHEMES = ("composable", "remote_control", "upp")
PATTERNS_DEFAULT = ("uniform_random", "transpose")
PATTERNS_FULL = ("uniform_random", "bit_complement", "bit_rotation", "transpose")
RATES_1VC = (0.01, 0.03, 0.05, 0.07, 0.09, 0.11)
RATES_4VC = (0.02, 0.06, 0.10, 0.14, 0.18, 0.22)


def patterns():
    return PATTERNS_FULL if full_mode() else PATTERNS_DEFAULT


def run_pattern(pattern: str, vcs: int):
    rates = RATES_1VC if vcs == 1 else RATES_4VC
    preset = "baseline" if vcs == 1 else "baseline-4vc"
    return {
        scheme: api.run_sweep(
            preset, scheme, pattern, rates,
            warmup=scaled(400), measure=scaled(2000), runner=bench_runner(),
        )
        for scheme in SCHEMES
    }


@pytest.mark.parametrize("pattern", PATTERNS_FULL)
@pytest.mark.parametrize("vcs", (1, 4))
def test_fig7(benchmark, pattern, vcs):
    if pattern not in patterns():
        pytest.skip("set REPRO_BENCH_FULL=1 for all four patterns")
    results = benchmark.pedantic(run_pattern, args=(pattern, vcs), rounds=1, iterations=1)
    rows = []
    for scheme, points in results.items():
        for p in points:
            rows.append([f"{scheme}-{vcs}VC", p.rate, p.latency, p.throughput])
    print_series(
        f"Fig. 7 — {pattern}, {vcs} VC(s) per VNet",
        ["series", "inj rate", "latency (cyc)", "thpt"],
        rows,
    )
    sat = {s: api.saturation_throughput(pts) for s, pts in results.items()}
    print("  saturation throughput:", {k: round(v, 4) for k, v in sat.items()})
    # shape assertions: UPP lowest latency at low load, best-or-equal saturation
    assert results["upp"][0].latency <= results["remote_control"][0].latency
    assert sat["upp"] >= sat["composable"] * 0.99

"""Directional performance claims from the paper's evaluation (Sec. VI-A).

These tests check *who wins* and roughly *why* — not absolute numbers:

* UPP has lower latency than remote control (injection-control penalty).
* UPP has lower or equal latency vs composable routing (non-minimal
  routes + funneling under restrictions).
* UPP matches remote control's saturation throughput (both have full
  path diversity) and beats composable's.
* Detection-threshold choice barely moves UPP's results (Fig. 13).
"""

import dataclasses

import pytest

from repro import api
from repro.core.config import UPPConfig
from repro.sim.experiment import saturation_throughput

RATES = (0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13)


@pytest.fixture(scope="module")
def sweeps():
    return {
        scheme: api.run_sweep(
            "baseline", scheme, "uniform_random", RATES, warmup=800, measure=3000
        )
        for scheme in ("composable", "remote_control", "upp")
    }


class TestLatencyOrdering:
    def test_upp_beats_remote_control_at_low_load(self, sweeps):
        assert sweeps["upp"][0].latency < sweeps["remote_control"][0].latency

    def test_upp_not_worse_than_composable(self, sweeps):
        assert sweeps["upp"][0].latency <= sweeps["composable"][0].latency * 1.02

    def test_remote_control_penalty_is_injection_side(self, sweeps):
        """The RC gap shows up as queueing (handshake before injection),
        while pure network latency stays comparable."""
        upp, rc = sweeps["upp"][0], sweeps["remote_control"][0]
        assert rc.queueing_latency > upp.queueing_latency


class TestSaturationOrdering:
    def test_upp_saturates_later_than_composable(self, sweeps):
        upp = saturation_throughput(sweeps["upp"])
        comp = saturation_throughput(sweeps["composable"])
        assert upp > comp

    def test_upp_improvement_in_paper_band(self, sweeps):
        """Paper: +18%..72% saturation throughput vs composable; accept a
        wider band since our sweeps are coarse."""
        upp = saturation_throughput(sweeps["upp"])
        comp = saturation_throughput(sweeps["composable"])
        assert 1.1 <= upp / comp <= 2.5

    def test_upp_matches_remote_control_throughput(self, sweeps):
        upp = saturation_throughput(sweeps["upp"])
        rc = saturation_throughput(sweeps["remote_control"])
        assert upp == pytest.approx(rc, rel=0.25)


class TestThresholdInsensitivity:
    def test_threshold_has_little_throughput_impact(self):
        """Fig. 13(a): 20 vs 1000-cycle thresholds barely move saturation
        throughput."""
        baseline = api.load_preset("baseline")
        results = {}
        for threshold in (20, 1000):
            preset = dataclasses.replace(baseline, upp_config=UPPConfig(
                detection_threshold=threshold, ack_timeout=2000,
            ))
            sweep = api.run_sweep(
                preset, "upp", "uniform_random", (0.03, 0.07, 0.11),
                warmup=500, measure=2500,
            )
            results[threshold] = saturation_throughput(sweep)
        assert results[20] == pytest.approx(results[1000], rel=0.15)

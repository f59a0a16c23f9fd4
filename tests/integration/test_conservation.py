"""Flit/packet conservation and determinism across schemes."""

import pytest

from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme
from repro.sim.simulator import Simulation
from repro.topology.chiplet import baseline_system
from repro.traffic.synthetic import install_synthetic_traffic
from repro.traffic.trace import TraceRecorder

SCHEMES = ("upp", "composable", "remote_control")


def run_and_drain(scheme_name, pattern, rate, cycles=3000, vcs=1):
    cfg = NocConfig(vcs_per_vnet=vcs)
    sim = Simulation(baseline_system(), cfg, make_scheme(scheme_name))
    endpoints = install_synthetic_traffic(sim.network, pattern, rate)
    net = sim.network
    net.run(cycles)
    generated = sum(e.generated for e in endpoints if hasattr(e, "generated"))
    never_injected = 0
    for endpoint in endpoints:
        if hasattr(endpoint, "enabled"):
            endpoint.enabled = False
            never_injected += len(endpoint._backlog)
            endpoint._backlog.clear()
    assert net.drain(max_cycles=200000), f"{scheme_name} failed to drain"
    ejected = sum(ni.ejected_packets for ni in net.nis.values())
    never_injected += sum(
        len(q) for ni in net.nis.values() for q in ni.injection_queues
    )
    return generated, ejected, never_injected, net


class TestConservation:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("pattern", ("uniform_random", "transpose"))
    def test_every_packet_ejected_exactly_once(self, scheme, pattern):
        generated, ejected, queued, _net = run_and_drain(scheme, pattern, 0.08)
        assert generated == ejected + queued

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_conservation_at_saturation(self, scheme):
        generated, ejected, queued, _net = run_and_drain(
            scheme, "bit_complement", 0.30, cycles=2000
        )
        assert generated == ejected + queued

    def test_conservation_with_four_vcs(self):
        generated, ejected, queued, _net = run_and_drain(
            "upp", "uniform_random", 0.20, vcs=4
        )
        assert generated == ejected + queued


class TestDeterminism:
    def _signature(self, scheme_name):
        cfg = NocConfig(vcs_per_vnet=1, seed=1234)
        sim = Simulation(baseline_system(), cfg, make_scheme(scheme_name))
        recorder = TraceRecorder()
        install_synthetic_traffic(sim.network, "uniform_random", 0.06)
        recorder.install(sim.network)
        sim.network.run(2500)
        return recorder.signature()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_same_seed_same_trace(self, scheme):
        assert self._signature(scheme) == self._signature(scheme)

    def test_different_seeds_differ(self):
        cfgs = [NocConfig(seed=s) for s in (1, 2)]
        signatures = []
        for cfg in cfgs:
            sim = Simulation(baseline_system(), cfg, make_scheme("upp"))
            recorder = TraceRecorder()
            install_synthetic_traffic(sim.network, "uniform_random", 0.06)
            recorder.install(sim.network)
            sim.network.run(1500)
            signatures.append(recorder.signature())
        assert signatures[0] != signatures[1]

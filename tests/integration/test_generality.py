"""Generality tests mirroring Sec. VI-B: larger systems, boundary-count
variants, faulty topologies and the passive-substrate star system."""

import random

import pytest

from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme
from repro.sim.simulator import Simulation
from repro.topology.chiplet import build_system, large_system, star_system
from repro.topology.faults import inject_faults
from repro.traffic.synthetic import install_synthetic_traffic


def short_run(topo, scheme_name, rate=0.05, cycles=2500, vcs=1):
    sim = Simulation(topo, NocConfig(vcs_per_vnet=vcs), make_scheme(scheme_name))
    install_synthetic_traffic(sim.network, "uniform_random", rate)
    return sim.run(warmup=500, measure=cycles - 500)


class TestLargeSystem:
    def test_all_schemes_run_on_128_nodes(self):
        for scheme in ("upp", "composable", "remote_control"):
            result = short_run(large_system(), scheme)
            assert result.summary["packets"] > 0
            assert not result.deadlocked

    def test_latencies_exceed_baseline_system(self):
        small = short_run(build_system(), "upp")
        large = short_run(large_system(), "upp")
        assert (
            large.summary["avg_network_latency"]
            > small.summary["avg_network_latency"]
        )


class TestBoundaryCounts:
    @pytest.mark.parametrize("count", (2, 4, 8))
    def test_upp_runs_with_any_boundary_count(self, count):
        topo = build_system(boundary_per_chiplet=count)
        result = short_run(topo, "upp")
        assert result.summary["packets"] > 0

    def test_more_boundaries_lower_latency(self):
        """Fig. 10: latency improves with more vertical links."""
        lat = {}
        for count in (2, 8):
            topo = build_system(boundary_per_chiplet=count)
            lat[count] = short_run(topo, "upp").summary["avg_network_latency"]
        assert lat[8] < lat[2]


class TestFaultySystems:
    @pytest.mark.parametrize("faults", (1, 5, 10))
    def test_upp_survives_faulty_links(self, faults):
        topo = build_system()
        inject_faults(topo, faults, random.Random(faults))
        result = short_run(topo, "upp")
        assert not result.deadlocked
        assert result.summary["packets"] > 0

    def test_faulty_latency_degrades_gracefully(self):
        """Fig. 11: latency increases slightly as links fail."""
        healthy = short_run(build_system(), "upp").summary["avg_network_latency"]
        topo = build_system()
        inject_faults(topo, 10, random.Random(42))
        faulty = short_run(topo, "upp").summary["avg_network_latency"]
        assert faulty > healthy
        assert faulty < 3 * healthy  # graceful, not collapse

    def test_drain_on_faulty_topology(self):
        topo = build_system()
        inject_faults(topo, 8, random.Random(5))
        sim = Simulation(topo, NocConfig(), make_scheme("upp"))
        endpoints = install_synthetic_traffic(sim.network, "uniform_random", 0.1)
        sim.network.run(2000)
        for e in endpoints:
            if hasattr(e, "enabled"):
                e.enabled = False
                e._backlog.clear()
        assert sim.network.drain(max_cycles=100000)


class TestStarSystem:
    def test_star_system_runs_with_upp(self):
        result = short_run(star_system(4), "upp")
        assert result.summary["packets"] > 0
        assert not result.deadlocked


class TestSecondVerticalPort:
    """The 8-boundary configuration routes through UP2 ports; detection
    and popup must treat them exactly like UP (Sec. V is port-agnostic)."""

    def test_up2_carries_traffic(self):
        from repro.noc.flit import Port
        from repro.noc.network import Network
        from repro.schemes.registry import make_scheme

        net = Network(build_system(boundary_per_chiplet=8), NocConfig(), make_scheme("upp"))
        install_synthetic_traffic(net, "uniform_random", 0.08)
        net.run(1500)
        up2_flits = sum(
            link.flits_carried
            for link in net._router_links
            if link.src_port == Port.UP2
        )
        assert up2_flits > 0

    def test_upp_recovers_with_up2_ports(self):
        from repro.sim.simulator import Simulation
        from repro.schemes.registry import make_scheme
        from repro.traffic.adversarial import install_adversarial_traffic, witness_flows

        sim = Simulation(
            build_system(boundary_per_chiplet=8),
            NocConfig(vcs_per_vnet=1),
            make_scheme("upp"),
            watchdog_window=2500,
        )
        flows = witness_flows(sim.network)
        install_adversarial_traffic(sim.network, flows)
        result = sim.run(warmup=0, measure=8000)
        assert not result.deadlocked
        for ni in sim.network.nis.values():
            if hasattr(ni.endpoint, "enabled"):
                ni.endpoint.enabled = False
        assert sim.network.drain(max_cycles=150_000)

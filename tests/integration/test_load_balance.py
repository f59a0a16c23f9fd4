"""Load-balance evidence for the paper's Sec. III-B argument: composable
routing's funneling shows up as vertical-link imbalance that UPP's
balanced static binding does not have."""

import pytest

from repro.metrics.utilization import (
    hotspots,
    imbalance,
    link_utilization,
    vertical_link_loads,
)
from repro.noc.config import NocConfig
from repro.schemes.registry import make_scheme
from repro.sim.simulator import Simulation
from repro.topology.chiplet import baseline_system
from repro.traffic.synthetic import install_synthetic_traffic


def run(scheme_name, rate=0.05, cycles=3000):
    sim = Simulation(baseline_system(), NocConfig(vcs_per_vnet=1), make_scheme(scheme_name))
    install_synthetic_traffic(sim.network, "uniform_random", rate)
    sim.network.run(cycles)
    return sim.network, cycles


class TestFunneling:
    def test_composable_down_links_more_imbalanced_than_upp(self):
        loads = {}
        for scheme in ("composable", "upp"):
            net, cycles = run(scheme)
            loads[scheme] = vertical_link_loads(net, cycles)["down"]
        assert imbalance(loads["composable"]) > imbalance(loads["upp"]) * 1.3

    def test_upp_vertical_load_is_near_uniform(self):
        net, cycles = run("upp")
        down = vertical_link_loads(net, cycles)["down"]
        assert imbalance(down) < 1.4

    def test_composable_concentrates_on_few_boundaries(self):
        """The Fig. 2a effect: most of each chiplet's outbound traffic
        leaves through a minority of its boundary routers."""
        net, cycles = run("composable")
        down = vertical_link_loads(net, cycles)["down"]
        topo = net.topo
        for chiplet in range(4):
            chip_loads = sorted(
                down.get(b, 0.0) for b in topo.boundary_routers(chiplet)
            )
            total = sum(chip_loads) or 1.0
            top_half = sum(chip_loads[2:])
            assert top_half / total > 0.6


class TestUtilityFunctions:
    def test_link_utilization_requires_cycles(self):
        net, _ = run("upp", cycles=100)
        with pytest.raises(ValueError):
            link_utilization(net, 0)

    def test_hotspots_sorted_descending(self):
        net, cycles = run("upp", cycles=500)
        top = hotspots(net, cycles, top=5)
        values = [v for _k, v in top]
        assert values == sorted(values, reverse=True)

    def test_imbalance_degenerate_cases(self):
        assert imbalance({}) == 0.0
        assert imbalance({1: 0.0, 2: 0.0}) == 0.0
        assert imbalance({1: 2.0, 2: 2.0}) == pytest.approx(1.0)

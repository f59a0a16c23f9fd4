"""Tests specific to multi-VC (4 VCs per VNet) configurations."""


from repro.noc.config import NocConfig
from repro.noc.flit import Port
from repro.noc.network import Network
from repro.schemes.upp import UPPScheme
from repro.topology.chiplet import baseline_system
from repro.traffic.synthetic import install_synthetic_traffic


def make_net(vcs=4):
    return Network(baseline_system(), NocConfig(vcs_per_vnet=vcs), UPPScheme())


class TestVcStructure:
    def test_port_vc_counts(self):
        net = make_net()
        router = net.routers[16]
        for iport in router.in_ports.values():
            assert len(iport.vcs) == 12  # 3 VNets x 4 VCs
        for vnet in range(3):
            group = router.in_ports[Port.LOCAL].vnet_vcs(vnet)
            assert len(group) == 4

    def test_vc_selection_spreads_over_vcs(self):
        """VCS picks random free VCs; under load multiple VCs of one VNet
        at one port see traffic."""
        net = make_net()
        install_synthetic_traffic(net, "bit_complement", 0.3, data_fraction=1.0)
        used = set()
        for _ in range(600):
            net.step()
            for router in net.routers.values():
                for iport in router.in_ports.values():
                    for vc in iport.vcs:
                        if vc.queue:
                            used.add((router.rid, iport.port, vc.vc_index))
        per_slot = {}
        for rid, port, idx in used:
            per_slot.setdefault((rid, port), set()).add(idx)
        assert any(len(idxs) >= 2 for idxs in per_slot.values())

    def test_no_wormhole_interleaving_with_many_vcs(self):
        """Each VC still carries exactly one packet at a time (push
        raises otherwise); run at saturation to stress it."""
        net = make_net()
        install_synthetic_traffic(net, "transpose", 0.4, data_fraction=1.0)
        net.run(1500)  # would raise on interleaving
        assert net.cycle == 1500


class TestFourVcBehaviour:
    def test_more_vcs_raise_saturation(self):
        from repro import api

        sats = {}
        for vcs, preset in ((1, "baseline"), (4, "baseline-4vc")):
            points = api.run_sweep(
                preset,
                "upp",
                "uniform_random",
                (0.03, 0.07, 0.11, 0.15),
                warmup=400,
                measure=1500,
            )
            sats[vcs] = api.saturation_throughput(points)
        assert sats[4] > sats[1]

    def test_fewer_upward_packets_with_more_vcs(self):
        """Fig. 12's second claim: 4 VCs nearly eliminate detections."""
        from repro.sim.simulator import Simulation
        from repro.traffic.adversarial import install_adversarial_traffic, witness_flows

        counts = {}
        for vcs in (1, 4):
            sim = Simulation(
                baseline_system(),
                NocConfig(vcs_per_vnet=vcs),
                UPPScheme(),
                watchdog_window=10**9,
            )
            flows = witness_flows(sim.network)
            install_adversarial_traffic(sim.network, flows)
            sim.network.run(5000)
            counts[vcs] = sim.network.scheme.stats.upward_packets
        assert counts[4] <= counts[1]

    def test_conservation_under_4vc_saturation(self):
        net = make_net()
        endpoints = install_synthetic_traffic(net, "bit_complement", 0.35)
        net.run(2000)
        generated = sum(e.generated for e in endpoints if hasattr(e, "generated"))
        never = 0
        for e in endpoints:
            if hasattr(e, "enabled"):
                e.enabled = False
                never += len(e._backlog)
                e._backlog.clear()
        assert net.drain(max_cycles=200_000)
        never += sum(len(q) for ni in net.nis.values() for q in ni.injection_queues)
        ejected = sum(ni.ejected_packets for ni in net.nis.values())
        assert generated == ejected + never

"""Unit tests for the network builder and cycle semantics."""


from repro.noc.config import NocConfig
from repro.noc.flit import Port
from repro.noc.network import Network
from repro.schemes.none import UnprotectedScheme
from repro.topology.chiplet import baseline_system, build_system
from repro.topology.faults import inject_faults


class TestConstruction:
    def test_router_and_ni_counts(self):
        net = Network(baseline_system(), NocConfig())
        assert len(net.routers) == 80
        assert len(net.nis) == 80
        assert all(net.nis[r].router is net.routers[r] for r in net.routers)

    def test_boundary_flags(self):
        net = Network(baseline_system(), NocConfig())
        boundaries = set(net.topo.boundary_routers())
        for rid, router in net.routers.items():
            assert router.is_boundary == (rid in boundaries)

    def test_port_wiring_is_symmetric(self):
        net = Network(baseline_system(), NocConfig())
        for router in net.routers.values():
            for port, link in router.out_links.items():
                if port == Port.LOCAL:
                    continue
                peer = net.routers[link.dst]
                assert link.dst_port in peer.in_ports

    def test_vertical_ports_only_where_expected(self):
        net = Network(baseline_system(), NocConfig())
        for rid, router in net.routers.items():
            has_up_out = Port.UP in router.out_ports
            assert has_up_out == net.topo.is_interposer(rid) or not has_up_out
            has_down_out = Port.DOWN in router.out_ports
            if has_down_out:
                assert rid in net.topo.attach_down

    def test_faulty_links_not_built(self):
        import random

        topo = baseline_system()
        inject_faults(topo, 5, random.Random(1))
        net = Network(topo, NocConfig())
        built = {(l.src, l.dst) for l in net.links}
        for pair in topo.faulty:
            assert pair not in built

    def test_default_scheme_is_unprotected(self):
        net = Network(baseline_system(), NocConfig())
        assert isinstance(net.scheme, UnprotectedScheme)

    def test_eight_boundary_system_has_up2(self):
        net = Network(build_system(boundary_per_chiplet=8), NocConfig())
        up2 = [
            rid
            for rid, r in net.routers.items()
            if Port.UP2 in r.out_ports
        ]
        assert len(up2) == 16  # every interposer router carries two links


class TestCycleSemantics:
    def test_step_increments_cycle(self):
        net = Network(baseline_system(), NocConfig())
        net.run(7)
        assert net.cycle == 7

    def test_activity_counts_link_deliveries(self):
        net = Network(baseline_system(), NocConfig())
        net.nis[16].send_message(17, 0, 1, 0)
        net.run(30)
        assert net.activity > 0
        assert net.link_traversals >= 1  # at least the 16->17 hop

    def test_idle_routers_skipped(self):
        """The dirty-flag fast path: untouched routers never evaluate."""
        net = Network(baseline_system(), NocConfig())
        net.nis[16].send_message(17, 0, 1, 0)
        net.run(60)
        far_away = net.routers[79]
        assert not far_away._dirty

    def test_drain_reports_success_on_empty(self):
        net = Network(baseline_system(), NocConfig())
        assert net.drain(max_cycles=10)


class TestDatapathStats:
    def test_vector_stats_report_batch_work_only(self):
        net = Network(baseline_system(), NocConfig(datapath="vector"), UnprotectedScheme())
        net.run(20)
        stats = net.datapath_stats()
        assert set(stats) == {
            "engine", "cycles", "static_cycles", "scalar_cycles",
            "scalar_router_cycles", "batched_flits", "batched_deliveries",
            "scalar_fallback_fraction",
        }
        assert stats["engine"] == "vector"
        assert stats["cycles"] == 20
        assert stats["static_cycles"] <= stats["cycles"]

    def test_scalar_engines_name_themselves(self):
        legacy = Network(baseline_system(), NocConfig(datapath="legacy"), UnprotectedScheme())
        assert legacy.vector is None
        assert legacy.datapath_stats() == {"engine": "legacy"}

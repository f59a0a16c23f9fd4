"""Unit tests for the three deadlock-freedom schemes' static structure."""

import pytest

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.router import RouterKind
from repro.schemes.base import PROFILE_COLUMNS
from repro.schemes.composable import ComposableRoutingScheme, design_chiplet
from repro.schemes.none import UnprotectedScheme
from repro.schemes.remote_control import RemoteControlScheme
from repro.schemes.upp import UPPScheme
from repro.topology.chiplet import baseline_system
from repro.topology.faults import inject_faults


class TestQualitativeProfiles:
    """Table I, as machine-checkable claims."""

    def test_all_schemes_report_all_columns(self):
        for scheme in (
            UPPScheme(),
            ComposableRoutingScheme(),
            RemoteControlScheme(),
            UnprotectedScheme(),
        ):
            profile = scheme.qualitative_profile()
            for column in PROFILE_COLUMNS:
                assert column in profile

    def test_upp_is_the_only_all_yes_row(self):
        upp = UPPScheme().qualitative_profile()
        assert all(upp[c] for c in PROFILE_COLUMNS) and upp["deadlock_free"]
        composable = ComposableRoutingScheme().qualitative_profile()
        assert not composable["full_path_diversity"]
        assert not composable["topology_independence"]
        rc = RemoteControlScheme().qualitative_profile()
        assert not rc["no_injection_control"]
        assert not rc["topology_independence"]


class TestUPPAttachment:
    def test_units_on_correct_layers(self):
        net = Network(baseline_system(), NocConfig(), UPPScheme())
        for router in net.routers.values():
            if router.kind == RouterKind.INTERPOSER:
                assert router.upp is not None and router.upp_tables is None
            else:
                assert router.upp is None and router.upp_tables is not None


class TestComposableDesign:
    def test_eight_restrictions_per_chiplet(self):
        """The paper reports 8 unidirectional turn restrictions on the 4
        boundary routers of a 4x4 chiplet (Fig. 2a)."""
        topo = baseline_system()
        design, _evals = design_chiplet(topo, 0)
        assert len(design.restrictions) == 8

    def test_restrictions_only_on_boundary_routers(self):
        topo = baseline_system()
        design, _ = design_chiplet(topo, 0)
        boundaries = set(topo.boundary_routers(0))
        for rid, _in, _out in design.restrictions:
            assert rid in boundaries

    def test_funneling_emerges(self):
        """Restricted exits concentrate sources onto fewer boundary
        routers (Sec. III-B load imbalance)."""
        topo = baseline_system()
        design, _ = design_chiplet(topo, 0)
        from collections import Counter

        load = Counter(design.exit_sel.values())
        assert max(load.values()) >= 6  # vs 4 under balanced binding

    def test_faulty_topology_rejected(self):
        import random

        topo = baseline_system()
        inject_faults(topo, 3, random.Random(0))
        with pytest.raises(ValueError):
            Network(topo, NocConfig(), ComposableRoutingScheme())

    def test_design_cost_tracked(self):
        net = Network(baseline_system(), NocConfig(), ComposableRoutingScheme())
        stats = net.scheme.stats_snapshot()
        assert stats["turn_restrictions"] == 32
        assert stats["design_evaluations"] > 32


    def test_rebuild_reports_the_latest_topology_only(self):
        """A scheme object rebuilt on a system with fewer chiplets must
        not keep reporting the earlier system's designs."""
        from repro.topology.registry import get_topology

        scheme = ComposableRoutingScheme()
        Network(baseline_system(), NocConfig(), scheme)
        Network(get_topology("mc-2x1")(), NocConfig(), scheme)
        assert sorted(scheme.designs) == [0, 1]
        assert scheme.stats_snapshot() == {
            "turn_restrictions": 4,
            "design_evaluations": 12,
        }


class TestRemoteControlAttachment:
    def test_units_on_boundary_routers_only(self):
        net = Network(baseline_system(), NocConfig(), RemoteControlScheme())
        boundaries = set(net.topo.boundary_routers())
        for rid, router in net.routers.items():
            assert (router.rc_unit is not None) == (rid in boundaries)

    def test_all_nis_gated(self):
        net = Network(baseline_system(), NocConfig(), RemoteControlScheme())
        assert all(ni.inject_gate is not None for ni in net.nis.values())

    def test_intra_chiplet_packets_not_gated(self):
        net = Network(baseline_system(), NocConfig(), RemoteControlScheme())
        scheme = net.scheme
        ni = net.nis[16]
        from repro.noc.flit import Packet

        intra = Packet(16, 31, 0, 1, 0)
        assert scheme._gate(ni, intra, 0) is True
        to_directory = Packet(16, 4, 0, 1, 0)
        assert scheme._gate(ni, to_directory, 0) is True

    def test_inter_chiplet_packets_wait_for_grant(self):
        net = Network(baseline_system(), NocConfig(), RemoteControlScheme())
        scheme = net.scheme
        ni = net.nis[16]
        from repro.noc.flit import Packet

        inter = Packet(16, 79, 0, 1, 0)
        assert scheme._gate(ni, inter, 0) is False  # request submitted
        assert scheme.total_requests == 1
        # the grant arrives after the permission-subnetwork round trip
        rtt = scheme.handshake_rtt
        assert scheme._gate(ni, inter, 1) is False
        for cycle in range(rtt + 1):
            scheme.post_cycle(net, cycle)
        assert scheme._gate(ni, inter, rtt + 1) is True

    def test_grants_are_serialised_one_per_cycle(self):
        """Contention in buffer reservation (Sec. III-B): the boundary's
        arbiter issues one grant per cycle, so burst requesters queue."""
        net = Network(baseline_system(), NocConfig(), RemoteControlScheme())
        scheme = net.scheme
        from repro.noc.flit import Packet

        boundary = net.routing.entry_binding[79]
        controller = scheme.controllers[boundary]
        for src in (16, 17, 18, 19):
            packet = Packet(src, 79, 0, 1, 0)
            scheme._gate(net.nis[src], packet, 0)
        scheme.post_cycle(net, 0)
        assert len(controller.queue) == 3  # one served per cycle
        for cycle in range(1, 12):
            scheme.post_cycle(net, cycle)
        # all four fit in the VNet-0 slots (>= 2 per VNet x VC scaling
        # is irrelevant here: 2 slots, so two wait for slot releases)
        assert controller.grants_issued == min(4, 2)
        assert scheme.total_grants == controller.grants_issued
        # releasing slots lets the queued requesters through
        scheme.release_slot(boundary, 0)
        scheme.release_slot(boundary, 0)
        for cycle in range(12, 20):
            scheme.post_cycle(net, cycle)
        assert controller.grants_issued == 4

    def test_too_few_slots_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            Network(baseline_system(), NocConfig(), RemoteControlScheme(n_slots=2))


class TestTaxonomy:
    """The full Table I, conventional families included."""

    def test_eight_rows(self):
        from repro.schemes.taxonomy import table1_rows

        rows = table1_rows()
        assert len(rows) == 8
        assert sum(1 for r in rows if r["group"] == "conventional") == 5

    def test_upp_is_unique_all_yes(self):
        from repro.schemes.taxonomy import only_all_yes_row

        assert only_all_yes_row() == "upp"

    def test_family_violations_documented(self):
        from repro.schemes.taxonomy import CONVENTIONAL_FAMILIES

        for family in CONVENTIONAL_FAMILIES:
            assert family.modularity_violation
            assert family.examples

    def test_profiles_match_paper_table(self):
        from repro.schemes.taxonomy import table1_rows

        by_name = {r["name"]: r for r in table1_rows()}
        # spot-check the distinctive cells of Table I
        assert not by_name["dally_theory"]["topology_modularity"]
        assert not by_name["duato_theory"]["vc_modularity"]
        assert not by_name["bubble_flow_control"]["flow_control_modularity"]
        assert by_name["deflection"]["topology_independence"]
        assert not by_name["spin"]["flow_control_modularity"]
        assert not by_name["composable"]["full_path_diversity"]
        assert not by_name["remote_control"]["no_injection_control"]

"""Unit tests for the static deadlock-freedom certifier.

The certifier must (a) prove the paper's Sec. IV theorem on the
unrestricted routing (every CDG cycle crosses an upward channel),
(b) prove composable routing's restricted CDG acyclic, and (c) reject
broken routing functions via the totality walk.
"""

import random

import pytest

from repro.analysis.certifier import (
    EXPECT_ACYCLIC,
    EXPECT_UPWARD_CYCLES,
    VERDICT_ACYCLIC,
    VERDICT_UNSOUND,
    VERDICT_UPWARD_ONLY,
    Certificate,
    TotalityReport,
    certify_network,
    check_routing_totality,
    recertify_after_faults,
)
from repro.analysis.sanitizer import InvariantViolation
from repro.noc.config import NocConfig
from repro.noc.flit import Port
from repro.noc.network import Network
from repro.schemes.composable import ComposableRoutingScheme
from repro.schemes.upp import UPPScheme
from repro.topology.chiplet import baseline_system
from repro.topology.faults import inject_faults


@pytest.fixture(scope="module")
def upp_net():
    return Network(baseline_system(), NocConfig(), UPPScheme())


@pytest.fixture(scope="module")
def composable_net():
    return Network(baseline_system(), NocConfig(), ComposableRoutingScheme())


def chiplet_zero_vertical_links(topo):
    """Every vertical link into or out of chiplet 0, as directed pairs."""
    cut = {
        (spec.src, spec.dst)
        for spec in topo.links
        if spec.src_port in (Port.UP, Port.UP2, Port.DOWN)
        and (topo.chiplet_of[spec.src] == 0 or topo.chiplet_of[spec.dst] == 0)
    }
    assert cut, "baseline system must have chiplet-0 vertical links"
    return cut


class TestTotality:
    def test_healthy_routing_is_total(self, upp_net):
        n = upp_net.topo.n_routers
        report = check_routing_totality(upp_net)
        assert report.ok
        assert report.routes_checked == n * (n - 1)
        assert 0 < report.max_route_hops <= 4 * n

    def test_node_subset(self, upp_net):
        report = check_routing_totality(upp_net, nodes=[0, 1, 2])
        assert report.ok
        assert report.routes_checked == 6

    def test_misroute_detected(self, upp_net, monkeypatch):
        """A routing function that ejects early is flagged as LOCAL
        misroute, not silently accepted."""
        monkeypatch.setattr(
            upp_net, "routing", lambda router, in_port, dst, src: Port.LOCAL
        )
        report = check_routing_totality(upp_net, nodes=[0, 1])
        assert not report.ok
        assert {v.kind for v in report.violations} == {"misroute"}

    def test_channel_reuse_detected(self, upp_net, monkeypatch):
        """An EAST/WEST ping-pong revisits a channel: livelock, flagged."""

        def bounce(router, in_port, dst, src):
            # EAST one hop, immediately WEST back, EAST again: the source
            # router's EAST channel repeats on the third hop
            return Port.WEST if in_port == Port.WEST else Port.EAST

        monkeypatch.setattr(upp_net, "routing", bounce)
        report = check_routing_totality(upp_net, nodes=[0, 5])
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds <= {"channel-reuse", "dead-end"}
        assert "channel-reuse" in kinds

    def test_dead_end_detected(self, upp_net, monkeypatch):
        """Routing into a port with no healthy link is a dead end."""
        monkeypatch.setattr(
            upp_net, "routing", lambda router, in_port, dst, src: Port.UP
        )
        report = check_routing_totality(upp_net, nodes=[0, 1])
        assert not report.ok
        assert any(v.kind == "dead-end" for v in report.violations)


class TestCertifyNetwork:
    def test_upp_upward_only(self, upp_net):
        cert = certify_network(upp_net)
        assert cert.expectation == EXPECT_UPWARD_CYCLES
        assert cert.cyclic
        assert cert.all_cycles_upward
        assert cert.verdict == VERDICT_UPWARD_ONLY
        assert cert.ok
        assert cert.n_cyclic_sccs >= 1
        assert cert.largest_scc > 1
        assert cert.non_upward_witness is None

    def test_composable_acyclic(self, composable_net):
        cert = certify_network(composable_net)
        assert cert.expectation == EXPECT_ACYCLIC
        assert not cert.cyclic
        assert cert.verdict == VERDICT_ACYCLIC
        assert cert.ok
        assert cert.n_cyclic_sccs == 0
        assert cert.witness_cycles == []

    def test_witnesses_bounded(self, upp_net):
        cert = certify_network(upp_net, max_witnesses=3)
        assert 1 <= len(cert.witness_cycles) <= 3
        # each witness is a genuine channel cycle in the CDG
        for cycle in cert.witness_cycles:
            assert len(cycle) >= 2
            assert all(isinstance(rid, int) for rid, _port in cycle)

    def test_unsound_routing_fails_certification(self, upp_net, monkeypatch):
        monkeypatch.setattr(
            upp_net, "routing", lambda router, in_port, dst, src: Port.LOCAL
        )
        cert = certify_network(upp_net)
        assert cert.verdict == VERDICT_UNSOUND
        assert not cert.ok

    def test_summary_mentions_verdict(self, upp_net):
        cert = certify_network(upp_net)
        line = cert.summary()
        assert "upp" in line
        assert VERDICT_UPWARD_ONLY in line
        assert line.endswith("OK")


class TestCertificateLogic:
    def _cert(self, **overrides):
        base = dict(
            scheme="x", expectation=EXPECT_UPWARD_CYCLES, n_routers=4,
            n_faulty_links=0, n_channels=8, n_dependencies=8, cyclic=True,
            n_cyclic_sccs=1, largest_scc=4, all_cycles_upward=True,
            witness_cycles=[], non_upward_witness=None,
            totality=TotalityReport(routes_checked=12),
        )
        base.update(overrides)
        return Certificate(**base)

    def test_acyclic_expectation_rejects_cycles(self):
        cert = self._cert(expectation=EXPECT_ACYCLIC)
        assert not cert.ok

    def test_upward_expectation_accepts_acyclic(self):
        """A degenerate topology with no cycles still satisfies the
        upward-cycles expectation (vacuously)."""
        cert = self._cert(cyclic=False, n_cyclic_sccs=0, largest_scc=0)
        assert cert.ok

    def test_non_upward_cycle_rejected(self):
        cert = self._cert(all_cycles_upward=False)
        assert not cert.ok
        assert cert.verdict == "cyclic-non-upward"

    def test_totality_defect_dominates(self):
        report = TotalityReport(routes_checked=1)
        report.violations.append(object())
        cert = self._cert(totality=report)
        assert cert.verdict == VERDICT_UNSOUND
        assert not cert.ok


class TestRecertification:
    def test_recertify_after_faults(self):
        """The Sec. IV property survives runtime reconfiguration."""
        topo = baseline_system()
        net = Network(topo, NocConfig(), UPPScheme())
        before = set(topo.faulty)
        inject_faults(topo, 2, random.Random(7))
        cert = recertify_after_faults(net, topo.faulty - before)
        assert cert.n_faulty_links == len(topo.faulty) > 0
        assert cert.ok
        assert cert.verdict == VERDICT_UPWARD_ONLY

    def test_faulty_composable_rejected_at_build(self):
        topo = baseline_system()
        inject_faults(topo, 1, random.Random(3))
        with pytest.raises(ValueError):
            Network(topo, NocConfig(), ComposableRoutingScheme())

    def test_two_successive_reconfigurations_recertify(self):
        """A second fault event re-certifies against the routing rebuilt
        after the first one, not against the original tables."""
        topo = baseline_system()
        net = Network(topo, NocConfig(), UPPScheme())
        certs = []
        for seed in (11, 12):
            before = set(topo.faulty)
            inject_faults(topo, 1, random.Random(seed))
            certs.append(recertify_after_faults(net, topo.faulty - before))
        first, second = certs
        assert first.ok and second.ok
        assert second.verdict == VERDICT_UPWARD_ONLY
        assert second.n_faulty_links == len(topo.faulty)
        assert second.n_faulty_links > first.n_faulty_links > 0
        # the live network really runs on the twice-rebuilt tables
        assert certify_network(net).ok

    def test_disconnected_destination_fails_totality_not_hangs(self):
        """Failing every vertical link of one chiplet strands all routes
        into/out of it; the totality walk must report dead ends and
        terminate (bounded hop walk), not loop forever.  The sanitizer is
        pinned off: it would refuse the reconfiguration (see the twin
        below) before the certificate is returned."""
        topo = baseline_system()
        net = Network(topo, NocConfig(sanitize=False), UPPScheme())
        cut = chiplet_zero_vertical_links(topo)
        topo.faulty |= cut
        cert = recertify_after_faults(net, cut)
        assert not cert.ok
        assert cert.verdict == VERDICT_UNSOUND
        assert not cert.totality.ok
        kinds = {v.kind for v in cert.totality.violations}
        assert "dead-end" in kinds
        # every stranded route involves the disconnected chiplet
        assert len(cert.totality.violations) > 100

    def test_sanitizer_rejects_disconnecting_reconfiguration(self):
        """The same cut under the sanitizer: its reconfiguration hook
        certifies the rebuilt routing and raises instead of running on."""
        topo = baseline_system()
        net = Network(topo, NocConfig(sanitize=True), UPPScheme())
        cut = chiplet_zero_vertical_links(topo)
        topo.faulty |= cut
        with pytest.raises(
            InvariantViolation,
            match="post-reconfiguration routing failed static certification",
        ):
            recertify_after_faults(net, cut)


class TestCertificateToDict:
    def test_round_trips_through_json(self, upp_net):
        import json

        cert = certify_network(upp_net)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["scheme"] == "upp"
        assert payload["ok"] is True
        assert payload["verdict"] == VERDICT_UPWARD_ONLY
        assert payload["totality"]["ok"] is True
        assert payload["witness_cycles"]
        # chains serialize as [[rid, port-name], ...]
        rid, port_name = payload["witness_cycles"][0][0]
        assert isinstance(rid, int) and isinstance(port_name, str)

    def test_violations_capped(self, upp_net, monkeypatch):
        monkeypatch.setattr(
            upp_net, "routing", lambda router, in_port, dst, src: Port.LOCAL
        )
        cert = certify_network(upp_net)
        payload = cert.to_dict(max_violations=3)
        assert payload["totality"]["n_violations"] > 3
        assert len(payload["totality"]["violations"]) == 3

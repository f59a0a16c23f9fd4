"""Unit tests for link pipelines."""

import pytest

from repro.noc.buffer import Credit
from repro.noc.config import NocConfig
from repro.noc.flit import Packet, Port
from repro.noc.link import Link
from repro.noc.network import Network
from repro.topology.chiplet import baseline_system


def flit(src=0, dst=1, vnet=0):
    return Packet(src, dst, vnet, 1, 0).make_flits()[0]


def two_cycle_link(datapath):
    """A network whose links take 2 cycles, and one of its router links."""
    cfg = NocConfig(link_latency=2, datapath=datapath, sanitize=False)
    net = Network(baseline_system(), cfg)
    return net, net._router_links[0]


class TestLink:
    def test_dst_port_derived_from_src_port(self):
        link = Link(3, 4, Port.NORTH)
        assert link.dst_port == Port.SOUTH

    def test_dst_port_constructor_override(self):
        # asymmetric vertical wiring (UP2/DOWN2) needs an explicit dst_port
        link = Link(3, 4, Port.DOWN2, dst_port=Port.UP2)
        assert link.dst_port == Port.UP2

    def test_faulty_link_rejects_traffic(self):
        link = Link(0, 1, Port.EAST)
        link.faulty = True
        with pytest.raises(RuntimeError):
            link.send_flit(flit(), 0, 0)

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError):
            Link(0, 1, Port.EAST, latency=0)

    def test_flits_carried_counter(self):
        link = Link(0, 1, Port.EAST)
        for i in range(3):
            link.send_flit(flit(), 0, i)
        assert link.flits_carried == 3


@pytest.mark.parametrize("datapath", ["vector", "legacy"])
class TestNetworkDelivery:
    """The network drains a link exactly ``latency`` cycles after a send,
    on both engines."""

    def test_delivery_after_latency(self, datapath):
        net, link = two_cycle_link(datapath)
        f = flit(link.src, link.dst)
        link.send_flit(f, 0, net.cycle)
        vc = net.routers[link.dst].in_ports[link.dst_port].vcs[0]
        for _ in range(2):
            net.step()
            assert link.in_flight == 1 and vc.front() is None
        net.step()
        assert link.in_flight == 0 and vc.front() is f

    def test_pipelined_flits_arrive_in_send_order(self, datapath):
        net, link = two_cycle_link(datapath)
        a, b = flit(link.src, link.dst, 0), flit(link.src, link.dst, 1)
        vcs = net.routers[link.dst].in_ports[link.dst_port].vcs
        link.send_flit(a, 0, net.cycle)
        net.step()
        link.send_flit(b, 1, net.cycle)
        net.step()
        net.step()
        assert vcs[0].front() is a and vcs[1].front() is None
        net.step()
        assert vcs[1].front() is b and link.idle

    def test_credit_path(self, datapath):
        net, link = two_cycle_link(datapath)
        out = net.routers[link.src].out_ports[link.src_port]
        depth = out.credits[0]
        out.consume_credit(0)
        link.send_credit(Credit(0, False), net.cycle)
        for _ in range(2):
            net.step()
            assert out.credits[0] == depth - 1
        net.step()
        assert out.credits[0] == depth and link.idle

    def test_payload_already_due_leaves_at_next_delivery(self, datapath):
        """A payload sent with a due cycle that has already passed (state
        planted by a test or diagnostic) is delivered by the next delivery
        phase, not stranded."""
        net, link = two_cycle_link(datapath)
        net.run(5)
        f = flit(link.src, link.dst)
        out = net.routers[link.src].out_ports[link.src_port]
        depth = out.credits[0]
        out.consume_credit(0)
        link.send_flit(f, 0, net.cycle - 4)
        link.send_credit(Credit(0, False), net.cycle - 3)
        net.step()
        vc = net.routers[link.dst].in_ports[link.dst_port].vcs[0]
        assert vc.front() is f and out.credits[0] == depth and link.idle

    def test_delivery_at_exactly_send_cycle_plus_latency(self, datapath):
        net, link = two_cycle_link(datapath)
        net.run(3)
        sent = net.cycle
        f = flit(link.src, link.dst)
        link.send_flit(f, 0, sent)
        if datapath == "vector":
            assert net.vector.calendar[sent + link.latency] == [link._order]
        vc = net.routers[link.dst].in_ports[link.dst_port].vcs[0]
        while vc.front() is None:
            net.step()
        assert f.arrival_cycle == sent + link.latency == net.cycle - 1

    def test_links_sharing_a_due_cycle_deliver_in_link_order(self, datapath):
        """Links due in the same cycle are drained in ascending ``_order``
        (the full sweep's order), whatever order they were sent in."""
        net, _ = two_cycle_link(datapath)
        links = net._ni_down_links[:3]
        assert [link._order for link in links] == sorted(lk._order for lk in links)
        received = []
        for link in links:
            ni = net.nis[link.dst]
            ni.receive_flit = (
                lambda f, vc, cycle, ni=ni, deliver=ni.receive_flit:
                received.append(ni.node) or deliver(f, vc, cycle)
            )
        for link in reversed(links):
            link.send_flit(flit(link.dst + 1, link.dst), 0, net.cycle)
        # a credit due in the same cycle queues the middle link twice
        middle = links[1]
        out = net.routers[middle.src].out_ports[Port.LOCAL]
        depth = out.credits[0]
        out.consume_credit(0)
        middle.send_credit(Credit(0, False), net.cycle)
        net.run(middle.latency + 1)
        assert received == [link.dst for link in links]
        assert out.credits[0] == depth

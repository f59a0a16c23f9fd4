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

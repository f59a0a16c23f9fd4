"""Unit tests for virtual channels and credit state."""

import pytest

from repro.noc.buffer import _NEVER, Credit, InputPort, OutputPort, VirtualChannel
from repro.noc.config import NocConfig
from repro.noc.flit import Packet, Port
from repro.noc.network import Network
from repro.schemes.none import UnprotectedScheme
from repro.topology.chiplet import baseline_system


def packet(size=3, vnet=0):
    return Packet(0, 1, vnet, size, 0)


def fill(vc, pkt, cycle=0):
    for flit in pkt.make_flits():
        vc.push(flit, cycle)


class TestVirtualChannel:
    def test_push_allocates_on_header(self):
        vc = VirtualChannel(0, 0, 4)
        pkt = packet()
        assert vc.is_idle
        vc.push(pkt.make_flits()[0], 5)
        assert vc.active_pid == pkt.pid
        assert vc.front().arrival_cycle == 5

    def test_tail_pop_resets(self):
        vc = VirtualChannel(0, 0, 4)
        pkt = packet(size=2)
        fill(vc, pkt)
        vc.out_port = Port.NORTH
        vc.out_vc = 0
        vc.pop()
        assert not vc.is_idle
        vc.pop()
        assert vc.is_idle
        assert vc.out_port is None and vc.out_vc == -1

    def test_overflow_raises(self):
        vc = VirtualChannel(0, 0, 2)
        pkt = packet(size=3)
        flits = pkt.make_flits()
        vc.push(flits[0], 0)
        vc.push(flits[1], 0)
        with pytest.raises(OverflowError):
            vc.push(flits[2], 0)

    def test_interleaving_header_rejected(self):
        vc = VirtualChannel(0, 0, 4)
        fill(vc, packet(size=2))
        foreign = packet(size=1).make_flits()[0]
        with pytest.raises(RuntimeError):
            vc.push(foreign, 0)

    def test_foreign_body_rejected(self):
        vc = VirtualChannel(0, 0, 4)
        vc.push(packet(size=2).make_flits()[0], 0)
        foreign_body = packet(size=3).make_flits()[1]
        with pytest.raises(RuntimeError):
            vc.push(foreign_body, 0)

    def test_free_slots(self):
        vc = VirtualChannel(0, 0, 4)
        assert vc.free_slots == 4
        fill(vc, packet(size=3))
        assert vc.free_slots == 1

    def test_vector_head_due_follows_queue_head(self):
        """A VC bound to the vector engine keeps its cell's ``head_due``
        at the current head's arrival plus the SA delay: set by the push
        that fills an empty queue, re-read from the new head on a pop,
        and reset to "never" when the queue empties."""
        net = Network(baseline_system(), NocConfig(datapath="vector"), UnprotectedScheme())
        vc = net.routers[0].in_ports[Port.LOCAL].vcs[0]
        head_due = net.vector.head_due
        assert vc._cell >= 0 and head_due[vc._cell] == _NEVER
        first, second = packet(size=2).make_flits()
        vc.push(first, 3)
        vc.push(second, 7)  # a push behind the head leaves head_due alone
        assert head_due[vc._cell] == 3 + vc._dly
        vc.pop()
        assert head_due[vc._cell] == 7 + vc._dly
        vc.pop()
        assert head_due[vc._cell] == _NEVER
        assert net.vector.verify_mirrors() == []


class TestInputPort:
    def test_vnet_grouping(self):
        port = InputPort(Port.EAST, n_vnets=3, vcs_per_vnet=2, depth=4)
        assert len(port.vcs) == 6
        for vnet in range(3):
            group = port.vnet_vcs(vnet)
            assert len(group) == 2
            assert all(vc.vnet == vnet for vc in group)

    def test_occupancy(self):
        port = InputPort(Port.EAST, 1, 1, 4)
        assert port.total_occupancy == 0
        fill(port.vcs[0], packet(size=2))
        assert port.total_occupancy == 2
        assert port.occupied() == [port.vcs[0]]


class TestOutputPort:
    def test_credit_lifecycle(self):
        out = OutputPort(Port.NORTH, 1, 1, 4)
        assert out.free_vcs(0) == [0]
        out.allocate(0, owner_pid=7)
        assert out.free_vcs(0) == []
        assert out.vc_owner[0] == 7
        out.consume_credit(0)
        assert out.credits[0] == 3
        out.return_credit(0, vc_free=False)
        assert out.credits[0] == 4 and out.vc_busy[0]
        out.return_credit(0, vc_free=True)
        assert not out.vc_busy[0] and out.vc_owner[0] == -1

    def test_double_allocate_rejected(self):
        out = OutputPort(Port.NORTH, 1, 1, 4)
        out.allocate(0)
        with pytest.raises(RuntimeError):
            out.allocate(0)

    def test_credit_underflow_rejected(self):
        out = OutputPort(Port.NORTH, 1, 1, 1)
        out.consume_credit(0)
        with pytest.raises(RuntimeError):
            out.consume_credit(0)

    def test_free_vcs_respects_credit(self):
        out = OutputPort(Port.NORTH, 1, 1, 1)
        out.consume_credit(0)
        assert out.free_vcs(0) == []


class TestCredit:
    def test_repr(self):
        credit = Credit(2, True)
        assert "vc=2" in repr(credit)

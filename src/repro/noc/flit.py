"""Core NoC data model: ports, flit kinds, flits, and packets.

The model follows the Garnet-style wormhole network described in the paper's
Table II: packets are segmented into flits (1-flit control packets, 5-flit
data packets), flits travel hop by hop through virtual channels, and each
virtual network (VNet) carries one MESI message class.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import count
from typing import Optional


class Port(IntEnum):
    """Router port directions.

    ``LOCAL`` attaches the NI.  ``UP``/``DOWN`` are the vertical-link ports:
    a chiplet boundary router owns a ``DOWN`` port to the interposer and the
    interposer router underneath owns the matching ``UP`` port.
    """

    LOCAL = 0
    NORTH = 1
    SOUTH = 2
    EAST = 3
    WEST = 4
    UP = 5
    DOWN = 6
    #: second vertical link pair, used when a chiplet exposes more boundary
    #: routers than its interposer footprint has routers (Fig. 10, 8
    #: boundary routers per chiplet over a 2x2 interposer quadrant).
    UP2 = 7
    DOWN2 = 8


#: Mesh directions only (no LOCAL / vertical ports).
MESH_PORTS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)

#: Opposite direction for each mesh/vertical port, used to derive the input
#: port on the downstream router of a link.
OPPOSITE = {
    Port.LOCAL: Port.LOCAL,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.UP: Port.DOWN,
    Port.DOWN: Port.UP,
    Port.UP2: Port.DOWN,
    Port.DOWN2: Port.UP2,
}

#: ports that carry traffic from the interposer up into a chiplet.
UPWARD_PORTS = (Port.UP, Port.UP2)


class FlitKind(IntEnum):
    """Flit categories.

    ``HEAD_TAIL`` is a single-flit packet (control packets in Table II).
    The three ``UPP_*`` kinds are the protocol signals of Sec. V-B; they are
    transmitted through the normal router datapath like head flits but are
    stored in the dedicated 32-bit signal buffers and arbitrated with
    priority.
    """

    HEAD = 0
    BODY = 1
    TAIL = 2
    HEAD_TAIL = 3
    UPP_REQ = 4
    UPP_ACK = 5
    UPP_STOP = 6


#: Flit kinds that carry routing information (attend route computation).
HEADER_KINDS = frozenset({FlitKind.HEAD, FlitKind.HEAD_TAIL})

#: Flit kinds belonging to the UPP protocol.
SIGNAL_KINDS = frozenset({FlitKind.UPP_REQ, FlitKind.UPP_ACK, FlitKind.UPP_STOP})

_packet_ids = count()


class Packet:
    """A network packet: the unit of routing and of NI ejection.

    Attributes mirror what a Garnet packet descriptor tracks, plus the
    bookkeeping UPP needs (whether this packet was ever selected as an
    upward packet, and the popup transfer mode of its flits).
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "vnet",
        "size",
        "created_cycle",
        "injected_cycle",
        "ejected_cycle",
        "is_reply_to",
        "hops",
        "popup_count",
        "payload",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        vnet: int,
        size: int,
        created_cycle: int,
        payload: Optional[object] = None,
    ):
        if size < 1:
            raise ValueError(f"packet size must be >= 1 flit, got {size}")
        if src == dst:
            raise ValueError("packet source and destination must differ")
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.vnet = vnet
        self.size = size
        #: cycle the message entered the NI injection queue (queueing latency
        #: is measured from here, per the paper's "queue lat" column).
        self.created_cycle = created_cycle
        #: cycle the head flit left the NI into the network (network latency
        #: is measured from here).
        self.injected_cycle = -1
        self.ejected_cycle = -1
        self.is_reply_to: Optional[int] = None
        self.hops = 0
        #: number of flits of this packet transmitted via UPP popup circuits.
        self.popup_count = 0
        self.payload = payload

    @property
    def network_latency(self) -> int:
        """Cycles from injection into the network to full ejection."""
        if self.ejected_cycle < 0 or self.injected_cycle < 0:
            raise ValueError(f"packet {self.pid} not yet ejected")
        return self.ejected_cycle - self.injected_cycle

    @property
    def total_latency(self) -> int:
        """Cycles from message creation (NI enqueue) to full ejection."""
        if self.ejected_cycle < 0:
            raise ValueError(f"packet {self.pid} not yet ejected")
        return self.ejected_cycle - self.created_cycle

    @property
    def queueing_latency(self) -> int:
        """Cycles the packet waited in the source NI before injection."""
        if self.injected_cycle < 0:
            raise ValueError(f"packet {self.pid} not yet injected")
        return self.injected_cycle - self.created_cycle

    def make_flits(self) -> list:
        """Segment the packet into its flit sequence."""
        if self.size == 1:
            return [Flit(FlitKind.HEAD_TAIL, self, 0)]
        flits = [Flit(FlitKind.HEAD, self, 0)]
        flits.extend(Flit(FlitKind.BODY, self, i) for i in range(1, self.size - 1))
        flits.append(Flit(FlitKind.TAIL, self, self.size - 1))
        return flits

    def __repr__(self) -> str:
        return (
            f"Packet(pid={self.pid}, src={self.src}, dst={self.dst}, "
            f"vnet={self.vnet}, size={self.size})"
        )


class Flit:
    """A single flit.

    ``arrival_cycle`` is the cycle the flit was written into the current
    input VC (buffer write); it becomes eligible for switch allocation the
    following cycle, modelling the paper's 3-stage pipeline (Fig. 5).
    """

    __slots__ = (
        "kind",
        "packet",
        "seq",
        "arrival_cycle",
        "popup",
        "is_header",
        "is_tail",
    )

    #: class-level discriminator, cheaper than isinstance in the link hot path.
    is_signal = False

    def __init__(self, kind: FlitKind, packet: Packet, seq: int):
        self.kind = kind
        self.packet = packet
        self.seq = seq
        self.arrival_cycle = -1
        #: True while this flit is being transmitted over a UPP popup
        #: circuit (buffer-bypassing, single-stage ST, highest priority).
        self.popup = False
        #: precomputed category flags — flits are tested for header/tail
        #: far more often than they are created.
        self.is_header = kind is FlitKind.HEAD or kind is FlitKind.HEAD_TAIL
        self.is_tail = kind is FlitKind.TAIL or kind is FlitKind.HEAD_TAIL

    def __repr__(self) -> str:
        return f"Flit({self.kind.name}, pid={self.packet.pid}, seq={self.seq})"


class SignalFlit:
    """A UPP protocol signal (Sec. V-B2, Fig. 4).

    Signals travel through the same router pipeline as head flits but live
    in dedicated 32-bit buffers and win switch allocation with priority.
    Fields mirror the paper's compact encoding:

    * ``kind``      — 3-bit type field (req / ack / stop).
    * ``dst``       — 8-bit destination router + NI (req/stop only).
    * ``vnet``      — 3-bit one-hot VNet id.
    * ``input_vc``  — 4-bit input VC locator, wormhole only (req): identifies
      the interposer-router VC holding the upward packet so a
      partly-transmitted packet's head can be found in the chiplet.
    * ``start``     — 3-bit one-hot "popup already started" flags (ack).

    ``token`` is simulation bookkeeping (not a hardware field) linking a
    signal to the popup attempt that produced it, so a stale ack arriving
    after an ``UPP_stop`` can be recognised and dropped (protocol rule 3).
    """

    __slots__ = ("kind", "dst", "vnet", "input_vc", "start", "token", "path", "pid")

    #: signals are tracked separately in the network's occupancy counter.
    is_signal = True
    #: signals never carry routing headers or terminate packets.
    is_header = False
    is_tail = False

    def __init__(
        self,
        kind: FlitKind,
        vnet: int,
        dst: int = -1,
        input_vc: int = -1,
        token: int = -1,
    ):
        if kind not in SIGNAL_KINDS:
            raise ValueError(f"{kind!r} is not a UPP signal kind")
        self.kind = kind
        self.dst = dst
        self.vnet = vnet
        self.input_vc = input_vc
        self.start = False
        self.token = token
        #: packet id of the upward packet (req only; models the hardware's
        #: input-VC chain following of Sec. V-B3).
        self.pid = -1
        #: list of router ids traversed so far; an UPP_ack follows this path
        #: in reverse instead of attending route computation (Sec. V-B2).
        self.path: list = []

    def __repr__(self) -> str:
        return f"SignalFlit({self.kind.name}, vnet={self.vnet}, dst={self.dst})"

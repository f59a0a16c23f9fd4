"""Virtual channels, input ports and output-side credit state.

Wormhole flow control with credit-based backpressure (Table II): each VC
holds ``depth`` flit slots (default 4); an upstream router may only send a
flit into a downstream VC when it holds a credit for it, and a VC is
re-allocatable to a new packet only after its previous packet's tail has
drained downstream (signalled by a ``vc_free`` credit).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.noc.flit import Flit, Port
from repro.noc.mirror import mirror_hook

#: sentinel "no head flit" eligibility cycle for the vector-engine
#: mirror arrays (far beyond any reachable simulation cycle).
_NEVER = 1 << 60


class VirtualChannel:
    """One input virtual channel of a router port.

    States follow Garnet: ``IDLE`` (unallocated) -> ``ACTIVE`` (holding a
    packet's flits; the route and output VC chosen for the head flit are
    cached here and reused by the body/tail flits, as in wormhole flow
    control).
    """

    __slots__ = (
        "vnet",
        "vc_index",
        "depth",
        "queue",
        "_out_port",
        "out_vc",
        "active_pid",
        "_popup_tagged",
        "_port",
        # --- vector-datapath mirror bindings (see repro.noc.vector) ---
        "_cell",   # flat (row, vc) index into the engine arrays; -1 unbound
        "_adue",   # per-cell head SA-eligibility cycle array
        "_atag",   # per-cell popup_tagged array
        "_dly",    # owning router's SA eligibility delay
        "_aeng",   # owning engine (re-arms parked cells on local events)
    )

    @mirror_hook
    def __init__(self, vnet: int, vc_index: int, depth: int, port=None):
        self.vnet = vnet
        #: global VC index within the input port (across all VNets).
        self.vc_index = vc_index
        self.depth = depth
        self.queue: deque = deque()
        self._out_port: Optional[Port] = None
        #: output VC allocated to the packet at the head (-1 before VCS).
        self.out_vc: int = -1
        self.active_pid: int = -1
        #: set when an UPP_req found this VC holding the head flit of a
        #: partly-transmitted upward packet (Sec. V-B3): popup starts here.
        self._popup_tagged = False
        #: owning InputPort (its occupancy counter tracks our pushes/pops).
        self._port = port
        # unbound until a vector engine adopts this VC; every write to the
        # mirrored attributes below is reflected into the engine arrays so
        # array state stays truthful no matter which code path mutates it
        self._cell = -1
        self._adue = None
        self._atag = None
        self._dly = 0
        self._aeng = None

    # --- mirrored VC state -------------------------------------------- #
    # The vector engine scans ``popup_tagged`` as a numpy array and parks
    # blocked heads on their route; these properties keep the array in
    # sync and re-arm a parked cell whatever code path (router, UPP
    # machinery, diagnostics) mutates the attribute.

    @property
    def out_port(self) -> Optional[Port]:
        return self._out_port

    @out_port.setter
    @mirror_hook
    def out_port(self, value: Optional[Port]) -> None:
        self._out_port = value
        c = self._cell
        if c >= 0:
            eng = self._aeng
            if eng is not None and eng.parked[c]:
                eng.unpark_cell(c)  # route change invalidates the verdict

    @property
    def popup_tagged(self) -> bool:
        return self._popup_tagged

    @popup_tagged.setter
    @mirror_hook
    def popup_tagged(self, value: bool) -> None:
        self._popup_tagged = value
        c = self._cell
        if c >= 0:
            self._atag[c] = value
            if not value:
                eng = self._aeng
                if eng is not None and eng.parked[c]:
                    eng.unpark_cell(c)  # untagged heads rejoin the scan

    @property
    def is_idle(self) -> bool:
        """True when no packet is allocated to this VC."""
        return self.active_pid < 0

    @property
    def free_slots(self) -> int:
        """Unoccupied flit slots."""
        return self.depth - len(self.queue)

    def front(self) -> Optional[Flit]:
        """The flit at the head of the queue, if any."""
        return self.queue[0] if self.queue else None

    @mirror_hook
    def push(self, flit: Flit, cycle: int) -> None:
        """Buffer write.  Allocates the VC to the packet on a header flit."""
        if len(self.queue) >= self.depth:
            raise OverflowError(
                f"VC overflow (vnet={self.vnet}, vc={self.vc_index}): "
                f"credit protocol violated by {flit!r}"
            )
        if flit.is_header:
            if not self.is_idle:
                raise RuntimeError(
                    f"header flit {flit!r} arrived into busy VC holding "
                    f"packet {self.active_pid} (wormhole interleaving)"
                )
            self.active_pid = flit.packet.pid
        elif flit.packet.pid != self.active_pid:
            raise RuntimeError(
                f"body flit {flit!r} arrived into VC allocated to packet "
                f"{self.active_pid} (wormhole interleaving)"
            )
        flit.arrival_cycle = cycle
        self.queue.append(flit)
        if self._port is not None:
            self._port.occupancy += 1
        c = self._cell
        if c >= 0 and len(self.queue) == 1:
            self._adue[c] = cycle + self._dly

    @mirror_hook
    def pop(self) -> Flit:
        """Remove the front flit; resets the VC to IDLE after the tail."""
        flit = self.queue.popleft()
        if self._port is not None:
            self._port.occupancy -= 1
        c = self._cell
        if c >= 0:
            queue = self.queue
            self._adue[c] = queue[0].arrival_cycle + self._dly if queue else _NEVER
            eng = self._aeng
            if eng is not None and eng.parked[c]:
                eng.unpark_cell(c)  # the parked head is gone
        if flit.is_tail:
            self.active_pid = -1
            self.out_port = None
            self.out_vc = -1
            self.popup_tagged = False
        return flit

    def __repr__(self) -> str:
        return (
            f"VC(vnet={self.vnet}, idx={self.vc_index}, "
            f"occ={len(self.queue)}/{self.depth}, pid={self.active_pid})"
        )


class InputPort:
    """The set of input VCs of one router port, grouped by VNet."""

    __slots__ = ("port", "n_vnets", "vcs_per_vnet", "vcs", "occupancy")

    def __init__(self, port: Port, n_vnets: int, vcs_per_vnet: int, depth: int):
        self.port = port
        self.n_vnets = n_vnets
        self.vcs_per_vnet = vcs_per_vnet
        #: flits buffered across all VCs, maintained by VC push/pop (the
        #: only queue mutation sites) so hot paths can test it in O(1).
        self.occupancy = 0
        self.vcs = [
            VirtualChannel(vc // vcs_per_vnet, vc, depth, self)
            for vc in range(n_vnets * vcs_per_vnet)
        ]

    def vnet_vcs(self, vnet: int):
        """The VC slice belonging to one VNet."""
        base = vnet * self.vcs_per_vnet
        return self.vcs[base : base + self.vcs_per_vnet]

    def occupied(self):
        """VCs currently holding at least one flit."""
        return [vc for vc in self.vcs if vc.queue]

    @property
    def total_occupancy(self) -> int:
        """Flits buffered across all of this port's VCs (the incremental
        counter; ``occupancy()`` cross-checks it against the queues)."""
        return self.occupancy


class OutputPort:
    """Credit and allocation state for one output port.

    ``credits[vc]`` counts free slots in the downstream input VC;
    ``vc_busy[vc]`` is True while the VC is allocated to an in-flight packet
    (cleared when the downstream VC drains its tail and returns a
    ``vc_free`` credit).
    """

    __slots__ = (
        "port",
        "credits",
        "vc_busy",
        "vc_owner",
        "n_vnets",
        "vcs_per_vnet",
        # --- vector-datapath bindings (see repro.noc.vector) ---
        "_orow",  # engine output-row index; -1 unbound
        "_aunpark",  # engine re-arm callback (parked-cell credit events)
    )

    @mirror_hook
    def __init__(self, port: Port, n_vnets: int, vcs_per_vnet: int, depth: int):
        self.port = port
        self.n_vnets = n_vnets
        self.vcs_per_vnet = vcs_per_vnet
        n_vcs = n_vnets * vcs_per_vnet
        self.credits = [depth] * n_vcs
        self.vc_busy = [False] * n_vcs
        #: pid of the packet the VC is allocated to (diagnostics only).
        self.vc_owner = [-1] * n_vcs
        # unbound until a vector engine adopts this port; every reader
        # (router, NI, schemes, sanitizer, tests, the engine's verdicts)
        # uses the plain lists, and return_credit re-arms the engine's
        # cells parked on this port
        self._orow = -1
        self._aunpark = None

    def free_vcs(self, vnet: int, need: int = 1):
        """Output VCs of ``vnet`` that are IDLE downstream and hold at
        least ``need`` credits (``need > 1`` implements virtual
        cut-through's whole-packet admission)."""
        base = vnet * self.vcs_per_vnet
        return [
            vc
            for vc in range(base, base + self.vcs_per_vnet)
            if not self.vc_busy[vc] and self.credits[vc] >= need
        ]

    @mirror_hook
    def allocate(self, vc: int, owner_pid: int = -1) -> None:
        """Reserve an output VC for one packet (the VCS stage)."""
        if self.vc_busy[vc]:
            raise RuntimeError(f"output VC {vc} double-allocated")
        self.vc_busy[vc] = True
        self.vc_owner[vc] = owner_pid

    @mirror_hook
    def consume_credit(self, vc: int) -> None:
        """Spend one downstream buffer slot (flit departure)."""
        credits = self.credits
        if credits[vc] <= 0:
            raise RuntimeError(f"credit underflow on output VC {vc}")
        credits[vc] -= 1

    @mirror_hook
    def return_credit(self, vc: int, vc_free: bool) -> None:
        """Credit return; ``vc_free`` also releases the VC allocation."""
        self.credits[vc] += 1
        if vc_free:
            self.vc_busy[vc] = False
            self.vc_owner[vc] = -1
        if self._orow >= 0:
            self._aunpark(self._orow)  # fresh credit re-arms cells parked here


class Credit:
    """A credit message travelling upstream over a link (1-cycle latency)."""

    __slots__ = ("vc", "vc_free")

    def __init__(self, vc: int, vc_free: bool):
        self.vc = vc
        self.vc_free = vc_free

    def __repr__(self) -> str:
        return f"Credit(vc={self.vc}, free={self.vc_free})"

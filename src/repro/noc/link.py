"""Links: 1-cycle (configurable) pipelined channels between routers.

A :class:`Link` carries flits downstream and credits upstream.  Both
directions are modelled as delivery-time-stamped FIFOs drained by the
network at the start of each cycle, which keeps router evaluation
order-independent: everything a router sends during cycle *t* becomes
visible to its neighbour no earlier than cycle *t + latency*.

Under the vector engine each send also files the link in the engine's
delivery calendar under the payload's due cycle, so the delivery phase
touches only links with a payload due.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.noc.flit import OPPOSITE, Port
from repro.noc.mirror import mirror_hook


class Link:
    """A unidirectional router-to-router channel with its credit return path.

    ``src_port`` is the output port on the upstream router; the flit enters
    the downstream router through ``dst_port`` (defaulting to
    ``OPPOSITE[src_port]``).  Vertical links (chiplet ``DOWN`` <->
    interposer ``UP``) use the same class.
    """

    __slots__ = (
        "src",
        "dst",
        "src_port",
        "dst_port",
        "latency",
        "_flits",
        "_credits",
        "flits_carried",
        "faulty",
        "_sched",
        "kind",
        "_order",
        "_vec_due",
        "_batch_ok",
        "_dst_vcs",
        "_dst_iport",
        "_dst_router",
        "_src_router",
        "_src_oport",
        "_dst_pt",
        "_src_ni",
        "_dst_ni",
    )

    #: delivery-dispatch categories used by the network scheduler.
    ROUTER, NI_UP, NI_DOWN = range(3)

    @mirror_hook
    def __init__(
        self,
        src: int,
        dst: int,
        src_port: Port,
        latency: int = 1,
        dst_port: Optional[Port] = None,
    ):
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = OPPOSITE[src_port] if dst_port is None else dst_port
        if latency < 1:
            raise ValueError("link latency must be >= 1 cycle")
        self.latency = latency
        self._flits: deque = deque()  # (deliver_cycle, flit, out_vc)
        self._credits: deque = deque()  # (deliver_cycle, Credit)
        self.flits_carried = 0
        self.faulty = False
        #: network scheduler (set by the owning network); None standalone.
        self._sched = None
        #: delivery-dispatch category (ROUTER / NI_UP / NI_DOWN).
        self.kind = Link.ROUTER
        #: position in the network's delivery order (full-sweep order).
        self._order = 0
        #: vector-engine delivery calendar: due cycle -> ``_order`` of
        #: every link with a payload due then (the engine visits only
        #: the current cycle's bucket); None outside a vector network.
        self._vec_due = None
        #: True when the engine may drain this link with the batched
        #: delivery path (router-to-router, neither endpoint pinned
        #: scalar); set by the engine at construction/adoption time.
        self._batch_ok = False
        #: batch-delivery bindings (cached endpoint objects), set by the
        #: engine alongside ``_batch_ok``.
        self._dst_vcs = None
        self._dst_iport = None
        self._dst_router = None
        self._src_router = None
        self._src_oport = None
        #: effective downstream input port for batched dispatch
        #: (``Port.LOCAL`` on NI->router links).
        self._dst_pt = None
        #: NI endpoints for the batch-delivered NI link sides (the flit
        #: side of router->NI and the credit side of NI->router links
        #: keep their scalar object handlers).
        self._src_ni = None
        self._dst_ni = None

    @mirror_hook
    def send_flit(self, flit, out_vc: int, cycle: int) -> None:
        """Enqueue a flit departing the upstream switch at ``cycle`` (ST);
        it is buffer-written downstream at ``cycle + latency`` (LT)."""
        if self.faulty:
            raise RuntimeError(f"flit sent over faulty link {self.src}->{self.dst}")
        due = cycle + self.latency
        self._flits.append((due, flit, out_vc))
        self.flits_carried += 1
        calendar = self._vec_due
        if calendar is not None:
            bucket = calendar.get(due)
            if bucket is None:
                calendar[due] = [self._order]
            else:
                bucket.append(self._order)
        if flit.is_signal and self._sched is not None:
            self._sched.note_signal_entered_link()

    @mirror_hook
    def send_credit(self, credit, cycle: int) -> None:
        """Send a credit upstream (same latency as the data path)."""
        due = cycle + self.latency
        self._credits.append((due, credit))
        calendar = self._vec_due
        if calendar is not None:
            bucket = calendar.get(due)
            if bucket is None:
                calendar[due] = [self._order]
            else:
                bucket.append(self._order)

    @property
    def in_flight(self) -> int:
        """Flits currently traversing the link."""
        return len(self._flits)

    @property
    def idle(self) -> bool:
        """True when neither direction has anything queued."""
        return not self._flits and not self._credits

    def __repr__(self) -> str:
        return f"Link({self.src}->{self.dst} via {self.src_port.name})"

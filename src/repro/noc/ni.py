"""Network interface (NI) and processing-element endpoint model.

The NI model follows Sec. V-B4: per-VNet *injection queues* receive messages
from the PE and segment them into flits; per-VNet finite *ejection queues*
receive packets from the network and hold them until the PE consumes them.
Both sides are separated per message class (VNet) to avoid protocol
deadlocks.

UPP additions (Fig. 6, bottom): a reservation table with one entry per VNet,
the ``UPP_req`` / ``UPP_stop`` processing units at the ejection side and the
``UPP_ack`` unit at the injection side.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.noc.buffer import Credit, InputPort, OutputPort
from repro.noc.config import NocConfig
from repro.noc.flit import Flit, FlitKind, Packet, Port, SignalFlit

#: ``Endpoint.next_event`` value of an endpoint that will never act again
#: unless something outside it (an arrival, a new message) wakes its NI.
NEVER = float("inf")


class Endpoint:
    """Base processing element attached behind an NI.

    Subclasses implement traffic generation (``step``) and the consumption
    policy (``consume``).  The consumption policy is what the Sec. V-B4
    liveness proof relies on, so it is part of the substrate, not the
    traffic layer.
    """

    def bind(self, ni: "NetworkInterface") -> None:
        """Attach this endpoint behind an NI (called by ``set_endpoint``)."""
        self.ni = ni

    def step(self, cycle: int) -> None:  # pragma: no cover - interface
        """Generate new messages into the NI injection queues."""

    def next_event(self, cycle: int) -> Optional[float]:
        """The earliest cycle after ``cycle`` at which ``step`` *or*
        ``consume`` could act on its own, :data:`NEVER` when neither will
        act again, or ``None`` when the endpoint must be polled every cycle.

        Arrivals need no announcement: a flit, signal or ejected message
        wakes the NI by itself.  Endpoints whose schedule is known ahead of
        time (Bernoulli injectors and coherence cores with a pre-drawn
        success, trace replay) override this so their NI can sleep between
        events; the NI arms a timer for the returned cycle.  It must not
        change endpoint state: the sanitizer calls it to audit sleepers."""
        return None

    def consume(self, cycle: int) -> None:
        """Drain ejection queues.  Default: consume every message class
        unconditionally at one message per VNet per cycle (an ideal sink)."""
        for vnet in range(self.ni.cfg.n_vnets):
            self.ni.consume_message(vnet)


class NetworkInterface:
    """One NI, attached to a router's LOCAL port through 1-cycle links."""

    def __init__(self, node: int, cfg: NocConfig, rng):
        self.node = node
        self.cfg = cfg
        self.rng = rng
        self.router = None
        self.to_router = None  # Link NI -> router (set by network)
        self.from_router = None  # Link router -> NI
        #: active-set scheduler (the owning network); None standalone.
        self._net = None
        #: True while registered in the scheduler's active-NI set.
        self._queued = False
        #: Endpoint polling flags: an endpoint that overrides ``step``
        #: (traffic draws) or ``consume`` (custom consumption policy) owns
        #: per-cycle behaviour; the NI calls that side on every step and
        #: sleeps only as its ``next_event`` allows.
        self._ep_step_poll = False
        self._ep_consume_poll = False
        #: last endpoint-event cycle a timer was armed for (dedup).
        self._timer_cycle = -1

        # Incremental occupancy/work counters (each mirrors a container so
        # the per-cycle hot path and the sleep check are O(1)):
        #: flits buffered in the NI-side input VCs.
        self._in_flits = 0
        #: messages waiting in the injection queues.
        self._queued_msgs = 0
        #: messages sitting in the ejection queues awaiting consumption.
        self._ejection_ready = 0
        #: held UPP_req signals awaiting a free ejection entry.
        self._pending_count = 0

        #: credit mirror of the router's LOCAL input port.
        self.out_credits = OutputPort(Port.LOCAL, cfg.n_vnets, cfg.vcs_per_vnet, cfg.vc_depth)
        #: NI-side input buffers (the router's LOCAL output drains here).
        self.in_port = InputPort(Port.LOCAL, cfg.n_vnets, cfg.vcs_per_vnet, cfg.vc_depth)

        self.injection_queues: List[deque] = [deque() for _ in range(cfg.n_vnets)]
        self.ejection_queues: List[deque] = [deque() for _ in range(cfg.n_vnets)]

        self._stream_flits: deque = deque()
        self._stream_vc = -1
        self._inject_rr = 0
        self._eject_rr = 0
        self._assembly: Dict[int, List[Flit]] = {}

        self.endpoint: Optional[Endpoint] = None
        #: optional injection gate (remote control's permission handshake).
        self.inject_gate: Optional[Callable[["NetworkInterface", Packet, int], bool]] = None
        #: callback invoked with each fully ejected packet.
        self.on_eject: Optional[Callable[[Packet], None]] = None

        # ---- UPP reservation state (one entry per VNet) ----
        self.reservations: List[int] = [-1] * cfg.n_vnets  # token or -1
        self.pending_reqs: List[Optional[SignalFlit]] = [None] * cfg.n_vnets
        self._popup_assembly: List[List[Flit]] = [[] for _ in range(cfg.n_vnets)]

        # ---- statistics ----
        self.injected_packets = 0
        self.injected_flits = 0
        self.ejected_packets = 0
        self.ejected_flits = 0
        self.popup_ejections = 0
        self.reservation_grants = 0
        self.reservation_waits = 0
        self.popup_overflows = 0

    # ------------------------------------------------------------------ #
    # attachment

    def attach(self, router, to_router, from_router) -> None:
        """Wire this NI to its router's LOCAL port via two links."""
        self.router = router
        router.ni = self
        self.to_router = to_router
        self.from_router = from_router

    def set_endpoint(self, endpoint: Endpoint) -> None:
        """Install the processing element behind this NI."""
        self.endpoint = endpoint
        endpoint.bind(self)
        cls = type(endpoint)
        self._ep_step_poll = cls.step is not Endpoint.step
        self._ep_consume_poll = cls.consume is not Endpoint.consume
        self._wake()

    # ------------------------------------------------------------------ #
    # active-set scheduling

    def _wake(self) -> None:
        """Register with the network's active-NI set."""
        if not self._queued and self._net is not None:
            self._queued = True
            self._net.wake_ni(self)

    def _can_sleep(self, cycle: int) -> bool:
        """True when stepping this NI is provably a no-op until the next
        wake event (flit/credit/signal arrival, a new message, or the
        endpoint's own announced next event).

        A backlogged injection queue does not keep the NI awake on its own:
        when every non-empty VNet is blocked on credits/VC availability
        (and no injection gate is installed), the next state change can
        only come from a returning credit, which wakes the NI.  With an
        injection gate the NI must keep polling — the gate's handshake
        completes out-of-band in the scheme controller.

        An endpoint that overrides ``step`` or ``consume`` forces
        per-cycle polling unless its ``next_event`` names a future cycle —
        then a timer wake at that cycle replaces the polling — or
        :data:`NEVER`, which needs no timer at all.
        """
        if self._in_flits or self._pending_count or self._ejection_ready:
            return False
        ep_wake = NEVER
        if self._ep_step_poll or self._ep_consume_poll:
            wake = self.endpoint.next_event(cycle)
            if wake is None or wake <= cycle:
                return False
            ep_wake = wake
        if self._stream_flits:
            # mid-stream: sleep only while blocked on the stream VC credit
            if self.out_credits.credits[self._stream_vc] > 0:
                return False
        elif self._queued_msgs:
            if self.inject_gate is not None:
                return False
            for vnet, queue in enumerate(self.injection_queues):
                if not queue:
                    continue
                packet = queue[0]
                need = packet.size if self.cfg.flow_control == "vct" else 1
                if self.out_credits.free_vcs(vnet, need):
                    return False
        if ep_wake != NEVER and self._net is not None and ep_wake != self._timer_cycle:
            self._net.schedule_ni_wake(ep_wake, self)
            self._timer_cycle = ep_wake
        return True

    # ------------------------------------------------------------------ #
    # message-level API (used by endpoints and traffic generators)

    def send_message(self, dst: int, vnet: int, size: int, cycle: int, payload=None) -> Optional[Packet]:
        """Enqueue a message for injection.  Returns the packet, or ``None``
        if the injection queue for this VNet is full (PE must retry)."""
        queue = self.injection_queues[vnet]
        if len(queue) >= self.cfg.injection_queue_capacity:
            return None
        packet = Packet(self.node, dst, vnet, size, cycle, payload=payload)
        queue.append(packet)
        self._queued_msgs += 1
        if self._net is not None:
            self._net.note_flits_created(size)
        self._wake()
        return packet

    def injection_space(self, vnet: int) -> int:
        """Free entries in one VNet's injection queue."""
        return self.cfg.injection_queue_capacity - len(self.injection_queues[vnet])

    def consume_message(self, vnet: int) -> Optional[Packet]:
        """PE consumes the oldest ejected message of a VNet (frees an
        ejection-queue entry, which may unblock a pending UPP_req)."""
        queue = self.ejection_queues[vnet]
        if not queue:
            return None
        self._ejection_ready -= 1
        return queue.popleft()

    def peek_message(self, vnet: int) -> Optional[Packet]:
        """The oldest ejected message of a VNet, without consuming it."""
        queue = self.ejection_queues[vnet]
        return queue[0] if queue else None

    def free_ejection_entries(self, vnet: int) -> int:
        """Ejection-queue entries available to new packets (a UPP
        reservation counts as used)."""
        used = len(self.ejection_queues[vnet])
        if self.reservations[vnet] >= 0:
            used += 1
        return self.cfg.ejection_queue_capacity - used

    # ------------------------------------------------------------------ #
    # per-cycle evaluation (called by the network each cycle)

    def step(self, cycle: int) -> None:
        """One NI cycle: eject/reassemble, service reservations, run the
        PE, then stream one injection flit.

        Each phase is guarded by an incrementally maintained counter so an
        NI with nothing to do costs a handful of attribute checks; phase
        order matches the documented cycle semantics exactly.
        """
        if self._in_flits:
            self._eject(cycle)
        if self._pending_count:
            self._service_pending_reservations(cycle)
        if self._ep_consume_poll:
            # custom consumption policy: polled whether or not the
            # ejection queues hold anything (it may track cycles)
            self.endpoint.consume(cycle)
        elif self._ejection_ready:
            # base consumption policy / no PE attached: behave as an ideal
            # sink so the ejection queues drain
            for vnet in range(self.cfg.n_vnets):
                self.consume_message(vnet)
        if self._ep_step_poll:
            self.endpoint.step(cycle)
        if self._stream_flits or self._queued_msgs:
            self._inject(cycle)

    # ------------------------------------------------------------------ #
    # injection side

    def _inject(self, cycle: int) -> None:
        """Stream at most one flit per cycle into the router."""
        if not self._stream_flits:
            self._start_stream(cycle)
        if not self._stream_flits:
            return
        flit = self._stream_flits[0]
        if self.out_credits.credits[self._stream_vc] <= 0:
            return
        self._stream_flits.popleft()
        self.out_credits.consume_credit(self._stream_vc)
        self.to_router.send_flit(flit, self._stream_vc, cycle)
        self.injected_flits += 1
        if flit.is_tail:
            self.injected_packets += 1

    def _start_stream(self, cycle: int) -> None:
        n_vnets = self.cfg.n_vnets
        for offset in range(n_vnets):
            vnet = (self._inject_rr + offset) % n_vnets
            queue = self.injection_queues[vnet]
            if not queue:
                continue
            packet = queue[0]
            need = packet.size if self.cfg.flow_control == "vct" else 1
            free = self.out_credits.free_vcs(vnet, need)
            if not free:
                continue
            if self.inject_gate is not None and not self.inject_gate(self, packet, cycle):
                continue
            queue.popleft()
            self._queued_msgs -= 1
            self._stream_vc = self.rng.choice(free) if len(free) > 1 else free[0]
            self.out_credits.allocate(self._stream_vc, packet.pid)
            packet.injected_cycle = cycle
            self._stream_flits.extend(packet.make_flits())
            self._inject_rr = (vnet + 1) % n_vnets
            return

    def receive_credit(self, credit: Credit) -> None:
        """Credit return from the router's LOCAL input port."""
        self.out_credits.return_credit(credit.vc, credit.vc_free)
        # a credit can unblock a stalled stream or a backlogged queue
        self._wake()

    # ------------------------------------------------------------------ #
    # ejection side

    def receive_flit(self, flit, vc: int, cycle: int) -> None:
        """Buffer write into the NI-side input VCs (from the router link)."""
        if isinstance(flit, SignalFlit):
            self.receive_signal(flit, cycle)
            return
        self.in_port.vcs[vc].push(flit, cycle)
        self._in_flits += 1
        self._wake()

    def _eject(self, cycle: int) -> None:
        """Reassemble at most one flit per cycle from the NI input VCs.

        Head/body flits always drain (freeing credits); a tail flit drains
        only when a non-reserved ejection-queue entry is available — this is
        the backpressure path through which network congestion couples to
        the PE and deadlocks involving ejection can form.
        """
        vcs = self.in_port.vcs
        n = len(vcs)
        for offset in range(n):
            idx = (self._eject_rr + offset) % n
            vc = vcs[idx]
            if not vc.queue:
                continue
            flit = vc.queue[0]
            if flit.is_tail and self.free_ejection_entries(vc.vnet) <= 0:
                continue
            flit = vc.pop()
            self._in_flits -= 1
            self._assembly.setdefault(vc.vc_index, []).append(flit)
            self.from_router.send_credit(Credit(vc.vc_index, flit.is_tail), cycle)
            if flit.is_tail:
                flits = self._assembly.pop(vc.vc_index)
                self._complete_packet(flits, cycle)
            self._eject_rr = (idx + 1) % n
            return

    def _complete_packet(self, flits: List[Flit], cycle: int) -> None:
        packet = flits[0].packet
        if len(flits) != packet.size:
            raise RuntimeError(
                f"reassembly error for {packet!r}: got {len(flits)} flits"
            )
        packet.ejected_cycle = cycle
        self.ejection_queues[packet.vnet].append(packet)
        self._ejection_ready += 1
        self.ejected_packets += 1
        self.ejected_flits += packet.size
        net = self._net
        if net is not None:
            net.note_flits_retired(packet.size)
        if self.on_eject is not None:
            self.on_eject(packet)

    # ------------------------------------------------------------------ #
    # UPP protocol units (Fig. 6 bottom)

    def receive_signal(self, sig: SignalFlit, cycle: int) -> None:
        """UPP_req / UPP_stop processing at the ejection side (Fig. 6)."""
        self._wake()
        vnet = sig.vnet
        if sig.kind == FlitKind.UPP_REQ:
            if self.free_ejection_entries(vnet) > 0:
                self._grant_reservation(sig, cycle)
            else:
                # hold the req until the PE frees an entry; guaranteed to
                # happen by the consumption-policy proof of Sec. V-B4.
                if self.pending_reqs[vnet] is None:
                    self._pending_count += 1
                self.pending_reqs[vnet] = sig
                self.reservation_waits += 1
        elif sig.kind == FlitKind.UPP_STOP:
            if self.reservations[vnet] == sig.token:
                self.reservations[vnet] = -1
            pending = self.pending_reqs[vnet]
            if pending is not None and pending.token == sig.token:
                self.pending_reqs[vnet] = None
                self._pending_count -= 1
        else:
            raise ValueError(f"NI received unexpected signal {sig!r}")

    def _service_pending_reservations(self, cycle: int) -> None:
        for vnet in range(self.cfg.n_vnets):
            sig = self.pending_reqs[vnet]
            if sig is not None and self.free_ejection_entries(vnet) > 0:
                self.pending_reqs[vnet] = None
                self._pending_count -= 1
                self._grant_reservation(sig, cycle)

    def _grant_reservation(self, req: SignalFlit, cycle: int) -> None:
        vnet = req.vnet
        self.reservations[vnet] = req.token
        self.reservation_grants += 1
        ack = SignalFlit(FlitKind.UPP_ACK, vnet, token=req.token)
        ack.path = list(req.path)
        self.to_router.send_flit(ack, 0, cycle)

    def eject_popup_flit(self, flit: Flit, cycle: int) -> None:
        """Terminal hop of a popup circuit: the flit lands directly in the
        reserved ejection-queue entry (Sec. V-B)."""
        self._wake()
        vnet = flit.packet.vnet
        assembly = self._popup_assembly[vnet]
        assembly.append(flit)
        if not flit.is_tail:
            return
        flits, self._popup_assembly[vnet] = assembly, []
        packet = flits[0].packet
        if len(flits) != packet.size or any(
            f.packet.pid != packet.pid for f in flits
        ):
            raise RuntimeError(
                f"popup reassembly corrupted for {packet!r}: "
                f"{len(flits)}/{packet.size} flits (split datapath)"
            )
        if self.reservations[vnet] >= 0:
            self.reservations[vnet] = -1  # reserved entry now holds the message
        elif self.free_ejection_entries(vnet) <= 0:
            # defensive: should be unreachable when the protocol rules hold
            self.popup_overflows += 1
        packet.ejected_cycle = cycle
        self.ejection_queues[vnet].append(packet)
        self._ejection_ready += 1
        self.ejected_packets += 1
        self.ejected_flits += packet.size
        self.popup_ejections += 1
        net = self._net
        if net is not None:
            net.note_flits_retired(packet.size)
        if self.on_eject is not None:
            self.on_eject(packet)

    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        """Flits buffered NI-side (watchdog accounting)."""
        pending_stream = len(self._stream_flits)
        in_vcs = self.in_port.total_occupancy
        assembling = sum(len(v) for v in self._assembly.values())
        popup = sum(len(v) for v in self._popup_assembly)
        queued = sum(
            sum(p.size for p in q) for q in self.injection_queues
        )
        return pending_stream + in_vcs + assembling + popup + queued

    def __repr__(self) -> str:
        return f"NI(node={self.node})"

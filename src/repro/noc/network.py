"""The runtime network: routers, NIs and links built from a topology.

Cycle semantics (order-independent router evaluation):

1. **Delivery** — every link hands over the flits/credits whose latency
   has elapsed (buffer write at the receiver).
2. **Router evaluation** — popup forwarding, signal transport, switch
   allocation; all effects go into link pipelines only.
3. **NI evaluation** — ejection/reassembly, endpoint (PE) work, injection.
4. **Scheme evaluation** — UPP deadlock detection runs here, after the
   cycle's movements are known.

The production engine (``NocConfig.datapath="vector"``,
:mod:`repro.noc.vector`) runs these phases over an **active set** rather
than sweeping every component: routers and NIs register themselves when
their state changes (flit/credit/signal delivery, injection, scheme
action, or an explicit future-cycle timer), and links are found by the
engine's delivery-due scan.  Components are evaluated in ascending id
order — the same relative order as the full sweep — so simulation
results are bit-identical to the scalar reference sweep that
``datapath="legacy"`` selects, which visits every link, dirty router and
NI every cycle.
"""

from __future__ import annotations

import heapq
import random
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.noc.config import NocConfig
from repro.noc.flit import Port
from repro.noc.link import Link
from repro.noc.mirror import mirror_hook
from repro.noc.ni import NetworkInterface
from repro.noc.router import Router, RouterKind

if TYPE_CHECKING:  # noc is the substrate: it must not import the system
    from repro.topology.chiplet import SystemTopology  # layers above it


class Network:
    """A complete chiplet-based system instance."""

    def __init__(
        self,
        topo: SystemTopology,
        cfg: Optional[NocConfig] = None,
        scheme=None,
        rng: Optional[random.Random] = None,
        chiplet_cfgs: Optional[Dict[int, NocConfig]] = None,
    ):
        """``chiplet_cfgs`` optionally overrides the network configuration
        per chiplet id (use -1 for the interposer): VC counts and buffer
        depths may differ per chiplet — the paper's *VC modularity*
        property — while packet formats and VNet count stay global."""
        self.topo = topo
        self.cfg = cfg if cfg is not None else NocConfig()
        self.chiplet_cfgs = chiplet_cfgs or {}
        for chiplet_cfg in self.chiplet_cfgs.values():
            if chiplet_cfg.n_vnets != self.cfg.n_vnets:
                raise ValueError(
                    "VNet count is a system-wide protocol property and "
                    "cannot vary per chiplet"
                )
        self.rng = rng if rng is not None else random.Random(self.cfg.seed)
        self.scheme = scheme
        self.cycle = 0
        #: monotone counter of flit link-traversals; the simulator's
        #: deadlock watchdog watches it for forward progress.
        self.activity = 0
        self.link_traversals = 0

        self.routers: Dict[int, Router] = {}
        self.nis: Dict[int, NetworkInterface] = {}
        self.links: List[Link] = []
        self._router_links: List[Link] = []
        self._ni_down_links: List[Link] = []  # router -> NI
        self._ni_up_links: List[Link] = []  # NI -> router

        # ---- active-set scheduler state ----
        #: woken routers / NIs keyed by id (iterated in sorted order).
        self._active_routers: Dict[int, Router] = {}
        self._active_nis: Dict[int, NetworkInterface] = {}
        #: routers that actually evaluated this cycle (consumed by scheme
        #: ``post_cycle`` hooks, e.g. UPP detection ticks).
        self.stepped_routers: List[Router] = []
        #: (cycle, rid) min-heap of scheduled future router wake-ups.
        self._timers: List = []
        #: (cycle, node) min-heap of scheduled future NI wake-ups
        #: (endpoint-announced events, e.g. pre-drawn injection fires).
        self._ni_timers: List = []
        # ---- incrementally maintained occupancy ----
        #: flits of live packets (created at ``NI.send_message``, retired
        #: when the packet leaves an ejection path into its queue).
        self._live_flits = 0
        #: UPP protocol signals currently traversing links (signals inside
        #: router buffers are not part of :meth:`occupancy`, matching it).
        self._link_signals = 0

        self._build()
        if scheme is not None:
            self.routing = scheme.build_routing(topo, self.cfg, self.rng)
            scheme.attach(self)
        else:
            from repro.schemes.none import UnprotectedScheme

            self.scheme = UnprotectedScheme()
            self.routing = self.scheme.build_routing(topo, self.cfg, self.rng)
            self.scheme.attach(self)
        for router in self.routers.values():
            router.routing = self.routing

        #: struct-of-arrays vector datapath engine (``cfg.datapath``);
        #: None under the scalar reference sweep (``"legacy"``).
        #: Built after scheme attachment so the arrays can adopt scheme
        #: state (popup units).
        self.vector = None
        if self.cfg.datapath == "vector":
            from repro.noc.vector import VectorEngine

            self.vector = VectorEngine(self)
            self.vector.adopt_scheme_state()

        #: opt-in invariant sanitizer (``cfg.sanitize``); read-only, so
        #: enabling it cannot change simulation results.
        self.sanitizer = None
        if self.cfg.sanitize:
            from repro.analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self)

    # ------------------------------------------------------------------ #
    # construction

    def router_cfg(self, rid: int) -> NocConfig:
        """The configuration governing one router's buffers (per-chiplet
        override, or the system default)."""
        return self.chiplet_cfgs.get(self.topo.chiplet_of[rid], self.cfg)

    def _build(self) -> None:
        topo, cfg = self.topo, self.cfg
        for rid in range(topo.n_routers):
            kind = (
                RouterKind.INTERPOSER
                if topo.is_interposer(rid)
                else RouterKind.CHIPLET
            )
            router = Router(
                rid, kind, topo.coords[rid], topo.chiplet_of[rid], self.router_cfg(rid)
            )
            router._rng = self.rng
            router._sched = self
            self.routers[rid] = router

        for spec in topo.links:
            if (spec.src, spec.dst) in topo.faulty:
                continue
            link = Link(
                spec.src, spec.dst, spec.src_port, cfg.link_latency, spec.dst_port
            )
            src, dst = self.routers[spec.src], self.routers[spec.dst]
            # the output port mirrors the *downstream* router's input VCs:
            # this is the credit interface that lets chiplets with
            # different VC counts interoperate (VC modularity, Table I)
            src.add_output(spec.src_port, peer_cfg=dst.cfg)
            src.out_links[spec.src_port] = link
            dst.add_input(spec.dst_port)
            dst.in_links[spec.dst_port] = link
            self.links.append(link)
            self._router_links.append(link)
            if spec.src_port == Port.DOWN:
                src.is_boundary = True

        # NIs on every router
        for rid, router in self.routers.items():
            ni = NetworkInterface(rid, router.cfg, self.rng)
            ni._net = self
            up = Link(rid, rid, Port.LOCAL, cfg.ni_link_latency)
            down = Link(rid, rid, Port.LOCAL, cfg.ni_link_latency)
            up.kind = Link.NI_UP
            down.kind = Link.NI_DOWN
            router.add_input(Port.LOCAL)
            router.add_output(Port.LOCAL)
            router.in_links[Port.LOCAL] = up
            router.out_links[Port.LOCAL] = down
            ni.attach(router, up, down)
            self.nis[rid] = ni
            self.links.append(up)
            self.links.append(down)
            self._ni_up_links.append(up)
            self._ni_down_links.append(down)

        # delivery order mirrors the full sweep: router links first, then
        # NI->router links, then router->NI links
        order = 0
        for link in self._router_links:
            link._order = order
            link._sched = self
            order += 1
        for link in self._ni_up_links:
            link._order = order
            link._sched = self
            order += 1
        for link in self._ni_down_links:
            link._order = order
            link._sched = self
            order += 1

    # ------------------------------------------------------------------ #
    # active-set scheduler hooks (called by links / routers / NIs)

    def wake_router(self, router: Router) -> None:
        """Register a router whose state changed."""
        self._active_routers[router.rid] = router

    def wake_ni(self, ni: NetworkInterface) -> None:
        """Register an NI whose state changed."""
        self._active_nis[ni.node] = ni

    def schedule_wake(self, cycle: int, router: Router) -> None:
        """Arrange for a router to be evaluated at a future cycle even if
        nothing else wakes it (UPP timeout counters, pipeline-eligibility
        waits and similar timers)."""
        heapq.heappush(self._timers, (cycle, router.rid))

    def schedule_ni_wake(self, cycle: int, ni: NetworkInterface) -> None:
        """Arrange for an NI to be evaluated at a future cycle (its
        endpoint announced the next cycle it could act)."""
        heapq.heappush(self._ni_timers, (cycle, ni.node))

    def note_signal_entered_link(self) -> None:
        self._link_signals += 1

    def note_flits_created(self, n: int) -> None:
        self._live_flits += n

    def note_flits_retired(self, n: int) -> None:
        self._live_flits -= n

    # ------------------------------------------------------------------ #
    # per-cycle evaluation

    def step(self) -> None:
        """Advance the whole system by one cycle (see module docstring
        for the phase order)."""
        if self.vector is not None:
            self._step_vector()
        else:
            self._step_full()
        if self.sanitizer is not None:
            self.sanitizer.after_cycle()

    def _step_full(self) -> None:
        """Reference sweep (``datapath="legacy"``): visit every link,
        dirty router and NI every cycle.  The determinism suite proves
        the vector engine bit-identical to it."""
        cycle = self.cycle
        timers = self._timers
        while timers and timers[0][0] <= cycle:
            _, rid = heapq.heappop(timers)
            self.routers[rid].wake()
        ni_timers = self._ni_timers
        while ni_timers and ni_timers[0][0] <= cycle:
            _, node = heapq.heappop(ni_timers)
            self.nis[node]._wake()
        self._deliver_full(cycle)
        stepped = self.stepped_routers
        stepped.clear()
        for router in self.routers.values():
            if router._dirty:
                router.step(cycle)
                stepped.append(router)
        for ni in self.nis.values():
            ni.step(cycle)
        if self.scheme is not None:
            self.scheme.post_cycle(self, cycle)
        self.cycle += 1

    def _step_vector(self) -> None:
        """Vector-engine cycle: same phases as :meth:`_step_full`, but
        delivery due-scans and switch allocation run as array batch
        operations (:mod:`repro.noc.vector`).  The active set still feeds
        the engine — it is how routers with live scheme state (signals,
        popups, boundary buffers) are detected and routed through the
        scalar step."""
        cycle = self.cycle
        timers = self._timers
        while timers and timers[0][0] <= cycle:
            _, rid = heapq.heappop(timers)
            self.routers[rid].wake()
        ni_timers = self._ni_timers
        while ni_timers and ni_timers[0][0] <= cycle:
            _, node = heapq.heappop(ni_timers)
            self.nis[node]._wake()

        vec = self.vector
        vec.deliver(cycle)

        self.stepped_routers.clear()
        vec.switch_phase(cycle)

        active_nis = self._active_nis
        if active_nis:
            for node in sorted(active_nis):
                ni = active_nis[node]
                ni.step(cycle)
                if ni._can_sleep(cycle):
                    del active_nis[node]
                    ni._queued = False

        if self.scheme is not None:
            self.scheme.post_cycle(self, cycle)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Advance by ``cycles`` cycles."""
        for _ in range(cycles):
            self.step()

    @mirror_hook
    def _deliver_one(self, link: Link, cycle: int) -> None:
        """Drain one link's due flits and credits into its endpoints.

        Works directly on the link's timestamped deques (the single
        hottest loop in the simulator)."""
        kind = link.kind
        flits = link._flits
        credits = link._credits
        if kind == Link.ROUTER:
            if flits:
                dst = self.routers[link.dst]
                dst_port = link.dst_port
                while flits and flits[0][0] <= cycle:
                    _, flit, out_vc = flits.popleft()
                    if flit.is_signal:
                        self._link_signals -= 1
                    dst.receive_flit(flit, out_vc, dst_port, cycle)
                    self.activity += 1
                    self.link_traversals += 1
            if credits:
                src = self.routers[link.src]
                src_port = link.src_port
                while credits and credits[0][0] <= cycle:
                    src.receive_credit(src_port, credits.popleft()[1])
        elif kind == Link.NI_UP:  # NI -> router LOCAL input
            if flits:
                dst = self.routers[link.dst]
                while flits and flits[0][0] <= cycle:
                    _, flit, out_vc = flits.popleft()
                    if flit.is_signal:
                        self._link_signals -= 1
                    dst.receive_flit(flit, out_vc, Port.LOCAL, cycle)
                    self.activity += 1
            if credits:
                ni = self.nis[link.src]
                while credits and credits[0][0] <= cycle:
                    ni.receive_credit(credits.popleft()[1])
        else:  # router LOCAL output -> NI
            if flits:
                ni = self.nis[link.dst]
                while flits and flits[0][0] <= cycle:
                    _, flit, out_vc = flits.popleft()
                    if flit.is_signal:
                        self._link_signals -= 1
                    ni.receive_flit(flit, out_vc, cycle)
                    self.activity += 1
            if credits:
                router = self.routers[link.src]
                while credits and credits[0][0] <= cycle:
                    router.receive_credit(Port.LOCAL, credits.popleft()[1])

    def _deliver_full(self, cycle: int) -> None:
        for link in self._router_links:
            if link._flits or link._credits:
                self._deliver_one(link, cycle)
        for link in self._ni_up_links:
            if link._flits or link._credits:
                self._deliver_one(link, cycle)
        for link in self._ni_down_links:
            if link._flits or link._credits:
                self._deliver_one(link, cycle)

    # ------------------------------------------------------------------ #
    # runtime reconfiguration

    def reconfigure_routing(self, new_faulty_links=None) -> None:
        """Rebuild the system routing after a fault event.

        ``new_faulty_links`` is an iterable of ``(src, dst)`` router pairs
        to mark faulty before the rebuild (the reverse direction must be
        listed separately if both failed).  Every router's route-decision
        cache is invalidated, the scheme's routing function is rebuilt over
        the updated topology, and all components are woken so in-flight
        traffic re-evaluates against the new tables.
        """
        if new_faulty_links:
            newly = set(new_faulty_links)
            self.topo.faulty.update(newly)
            for link in self._router_links:
                if (link.src, link.dst) in newly:
                    link.faulty = True
        self.routing = self.scheme.build_routing(self.topo, self.cfg, self.rng)
        for router in self.routers.values():
            router.routing = self.routing
            router.invalidate_route_cache()
            router.wake()
        for ni in self.nis.values():
            ni._wake()
        self.scheme.on_reconfigure(self)
        if self.sanitizer is not None:
            self.sanitizer.on_reconfigure()

    # ------------------------------------------------------------------ #
    # introspection

    def datapath_stats(self) -> dict:
        """Which engine executed this run, plus — under the vector
        engine — how much of the work actually took the batch path.
        ``scalar_fallback_fraction`` is the fraction of evaluated cycles
        that routed at least one router through the scheme-special scalar
        step (the regression signal for scheme-heavy workloads)."""
        vec = self.vector
        if vec is None:
            return {"engine": "legacy"}
        cycles = vec.cycles
        return {
            "engine": "vector",
            "cycles": cycles,
            "static_cycles": vec.static_cycles,
            "scalar_cycles": vec.scalar_cycles,
            "scalar_router_cycles": vec.scalar_router_cycles,
            "batched_flits": vec.batched_flits,
            "batched_deliveries": vec.batched_deliveries,
            "scalar_fallback_fraction": (
                vec.scalar_cycles / cycles if cycles else 0.0
            ),
        }

    def occupancy(self) -> int:
        """Flits resident anywhere in the system, including messages still
        waiting in NI injection queues (watchdog / drain check).

        This is a full sweep over every buffer — debug/verification only;
        the hot paths use :attr:`tracked_occupancy`.
        """
        total = sum(r.occupancy() for r in self.routers.values())
        total += sum(link.in_flight for link in self.links)
        for ni in self.nis.values():
            total += ni.in_port.total_occupancy
            total += len(ni._stream_flits)
            total += sum(len(v) for v in ni._assembly.values())
            total += sum(len(v) for v in ni._popup_assembly)
            total += sum(sum(p.size for p in q) for q in ni.injection_queues)
        return total

    @property
    def tracked_occupancy(self) -> int:
        """Incrementally maintained equivalent of :meth:`occupancy`:
        live packet flits plus protocol signals in flight on links."""
        return self._live_flits + self._link_signals

    def in_network_flits(self) -> int:
        """Flits in routers/links (excludes NI queues)."""
        total = sum(r.occupancy() for r in self.routers.values())
        total += sum(link.in_flight for link in self._router_links)
        return total

    def drain(self, max_cycles: int = 100_000) -> bool:
        """Run with no new injection until the network empties.  Returns
        True if drained, False if occupancy stopped changing (deadlock)."""
        assert self.tracked_occupancy == self.occupancy(), (
            "incremental occupancy counter out of sync at drain start: "
            f"tracked={self.tracked_occupancy} actual={self.occupancy()}"
        )
        idle = 0
        last_activity = self.activity
        drained = True
        while self.tracked_occupancy > 0:
            self.step()
            if self.activity == last_activity:
                idle += 1
                if idle > 2000:
                    drained = False
                    break
            else:
                idle = 0
                last_activity = self.activity
            max_cycles -= 1
            if max_cycles <= 0:
                drained = False
                break
        assert self.tracked_occupancy == self.occupancy(), (
            "incremental occupancy counter out of sync at drain end: "
            f"tracked={self.tracked_occupancy} actual={self.occupancy()}"
        )
        if drained and self.sanitizer is not None:
            self.sanitizer.check_drained()
        return drained

"""Array-scan vector datapath engine (``NocConfig.datapath="vector"``).

The scalar core spends its saturated-load cycles scanning Python objects:
every awake router walks its input VCs, re-derives head eligibility and
only then discovers that most heads cannot move.  This engine keeps just
the state that *finds* work — head SA-eligibility, the popup tag, the
blocked-candidate parking flag and link delivery timers — in
preallocated numpy arrays indexed by ``(router, port, vc)`` and by link,
so each cycle starts with two numpy scans instead of an object walk.

Array layout (built once from the topology at :class:`~repro.noc.network.
Network` construction):

* one **input row** per ``(router, input port)`` pair, numbered in
  ascending router id and port-insertion order — i.e. exactly the order
  the scalar switch-allocation sweep visits them, so iterating candidate
  cells in index order reproduces the legacy nomination order;
* one **cell** per ``(row, vc)``: ``head_due`` (arrival +
  SA-eligibility delay, ``_NEVER`` when empty), the ``tagged`` popup
  flag and the ``parked`` blocked-verdict flag — the candidate scan;
* one **slot** per link holding its earliest pending delivery cycle
  (``link_due``, with its global minimum in ``due_box``) — the delivery
  scan.

Flit objects in the per-VC and per-link deques, routes, output VCs and
the output ports' credit / allocation lists are the only copies of that
state; every verdict reads them directly.  The per-cycle evaluation is:

1. deliver every link whose due-cycle has arrived: batch-eligible links
   drain straight into the destination VC deques (setting the head
   eligibility of VCs that were empty and re-arming cells parked on
   output rows that received credits); signals, popup flits and links
   touching a pinned-scalar router reuse the scalar drain verbatim;
2. select the candidate cells (eligible head, not tagged, not parked);
3. route, judge and arbitrate each candidate in ascending cell order
   through the routers' *real* round-robin arbiters, interleaved with
   the routers that need the full scalar step (live signal/popup/
   boundary-buffer state) — so arbiter pointers and RNG draws advance in
   exactly the legacy order — then execute every winner in one deferred
   traversal loop: pops, credit consumption, link dispatch and upstream
   credit return.

The active-set machinery from the event-driven core survives as the
*controller*: its wake plumbing decides which routers still carry
scheme state that the arrays cannot express, and only those take the
scalar path.  Routers that can *never* take the vector path (remote-
control boundary routers with their per-VNet absorption buffers) are
**pinned scalar** at scheme adoption: their mirror bindings are removed
entirely, so they pay zero write-through cost and their links always
use the scalar drain.

Two quiescence fast paths keep low-activity runs (coherence workloads,
deadlocked phases) from paying per-cycle vector overhead:

* UPP observation tracking: stall/progress flags are only reset and
  re-observed for routers whose flags actually changed, and the scheme
  ticks only non-idle popup units (the same provably-no-op skip the
  active-set scheduler uses);
* a **static-cycle** fast path: when a full evaluation ends with no
  scalar steps, no grants and an empty active set, and the next cycle
  brings no deliveries, no wakes, no resyncs and no newly-eligible
  head, the entire switch phase is provably a fixed point and is
  skipped outright.

Results are bit-identical to the legacy engine and the full sweep; the
determinism suite (``tests/integration/test_vector_determinism.py``)
proves it over seven representative workloads (saturated synthetic,
closed-loop coherence, deadlock recovery), every registered scheme, the
fault-replay scenarios and state planted into buffers before a run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as _np

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.buffer import _NEVER, Credit
from repro.noc.flit import Port
from repro.noc.link import Link

_N_PORTS = len(Port)
_UP = int(Port.UP)
_UP2 = int(Port.UP2)


class VectorEngine:
    """Per-network vector-engine state (see module docstring)."""

    def __init__(self, net) -> None:
        self.net = net
        self.n_vnets = net.cfg.n_vnets
        self._build_rows(net)
        self._build_links(net)
        #: interposer routers carrying a popup unit (filled by ``adopt_
        #: scheme_state`` after the scheme attaches its controllers).
        self.upp_routers: List = []
        #: routers permanently excluded from the vector path (filled by
        #: ``adopt_scheme_state``; their mirror bindings are removed).
        self.pinned_rids: set = set()
        # ---- UPP observation dirty tracking ----
        #: routers whose sent_up/stalled_up flags may be set (reset next
        #: cycle before fresh observations are recorded).
        self._flags_dirty: Dict[int, object] = {}
        #: routers whose popup detector holds a non-trivial observation
        #: (cleared by an explicit all-False observe once flags drop).
        self._det_hot: Dict[int, object] = {}
        #: routers with fresh observations this cycle — the scheme's
        #: ``post_cycle`` tick candidates under the vector engine.
        self.upp_observed: Dict[int, object] = {}
        # ---- static-cycle fast path ----
        self._static = False
        self._pending_due = _NEVER
        self._resynced = True
        self._delivered = False
        # ---- datapath statistics (reported via Network.datapath_stats) --
        self.cycles = 0
        self.static_cycles = 0
        self.scalar_cycles = 0
        self.scalar_router_cycles = 0
        self.batched_flits = 0
        self.batched_deliveries = 0

    # ------------------------------------------------------------------ #
    # construction

    def _build_rows(self, net) -> None:
        np = _np
        routers = [net.routers[rid] for rid in sorted(net.routers)]
        vmax = max((r.cfg.n_vcs for r in routers), default=1)
        for r in routers:
            for oport in r.out_ports.values():
                vmax = max(vmax, len(oport.credits))
        self.vmax = vmax

        # ---- input rows / cells ----
        self.row_router: List = []
        self.row_port: List[Port] = []
        self.row_iport: List = []
        #: rid -> (first cell, last cell + 1); rows are contiguous per
        #: router, so masking a scalar-path router is two slice stores.
        self.cell_span: Dict[int, Tuple[int, int]] = {}
        for r in routers:
            row_lo = len(self.row_router)
            for port, iport in r.in_ports.items():
                self.row_router.append(r)
                self.row_port.append(port)
                self.row_iport.append(iport)
            self.cell_span[r.rid] = (row_lo * vmax, len(self.row_router) * vmax)
        n_rows = len(self.row_router)
        n_cells = n_rows * vmax

        self.head_due = np.full(n_cells, _NEVER, np.int64)
        self.tagged = np.zeros(n_cells, bool)
        #: rid * n_ports per cell, for the (router, out_port) -> output-row
        #: lookup.
        self.cell_rbase_l: List[int] = [0] * n_cells
        #: per-cell virtual cut-through flag (whole-packet admission).
        self.vct_cell_l: List[bool] = [False] * n_cells
        #: per-cell VC object (None for padding cells beyond the port's
        #: real VC count) — the per-item paths' object handle.
        self.cell_vc: List = [None] * n_cells
        #: per-row input-port int and upstream link, for output
        #: arbitration and credit return.
        self.row_port_i: List[int] = [int(p) for p in self.row_port]
        self.row_inlink: List = [
            r.in_links.get(p) for r, p in zip(self.row_router, self.row_port)
        ]

        # ---- event-driven blocked-candidate parking ----
        #: cells whose last verdict was "blocked" and for which no event
        #: that could change the verdict has fired since.  Parked cells
        #: are excluded from the candidate scan — the vector twin of the
        #: legacy engine's event-driven retry (blocked heads sleep; they
        #: are not re-polled every cycle).
        self.parked = np.zeros(n_cells, bool)
        #: parked cells grouped by the output row whose credit/allocation
        #: state blocks them (lazily pruned: an entry may be stale after
        #: an out-of-band unpark; unparking a non-blocked cell is always
        #: safe, only skipping an unpark would not be).
        self._parked_by_orow: List[List[int]] = []
        #: parked cells whose block is an upward stall at a popup-unit
        #: router: cell -> (router, vnet).  Their stalled_up flags must
        #: stay asserted every cycle while parked (the full evaluation
        #: would re-derive them), so the detectors see no spurious drop.
        self._stall_parked: Dict[int, Tuple[object, int]] = {}

        for row, (r, iport) in enumerate(zip(self.row_router, self.row_iport)):
            is_vct = r.cfg.flow_control == "vct"
            for vc in iport.vcs:
                cell = row * vmax + vc.vc_index
                self.cell_rbase_l[cell] = r.rid * _N_PORTS
                self.vct_cell_l[cell] = is_vct
                self.cell_vc[cell] = vc
                # bind the VC's mirror slots: push/pop and the mirrored
                # attribute setters keep the arrays truthful from now on
                vc._cell = cell
                vc._adue = self.head_due
                vc._atag = self.tagged
                vc._dly = r._sa_delay
                vc._aeng = self
                # adopt any pre-existing buffered state (networks are
                # normally empty here; tests may plant flits first)
                if vc.queue:
                    self.head_due[cell] = (
                        vc.queue[0].arrival_cycle + r._sa_delay
                    )
                self.tagged[cell] = vc._popup_tagged

        # ---- output rows ----
        orows: List = []
        self.orow_link: List = []
        #: rid * n_ports + out_port -> output row (-1 where absent).
        self.outrow_flat: List[int] = [-1] * (len(routers) * _N_PORTS)
        for r in routers:
            for port, oport in r.out_ports.items():
                self.outrow_flat[r.rid * _N_PORTS + int(port)] = len(orows)
                # a credit return on the port re-arms the cells parked on
                # its row; every reader keeps the port's plain lists
                oport._orow = len(orows)
                oport._aunpark = self._unpark_orow
                orows.append(oport)
                self.orow_link.append(r.out_links.get(port))
        self.orow_oport = orows
        self._parked_by_orow = [[] for _ in orows]

    def _build_links(self, net) -> None:
        np = _np
        links = sorted(net.links, key=lambda lk: lk._order)
        self.links_by_order = links
        self.link_due = np.full(len(links), _NEVER, np.int64)
        #: 1-element global minimum of ``link_due`` — lets an idle
        #: delivery phase exit on a single compare.
        self.due_box = np.full(1, _NEVER, np.int64)
        routers = net.routers
        for link in links:
            link._vec_due = self.link_due
            link._vec_min = self.due_box
            dues = [t[0] for t in link._flits] + [t[0] for t in link._credits]
            if dues:
                self.link_due[link._order] = min(dues)
            kind = link.kind
            if kind == Link.ROUTER:
                dst_r = routers[link.dst]
                src_r = routers[link.src]
                iport = dst_r.in_ports[link.dst_port]
                link._dst_router = dst_r
                link._src_router = src_r
                link._dst_iport = iport
                link._dst_vcs = iport.vcs
                link._dst_pt = link.dst_port
                link._src_oport = src_r.out_ports[link.src_port]
                link._batch_ok = True
            elif kind == Link.NI_UP:
                # NI -> router LOCAL input: the flit side is an ordinary
                # VC buffer write (batched); credits return to the NI's
                # object-side counters (scalar per item).
                dst_r = routers[link.dst]
                iport = dst_r.in_ports[Port.LOCAL]
                link._dst_router = dst_r
                link._dst_iport = iport
                link._dst_vcs = iport.vcs
                link._dst_pt = Port.LOCAL
                link._src_ni = net.nis[link.src]
                link._batch_ok = True
            else:  # Link.NI_DOWN: router LOCAL output -> NI
                # flits eject through the NI object path; credits return
                # to the router's LOCAL output port (batched).
                src_r = routers[link.src]
                link._dst_ni = net.nis[link.dst]
                link._src_router = src_r
                link._src_oport = src_r.out_ports[link.src_port]
                link._batch_ok = True
        if len(links):
            self.due_box[0] = self.link_due.min()

    def resync_router(self, r) -> None:
        """Re-derive one router's array state from its objects.

        Covers state *planted* directly into buffers or credit lists
        (tests, diagnostics) instead of arriving through the mutation
        sites that carry the mirror hooks.  :meth:`Router.wake` — already
        the documented requirement after planting state — calls this."""
        self._resynced = True
        lo, hi = self.cell_span[r.rid]
        if self.parked[lo:hi].any():
            # planted state invalidates any cached blocked verdict
            self.parked[lo:hi] = False
            for cell in [c for c in self._stall_parked if lo <= c < hi]:
                del self._stall_parked[cell]
        for iport in r.in_ports.values():
            for vc in iport.vcs:
                cell = vc._cell
                if cell < 0:  # pinned-scalar routers carry no mirrors
                    continue
                self.head_due[cell] = (
                    vc.queue[0].arrival_cycle + vc._dly if vc.queue else _NEVER
                )
                self.tagged[cell] = vc._popup_tagged

    # ------------------------------------------------------------------ #
    # blocked-candidate parking (see ``_evaluate``)
    #
    # A parked cell re-enters the candidate scan only through one of
    # these re-arm events; each is *conservative* — unparking a cell
    # whose head is still blocked merely costs one re-evaluation, while
    # a missed unpark would stall a movable head (the sanitizer's
    # ``verify_mirrors`` cross-checks that no parked head is movable).

    def _unpark_orow(self, orow: int) -> None:
        """Re-arm every cell blocked on one output row (credit arrival
        or VC release changed the row's state; also bound as every
        :class:`~repro.noc.buffer.OutputPort`'s ``return_credit`` hook)."""
        cells = self._parked_by_orow[orow]
        if cells:
            self._unpark_cells(cells)

    def _unpark_cells(self, cells: List[int]) -> None:
        parked = self.parked
        stall_parked = self._stall_parked
        for cell in cells:
            parked[cell] = False
            if stall_parked:
                stall_parked.pop(cell, None)
        cells.clear()
        self._static = False

    def unpark_cell(self, cell: int) -> None:
        """Re-arm one cell whose own state changed out-of-band (head
        popped by a popup circuit / scalar step, popup tag cleared, or
        route reassigned).  The cell's entry in ``_parked_by_orow`` is
        left to lazy pruning."""
        if self.parked[cell]:
            self.parked[cell] = False
            self._stall_parked.pop(cell, None)
            self._static = False

    def verify_mirrors(self) -> List[str]:
        """Cross-check every mirror array against its backing objects.

        Used by the invariant sanitizer's deep sweep: the write-through
        hooks are only correct if they cover *every* mutation site, so
        this re-derives the expected array state (``head_due``,
        ``tagged``, ``link_due`` / ``due_box``) from the object state,
        checks that every parked head is still blocked on its output
        port's credit lists, and reports any divergence (empty list =
        coherent)."""
        problems: List[str] = []
        vmax = self.vmax
        for row, iport in enumerate(self.row_iport):
            r = self.row_router[row]
            port = self.row_port[row]
            for vc in iport.vcs:
                if vc._cell < 0:  # pinned scalar: mirrors intentionally off
                    continue
                cell = row * vmax + vc.vc_index
                where = f"router {r.rid} {port.name} vc{vc.vc_index}"
                due = (
                    vc.queue[0].arrival_cycle + vc._dly if vc.queue else _NEVER
                )
                if self.head_due[cell] != due:
                    problems.append(
                        f"{where}: head_due={self.head_due[cell]} != {due}"
                    )
                if bool(self.tagged[cell]) != vc._popup_tagged:
                    problems.append(
                        f"{where}: tagged={bool(self.tagged[cell])} "
                        f"!= {vc._popup_tagged}"
                    )
                if bool(self.parked[cell]):
                    # parked ⇒ the head's blocked verdict still holds; a
                    # movable parked head means an unpark event was missed
                    if not vc.queue:
                        problems.append(f"{where}: parked but empty")
                    elif vc._out_port is None:
                        problems.append(f"{where}: parked but unrouted")
                    else:
                        oport = r.out_ports[vc._out_port]
                        if vc.out_vc >= 0:
                            movable = oport.credits[vc.out_vc] > 0
                        else:
                            need = (
                                vc.queue[0].packet.size
                                if r.cfg.flow_control == "vct"
                                else 1
                            )
                            movable = bool(oport.free_vcs(vc.vnet, need))
                        if movable:
                            problems.append(
                                f"{where}: parked but head is movable"
                            )
        for link in self.links_by_order:
            dues = [t[0] for t in link._flits] + [t[0] for t in link._credits]
            due = min(dues) if dues else _NEVER
            if self.link_due[link._order] > due:
                # the mirror may under-promise (an early slot that already
                # drained is re-derived lazily) but must never miss a due
                # payload
                problems.append(
                    f"link {link.src}->{link.dst}: due mirror "
                    f"{self.link_due[link._order]} past earliest {due}"
                )
            if self.due_box[0] > due:
                problems.append(
                    f"link {link.src}->{link.dst}: global due box "
                    f"{int(self.due_box[0])} past earliest {due}"
                )
        return problems

    def adopt_scheme_state(self) -> None:
        """Record scheme attachments made after construction.

        Popup units mark their routers for the UPP observation plumbing;
        remote-control boundary routers (per-VNet absorption buffers the
        arrays cannot express) are **pinned scalar**: every evaluation
        goes through the legacy step, so their mirror bindings are
        removed and their links excluded from batch delivery — they pay
        no write-through cost at all."""
        routers = self.net.routers
        self.upp_routers = [
            routers[rid] for rid in sorted(routers)
            if routers[rid].upp is not None
        ]
        self.pinned_rids = set()
        for r in self.net.routers.values():
            if r.rc_unit is None or r.rid in self.pinned_rids:
                continue
            self.pinned_rids.add(r.rid)
            r.pinned_scalar = True
            for iport in r.in_ports.values():
                for vc in iport.vcs:
                    vc._cell = -1
            for oport in r.out_ports.values():
                oport._orow = -1
            lo, hi = self.cell_span[r.rid]
            self.head_due[lo:hi] = _NEVER
            self.tagged[lo:hi] = False
            self.parked[lo:hi] = False
        if self.pinned_rids:
            for link in self.links_by_order:
                if link._batch_ok and (
                    link.src in self.pinned_rids or link.dst in self.pinned_rids
                ):
                    link._batch_ok = False

    # ------------------------------------------------------------------ #
    # per-cycle phases (called by Network._step_vector)

    def deliver(self, cycle: int) -> None:
        """Drain every link whose earliest payload is due.

        Batch-eligible router links (no pinned-scalar endpoint) drain
        inline: flit objects are appended to the destination VC deques
        with the same protocol checks as :meth:`VirtualChannel.push` (a
        VC that was empty gets its head eligibility stored), and credits
        land in the source port's lists, re-arming the cells parked on
        that output row.  Signals and popup flits keep the scalar
        receive path (their side effects are scheme state), as do NI
        links and pinned routers via the scalar
        :meth:`Network._deliver_one`."""
        np = _np
        if self.due_box[0] > cycle:
            self._delivered = False
            return
        due = self.link_due
        ready = np.nonzero(due <= cycle)[0]
        if not len(ready):  # pragma: no cover - box never over-promises
            self._delivered = False
            self.due_box[0] = due.min() if len(due) else _NEVER
            return
        self._delivered = True
        links = self.links_by_order
        net = self.net
        deliver_one = net._deliver_one
        router_kind = Link.ROUTER
        head_due = self.head_due
        by_orow = self._parked_by_orow
        nact = 0  # delivered flits (network activity), all batched links
        ntrav = 0  # router-to-router subset (link_traversals)
        for order in ready.tolist():
            link = links[order]
            if not link._batch_ok:
                # pinned-scalar endpoint: full legacy dispatch
                deliver_one(link, cycle)
            else:
                flits = link._flits
                if flits and flits[0][0] <= cycle:
                    vcs = link._dst_vcs
                    if vcs is None:
                        # router -> NI ejection side: object path
                        ni = link._dst_ni
                        while flits and flits[0][0] <= cycle:
                            _, flit, out_vc = flits.popleft()
                            nact += 1
                            if flit.is_signal:
                                net._link_signals -= 1
                            ni.receive_flit(flit, out_vc, cycle)
                    else:
                        dst = link._dst_router
                        dst_port = link._dst_pt
                        npop = 0
                        pushed = 0
                        while flits and flits[0][0] <= cycle:
                            _, flit, out_vc = flits.popleft()
                            npop += 1
                            if flit.is_signal or flit.popup:
                                if flit.is_signal:
                                    net._link_signals -= 1
                                dst.receive_flit(
                                    flit, out_vc, dst_port, cycle
                                )
                                continue
                            vc = vcs[out_vc]
                            queue = vc.queue
                            if len(queue) >= vc.depth:
                                raise OverflowError(
                                    f"VC overflow (vnet={vc.vnet}, "
                                    f"vc={vc.vc_index}): credit protocol "
                                    f"violated by {flit!r}"
                                )
                            if flit.is_header:
                                if vc.active_pid >= 0:
                                    raise RuntimeError(
                                        f"header flit {flit!r} arrived "
                                        f"into busy VC holding packet "
                                        f"{vc.active_pid} (wormhole "
                                        f"interleaving)"
                                    )
                                vc.active_pid = flit.packet.pid
                            elif flit.packet.pid != vc.active_pid:
                                raise RuntimeError(
                                    f"body flit {flit!r} arrived into VC "
                                    f"allocated to packet "
                                    f"{vc.active_pid} (wormhole "
                                    f"interleaving)"
                                )
                            flit.arrival_cycle = cycle
                            queue.append(flit)
                            if len(queue) == 1:
                                head_due[vc._cell] = cycle + vc._dly
                            pushed += 1
                        nact += npop
                        if link.kind == router_kind:
                            ntrav += npop
                        if pushed:
                            link._dst_iport.occupancy += pushed
                            dst.energy.buffer_writes += pushed
                            # NOTE: no wake / eligibility timer — the
                            # engine scans every cell every cycle, and a
                            # sleeping router can only need the scalar
                            # path through events that carry their own
                            # wake (signals, popups, credits, scheme
                            # ticks).
                credits = link._credits
                if credits and credits[0][0] <= cycle:
                    oport = link._src_oport
                    if oport is None:
                        # NI -> router link: credits drain back into the
                        # NI's object-side counters
                        ni = link._src_ni
                        while credits and credits[0][0] <= cycle:
                            ni.receive_credit(credits.popleft()[1])
                    else:
                        src_r = link._src_router
                        ocr = oport.credits
                        obusy = oport.vc_busy
                        oown = oport.vc_owner
                        while credits and credits[0][0] <= cycle:
                            credit = credits.popleft()[1]
                            cvc = credit.vc
                            ocr[cvc] += 1
                            if credit.vc_free:
                                obusy[cvc] = False
                                oown[cvc] = -1
                            if src_r._hibernating:
                                src_r._wake()
                        # fresh credits (and any VC releases riding on
                        # them) re-arm the cells parked on this row
                        cells = by_orow[oport._orow]
                        if cells:
                            self._unpark_cells(cells)
            flits = link._flits
            credits = link._credits
            next_due = flits[0][0] if flits else _NEVER
            if credits and credits[0][0] < next_due:
                next_due = credits[0][0]
            due[order] = next_due
        if nact:
            net.activity += nact
            net.link_traversals += ntrav
            self.batched_deliveries += nact
        self.due_box[0] = due.min() if len(due) else _NEVER

    def switch_phase(self, cycle: int) -> None:
        """Switch allocation for the whole network (see module docstring)."""
        np = _np
        net = self.net
        vmax = self.vmax
        self.cycles += 1

        # 0. static fast path: the previous full evaluation was a fixed
        #    point (no scalar steps, no grants, empty active set) and
        #    nothing that could perturb it happened since — no delivery,
        #    no wake, no resync, no head crossing its eligibility cycle.
        #    Detector flags persist unchanged, so skipped observations
        #    would re-store identical values; counting popup units keep
        #    ticking via the scheme's armed set.
        if (
            self._static
            and not self._delivered
            and not net._active_routers
            and not self._resynced
            and cycle < self._pending_due
        ):
            self.static_cycles += 1
            return
        self._resynced = False

        # 1. scalar-path routers: woken routers whose pending work the
        #    arrays cannot express (signals, popups, boundary buffers,
        #    tagged circuits, an ACTIVE_LOCAL popup transmission).  The
        #    rest of the active set is dropped — the arrays cover them.
        active = net._active_routers
        python_rids: List[int] = []
        if active:
            for rid in sorted(active):
                r = active[rid]
                if (
                    r.pinned_scalar
                    or r.sig_req_stop
                    or r.sig_ack
                    or r._popup_in
                    or (r.upp_tables is not None and r.upp_tables.has_state())
                    or (r.upp is not None and r.upp.has_active_local())
                ):
                    python_rids.append(rid)
                else:
                    del active[rid]
                    r._queued = False
        python_set = set(python_rids)
        if python_rids:
            self.scalar_cycles += 1
            self.scalar_router_cycles += len(python_rids)

        # 2. reset upward-stall observability flags — only for routers
        #    whose flags were actually set last cycle (the scalar step
        #    does its own reset at entry; everyone else's flags are
        #    already False)
        n_vnets = self.n_vnets
        flagged = self._flags_dirty
        if flagged:
            for r in flagged.values():
                sent, stalled = r.sent_up, r.stalled_up
                for v in range(n_vnets):
                    sent[v] = False
                    stalled[v] = False
            flagged.clear()

        # 2b. parked upward-stalled cells: a full evaluation would find
        #     them blocked on UP again and re-assert the flag, so the
        #     persistent set re-applies it — the detectors must not see
        #     a stall drop just because the cell sleeps
        stall_parked = self._stall_parked
        if stall_parked:
            for r, v in stall_parked.values():
                r.stalled_up[v] = True
                flagged[r.rid] = r

        # 3. candidate cells: occupied, head past its SA-eligibility cycle,
        #    not reserved for a popup circuit, not parked on a blocked
        #    verdict.  Parking keeps this set small, so everything below
        #    runs per item over the plain object lists.
        cand = self.head_due <= cycle
        cand &= ~self.tagged
        cand &= ~self.parked
        for rid in python_set:
            lo, hi = self.cell_span[rid]
            cand[lo:hi] = False
        ci = np.nonzero(cand)[0]
        grants_by_rid: Dict[int, List[Tuple[int, int, int, int]]] = {}
        if len(ci):
            # 4. route, judge, park and arbitrate every candidate
            self._evaluate(ci.tolist(), grants_by_rid, flagged)

        # 5. winner selection in ascending router order, interleaving
        #    scalar-path steps so RNG consumption and arbiter updates keep
        #    the legacy order (routers never observe each other within a
        #    cycle, so only these side-effect streams constrain the
        #    interleave); the winners' state movement itself is deferred
        #    into one deferred execution loop
        stepped = net.stepped_routers
        routers = net.routers
        exec_cells: List[int] = []
        exec_ops: List[int] = []
        exec_ovcs: List[int] = []
        row_router = self.row_router
        if python_rids:
            order = sorted(python_set | grants_by_rid.keys())
        else:
            order = grants_by_rid  # inserted in ascending rid order
        for rid in order:
            if rid in python_set:
                r = routers[rid]
                r.step(cycle)
                stepped.append(r)
                if r.upp is not None:
                    # the scalar step set + observed its own flags; they
                    # must be reset next cycle, and the detector may now
                    # hold a non-trivial observation
                    flagged[rid] = r
                if not r._dirty:
                    del active[rid]
                    r._queued = False
            else:
                grants = grants_by_rid[rid]
                if len(grants) == 1:
                    g = grants[0]
                    ovc = g[3]
                    if ovc >= 0:
                        # lone body-flit winner: no output contention, no
                        # VC selection — skip the arbitration helper
                        exec_cells.append(g[1])
                        exec_ops.append(g[2])
                        exec_ovcs.append(ovc)
                        energy = row_router[g[1] // vmax].energy
                        energy.buffer_reads += 1
                        energy.xbar_traversals += 1
                        continue
                self._finish_router(
                    routers[rid], grants, cycle,
                    exec_cells, exec_ops, exec_ovcs,
                )
        if exec_cells:
            self._execute(exec_cells, exec_ops, exec_ovcs, cycle)

        # 6. UPP stall/progress observations for vector-path routers (the
        #    scalar step reports its own inside _switch_allocation).  An
        #    observation is a pure store of the two flags, so routers
        #    whose flags did not change since the detector last saw them
        #    can be skipped outright; ``_det_hot`` routers get one
        #    explicit all-False observe when their flags drop.
        observed = self.upp_observed
        observed.clear()
        hot = self._det_hot
        if flagged:
            for rid, r in flagged.items():
                if rid in python_set:
                    hot[rid] = r
                    continue
                upp = r.upp
                if upp is None:
                    continue
                sent, stalled = r.sent_up, r.stalled_up
                any_flag = False
                for v in range(n_vnets):
                    sv = stalled[v]
                    nv = sent[v]
                    upp.observe(v, sv, nv)
                    if sv or nv:
                        any_flag = True
                observed[rid] = r
                if any_flag:
                    hot[rid] = r
                else:
                    hot.pop(rid, None)
        if hot:
            stale = [rid for rid in hot if rid not in flagged]
            for rid in stale:
                if rid in python_set:
                    continue
                r = hot.pop(rid)
                upp = r.upp
                for v in range(n_vnets):
                    upp.observe(v, False, False)
                observed[rid] = r

        # 7. capture whether this evaluation was a fixed point (enables
        #    the static fast path next cycle)
        static = not python_rids and not grants_by_rid and not active
        if static:
            pend = self.head_due[self.head_due > cycle]
            self._pending_due = int(pend.min()) if len(pend) else _NEVER
        self._static = static

    def _evaluate(
        self,
        cells: List[int],
        grants_by_rid: Dict[int, List[Tuple[int, int, int, int]]],
        flagged: Dict[int, object],
    ) -> None:
        """Step 4 of :meth:`switch_phase`: lazy route computation,
        blocked verdicts, upward-stall flags, parking and input-stage
        arbitration for the candidate cells, in ascending cell order.

        A blocked candidate is *parked*: its verdict is a pure function
        of downstream credit/allocation state and the (fixed) head +
        route, so it cannot flip until an unpark event fires — a credit
        or VC release on the output row, a pop/untag/reroute of the
        cell, or a resync.  Arbitration runs after every verdict, through
        the routers' real round-robin arbiters (their pointers must
        advance exactly as in the scalar sweep), grouped per input row."""
        vmax = self.vmax
        cell_vc = self.cell_vc
        row_router = self.row_router
        row_port = self.row_port
        outrow_flat = self.outrow_flat
        cell_rbase_l = self.cell_rbase_l
        vct_cell_l = self.vct_cell_l
        orow_oport = self.orow_oport
        parked = self.parked
        by_orow = self._parked_by_orow
        stall_parked = self._stall_parked
        upp_any = bool(self.upp_routers)
        reqcells: List[int] = []
        req_ops: List[int] = []
        req_ovcs: List[int] = []
        for cell in cells:
            vc = cell_vc[cell]
            op = vc._out_port
            if op is None:
                row = cell // vmax
                flit = vc.queue[0]
                vc.out_port = op = row_router[row].route(
                    row_port[row], flit.packet.dst, flit.packet.src
                )
            opi = int(op)
            orow = outrow_flat[cell_rbase_l[cell] + opi]
            oport = orow_oport[orow]
            ovc = vc.out_vc
            if ovc >= 0:
                blocked = oport.credits[ovc] <= 0
            else:
                need = vc.queue[0].packet.size if vct_cell_l[cell] else 1
                blocked = not oport.free_vcs(vc.vnet, need)
            if blocked:
                parked[cell] = True
                by_orow[orow].append(cell)
                if upp_any and (opi == _UP or opi == _UP2):
                    r = row_router[cell // vmax]
                    if r.upp is not None:
                        v = vc.vnet
                        r.stalled_up[v] = True
                        flagged[r.rid] = r
                        stall_parked[cell] = (r, v)
            else:
                reqcells.append(cell)
                req_ops.append(opi)
                req_ovcs.append(ovc)
        i, n = 0, len(reqcells)
        while i < n:
            base = reqcells[i] - (reqcells[i] % vmax)
            limit = base + vmax
            j = i + 1
            while j < n and reqcells[j] < limit:
                j += 1
            row = base // vmax
            r = row_router[row]
            r.energy.sa_arbitrations += 1
            granted = r._in_arbiters[row_port[row]].grant_from(
                [c - base for c in reqcells[i:j]]
            )
            gcell = base + granted
            pos = reqcells.index(gcell, i, j)
            grants_by_rid.setdefault(r.rid, []).append(
                (row, gcell, req_ops[pos], req_ovcs[pos])
            )
            i = j

    def _finish_router(
        self,
        r,
        grants: List[Tuple[int, int, int, int]],
        cycle: int,
        exec_cells: List[int],
        exec_ops: List[int],
        exec_ovcs: List[int],
    ) -> None:
        """Output-stage arbitration + VC selection for one vector-path
        router, reproducing the scalar nomination order: grants arrive in
        input-port scan order, so first-nomination dict order matches.
        Winners are appended to the deferred-execution lists instead of
        traversing inside the per-router loop."""
        if len(grants) == 1:
            winners = grants
        else:
            nominations: Dict[int, List] = {}
            for g in grants:
                contenders = nominations.get(g[2])
                if contenders is None:
                    nominations[g[2]] = [g]
                else:
                    contenders.append(g)
            if len(nominations) == len(grants):
                winners = grants
            else:
                row_port_i = self.row_port_i
                winners = []
                for op, contenders in nominations.items():
                    if len(contenders) == 1:
                        winners.append(contenders[0])
                    else:
                        arbiter = r._out_arbiters.setdefault(
                            Port(op), RoundRobinArbiter(_N_PORTS)
                        )
                        winner = arbiter.grant_from(
                            row_port_i[g[0]] for g in contenders
                        )
                        winners.append(
                            next(
                                g for g in contenders
                                if row_port_i[g[0]] == winner
                            )
                        )
        cell_vc = self.cell_vc
        outrow_flat = self.outrow_flat
        cell_rbase_l = self.cell_rbase_l
        rng = r._rng
        for _row, cell, op, ovc in winners:
            if ovc < 0:
                # header flit: VC selection through the object path (the
                # RNG draw must happen here, in legacy order)
                vc = cell_vc[cell]
                oport = self.orow_oport[outrow_flat[cell_rbase_l[cell] + op]]
                free = oport.free_vcs(vc.vnet)
                ovc = rng.choice(free) if len(free) > 1 else free[0]
                vc.out_vc = ovc
                oport.allocate(ovc, vc.queue[0].packet.pid)
            exec_cells.append(cell)
            exec_ops.append(op)
            exec_ovcs.append(ovc)
        n = len(winners)
        energy = r.energy
        energy.buffer_reads += n
        energy.xbar_traversals += n

    def _execute(
        self,
        cells: List[int],
        ops: List[int],
        ovcs: List[int],
        cycle: int,
    ) -> None:
        """Switch traversal for every winner of this cycle.

        Per winner the object side is updated with plain list/deque
        operations (pop, credit decrement, link append, upstream credit
        message) and the cell's ``head_due`` / ``tagged`` and the links'
        ``link_due`` slots are stored directly.  Deferring the winners
        out of the per-router loop is safe because a traversal only
        mutates the traversing router's own state and its outgoing
        links — state no other router reads within the same cycle."""
        vmax = self.vmax
        cell_vc = self.cell_vc
        row_router = self.row_router
        row_inlink = self.row_inlink
        outrow_flat = self.outrow_flat
        cell_rbase_l = self.cell_rbase_l
        orow_oport = self.orow_oport
        orow_link = self.orow_link
        head_due = self.head_due
        tagged = self.tagged
        link_due = self.link_due
        flagged = self._flags_dirty
        self.batched_flits += len(cells)
        box_min = _NEVER
        for cell, op, ovc in zip(cells, ops, ovcs):
            vc = cell_vc[cell]
            queue = vc.queue
            flit = queue.popleft()
            vc._port.occupancy -= 1
            head_due[cell] = queue[0].arrival_cycle + vc._dly if queue else _NEVER
            orow = outrow_flat[cell_rbase_l[cell] + op]
            orow_oport[orow].credits[ovc] -= 1
            link = orow_link[orow]
            if link.faulty:
                raise RuntimeError(
                    f"flit sent over faulty link {link.src}->{link.dst}"
                )
            # ST occupies the next cycle; LT delivers the cycle after.
            due = cycle + 1 + link.latency
            link._flits.append((due, flit, ovc))
            link.flits_carried += 1
            if not link._busy and link._sched is not None:
                link._busy = True
                link._sched.wake_link(link)
            if due < link_due[link._order]:
                link_due[link._order] = due
            if due < box_min:
                box_min = due
            packet = flit.packet
            if flit.seq == 0:
                packet.hops += 1
            row = cell // vmax
            if op == _UP or op == _UP2:
                r = row_router[row]
                r.sent_up[packet.vnet] = True
                if r.upp is not None:
                    flagged[r.rid] = r
                    r.upp.on_normal_up_departure(r, flit, cycle)
            is_tail = flit.is_tail
            if is_tail:
                vc.active_pid = -1
                vc._out_port = None
                vc.out_vc = -1
                vc._popup_tagged = False
                tagged[cell] = False
            inlink = row_inlink[row]
            if inlink is not None:
                cdue = cycle + inlink.latency
                inlink._credits.append((cdue, Credit(vc.vc_index, is_tail)))
                if not inlink._busy and inlink._sched is not None:
                    inlink._busy = True
                    inlink._sched.wake_link(inlink)
                if cdue < link_due[inlink._order]:
                    link_due[inlink._order] = cdue
                if cdue < box_min:
                    box_min = cdue
        if box_min < self.due_box[0]:
            self.due_box[0] = box_min

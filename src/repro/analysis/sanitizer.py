"""Runtime invariant sanitizer (opt-in via ``NocConfig.sanitize``).

Wires conservation and protocol-legality checks into the simulator core.
Two tiers keep the cost proportional to what PR 1's incremental counters
already pay for:

* **per-cycle checks** are O(1): the incrementally maintained occupancy
  counters must stay non-negative (a negative counter means a create /
  retire pairing bug the very cycle it happens);
* **deep checks** run every ``NocConfig.sanitize_interval`` cycles (and on
  demand) and sweep the whole system: credit conservation per VC on every
  link, network-wide flit conservation against the incremental counters,
  every O(1) mirror counter re-derived from its backing container, and
  UPP protocol state-machine legality (attempt/token validity, single
  outstanding reservation per NI slot, globally unique reservation
  tokens).

:meth:`Sanitizer.check_drained` additionally asserts the zero state after
a drain — no VC leaks, full credit pools, no leftover reservations,
circuits or popup attempts.

A violation raises :class:`InvariantViolation` with enough context to
locate the component; the sanitizer never mutates simulation state and
never draws from the RNG, so enabling it cannot change results.
"""

from __future__ import annotations

from typing import Optional

from repro.core.popup import PopupPhase
from repro.noc.flit import Port
from repro.noc.link import Link


class InvariantViolation(RuntimeError):
    """A simulation invariant was violated (sanitizer diagnostic)."""


def _fail(cycle: int, what: str) -> None:
    raise InvariantViolation(f"cycle {cycle}: {what}")


class Sanitizer:
    """Invariant checker attached to one :class:`~repro.noc.network.Network`.

    Constructed by the network when ``cfg.sanitize`` is set; hooks are
    called from ``Network.step`` / ``Network.drain`` /
    ``Network.reconfigure_routing``.
    """

    def __init__(self, network, interval: Optional[int] = None):
        self.network = network
        self.interval = (
            interval if interval is not None else network.cfg.sanitize_interval
        )
        #: certificate produced by the static re-certification that runs
        #: on each fault-reconfiguration event (None until the first one).
        self.last_certificate = None
        self.deep_checks_run = 0

    # ------------------------------------------------------------------ #
    # hooks

    def after_cycle(self) -> None:
        """Called by ``Network.step`` after every cycle."""
        net = self.network
        if net._live_flits < 0:
            _fail(net.cycle, f"live-flit counter negative ({net._live_flits})")
        if net._link_signals < 0:
            _fail(net.cycle, f"link-signal counter negative ({net._link_signals})")
        if self.interval > 0 and net.cycle % self.interval == 0:
            self.check_all()

    def on_reconfigure(self) -> None:
        """Re-certify the rebuilt routing after a fault event (the static
        guarantee must survive runtime reconfiguration, not just hold at
        design time)."""
        from repro.analysis.certifier import certify_network

        certificate = certify_network(self.network)
        self.last_certificate = certificate
        if not certificate.ok:
            _fail(
                self.network.cycle,
                "post-reconfiguration routing failed static certification: "
                + certificate.summary(),
            )

    # ------------------------------------------------------------------ #
    # deep checks

    def check_all(self) -> None:
        """Sweep every conservation and legality invariant once."""
        self.deep_checks_run += 1
        net = self.network
        self._check_flit_conservation(net)
        self._check_counter_mirrors(net)
        self._check_credit_conservation(net)
        self._check_upp_legality(net)
        # last: a divergence in the semantically-checked state above is
        # reported as its own violation, not as a mirror artifact
        self._check_vector_mirrors(net)

    def check_drained(self) -> None:
        """Assert the zero state after a successful drain.

        A drain promises flit emptiness (``occupancy() == 0``); the UPP
        control plane may legitimately still be resolving an attempt whose
        req/stop/ack sits in a router signal buffer (signal-buffer contents
        are not part of occupancy, and the attempt's timeout resolves them
        past the drain horizon).  So: flit, VC and credit state must be
        exactly zero; popup state in a *transmission* phase (which needs
        buffered flits) is always a leak; reservation / circuit / pending
        state may survive only while such a live protocol driver exists.
        """
        net = self.network
        cycle = net.cycle
        self.check_all()
        if net.occupancy() != 0:
            _fail(cycle, f"drain left {net.occupancy()} flits resident")
        live_protocol = any(
            r.sig_req_stop or r.sig_ack for r in net.routers.values()
        ) or any(
            attempt.phase != PopupPhase.IDLE
            for r in net.routers.values()
            if r.upp is not None
            for attempt in r.upp.attempts
        )
        for router in net.routers.values():
            for port, iport in router.in_ports.items():
                for vc in iport.vcs:
                    if vc.queue or not vc.is_idle:
                        _fail(
                            cycle,
                            f"VC leak at router {router.rid} {port.name} "
                            f"vc{vc.vc_index}: occ={len(vc.queue)}, "
                            f"pid={vc.active_pid}",
                        )
                    if vc.popup_tagged and not live_protocol:
                        _fail(
                            cycle,
                            f"popup tag leak at router {router.rid} "
                            f"{port.name} vc{vc.vc_index}",
                        )
            for port, oport in router.out_ports.items():
                depth = self._peer_depth(net, router, port)
                # drain stops at zero *occupancy*; the last tail's credits
                # may still be crossing the link (credits are not occupancy)
                pending = [0] * len(oport.credits)
                free_pending = [False] * len(oport.credits)
                link = router.out_links.get(port)
                if link is not None:
                    for _due, credit in link._credits:
                        pending[credit.vc] += 1
                        if credit.vc_free:
                            free_pending[credit.vc] = True
                for vc, credits in enumerate(oport.credits):
                    if credits + pending[vc] != depth or (
                        oport.vc_busy[vc] and not free_pending[vc]
                    ):
                        _fail(
                            cycle,
                            f"credit leak at router {router.rid} {port.name} "
                            f"vc{vc}: credits={credits}+{pending[vc]} in "
                            f"flight /{depth}, busy={oport.vc_busy[vc]}",
                        )
            if (
                router.upp_tables is not None
                and router.upp_tables.has_state()
                and not live_protocol
            ):
                _fail(cycle, f"circuit/tag leak at router {router.rid}")
            if router.upp is not None:
                for attempt in router.upp.attempts:
                    # transmission phases hold flits by definition, so at
                    # zero occupancy they can never legally persist
                    if attempt.phase in (
                        PopupPhase.ACTIVE_LOCAL,
                        PopupPhase.ACTIVE_REMOTE,
                    ):
                        _fail(
                            cycle,
                            f"popup attempt leak at router {router.rid} "
                            f"vnet {attempt.vnet} (phase {attempt.phase.name})",
                        )
        if not live_protocol:
            for ni in net.nis.values():
                for vnet, token in enumerate(ni.reservations):
                    if token >= 0:
                        _fail(
                            cycle,
                            f"reservation leak at NI {ni.node} vnet {vnet} "
                            f"(token {token})",
                        )
                if ni._pending_count or any(
                    sig is not None for sig in ni.pending_reqs
                ):
                    _fail(cycle, f"pending UPP_req leak at NI {ni.node}")

    # ------------------------------------------------------------------ #
    # individual invariants

    def _check_flit_conservation(self, net) -> None:
        tracked = net.tracked_occupancy
        actual = net.occupancy()
        if tracked != actual:
            _fail(
                net.cycle,
                f"flit conservation: incremental occupancy {tracked} != "
                f"swept occupancy {actual}",
            )

    def _check_counter_mirrors(self, net) -> None:
        """Every O(1) mirror counter must equal its backing container."""
        cycle = net.cycle
        for router in net.routers.values():
            for port, iport in router.in_ports.items():
                actual = sum(len(vc.queue) for vc in iport.vcs)
                if iport.occupancy != actual:
                    _fail(
                        cycle,
                        f"input-port occupancy mirror at router {router.rid} "
                        f"{port.name}: counter={iport.occupancy}, queues={actual}",
                    )
        for ni in net.nis.values():
            checks = (
                ("in-flit", ni._in_flits, ni.in_port.total_occupancy),
                (
                    "queued-message",
                    ni._queued_msgs,
                    sum(len(q) for q in ni.injection_queues),
                ),
                (
                    "ejection-ready",
                    ni._ejection_ready,
                    sum(len(q) for q in ni.ejection_queues),
                ),
                (
                    "pending-req",
                    ni._pending_count,
                    sum(1 for r in ni.pending_reqs if r is not None),
                ),
            )
            for name, counter, actual in checks:
                if counter != actual:
                    _fail(
                        cycle,
                        f"NI {ni.node} {name} mirror: counter={counter}, "
                        f"actual={actual}",
                    )

    def _check_vector_mirrors(self, net) -> None:
        """The vector engine's arrays must mirror the object state
        exactly (write-through coverage of every mutation site), and no
        parked head may be movable (re-arm coverage of every credit
        return)."""
        vec = getattr(net, "vector", None)
        if vec is None:
            return
        problems = vec.verify_mirrors()
        if problems:
            _fail(
                net.cycle,
                "vector mirror divergence: " + "; ".join(problems[:5]),
            )

    def _peer_depth(self, net, router, port: Port) -> int:
        """VC depth of the buffer an output port's credits mirror."""
        link = router.out_links.get(port)
        if link is None:
            return router.cfg.vc_depth
        if link.kind == Link.NI_DOWN:
            return net.nis[link.dst].cfg.vc_depth
        return net.routers[link.dst].cfg.vc_depth

    def _check_credit_conservation(self, net) -> None:
        """Per VC of every link: upstream credits + flits in flight +
        downstream buffer occupancy + credits in flight == VC depth.

        UPP protocol signals and popup flits bypass the credit protocol by
        design (dedicated buffers / reserved ejection entries), so they
        are excluded from the in-flight count.
        """
        cycle = net.cycle
        for link in net._router_links:
            src = net.routers[link.src]
            dst = net.routers[link.dst]
            self._check_link_credits(
                cycle, link, src.out_ports[link.src_port],
                dst.in_ports[link.dst_port].vcs, dst.cfg.vc_depth,
                f"link {link.src}:{link.src_port.name} -> "
                f"{link.dst}:{link.dst_port.name}",
            )
        for link in net._ni_up_links:
            ni = net.nis[link.src]
            router = net.routers[link.dst]
            self._check_link_credits(
                cycle, link, ni.out_credits,
                router.in_ports[Port.LOCAL].vcs, router.cfg.vc_depth,
                f"NI {ni.node} -> router LOCAL",
            )
        for link in net._ni_down_links:
            router = net.routers[link.src]
            ni = net.nis[link.dst]
            self._check_link_credits(
                cycle, link, router.out_ports[Port.LOCAL],
                ni.in_port.vcs, ni.cfg.vc_depth,
                f"router {router.rid} LOCAL -> NI",
            )

    def _check_link_credits(self, cycle, link, oport, vcs, depth, what) -> None:
        n_vcs = len(vcs)
        in_flight = [0] * n_vcs
        for _due, flit, vc in link._flits:
            if flit.is_signal or flit.popup:
                continue
            in_flight[vc] += 1
        returning = [0] * n_vcs
        for _due, credit in link._credits:
            returning[credit.vc] += 1
        for vc in range(n_vcs):
            total = (
                oport.credits[vc]
                + in_flight[vc]
                + len(vcs[vc].queue)
                + returning[vc]
            )
            if total != depth:
                _fail(
                    cycle,
                    f"credit conservation on {what} vc{vc}: "
                    f"{oport.credits[vc]} credits + {in_flight[vc]} in flight "
                    f"+ {len(vcs[vc].queue)} buffered + {returning[vc]} "
                    f"returning = {total} != depth {depth}",
                )
            if oport.credits[vc] < 0 or oport.credits[vc] > depth:
                _fail(
                    cycle,
                    f"credit range on {what} vc{vc}: {oport.credits[vc]}/{depth}",
                )

    def _check_upp_legality(self, net) -> None:
        """UPP protocol state-machine legality.

        * a non-IDLE popup attempt carries a valid token, destination and
          request cycle; ACTIVE_LOCAL additionally references a VC;
        * signal-buffer occupancy respects the configured capacity
          (req/ack/stop serialization, Sec. V-B5);
        * per NI slot (VNet) at most one outstanding reservation, and a
          held pending req never shares the reserved token;
        * reservation tokens are globally unique (one attempt, one slot).
        """
        cycle = net.cycle
        from repro.core.popup import PopupPhase

        for router in net.routers.values():
            occupancy = len(router.sig_req_stop) + len(router.sig_ack)
            if occupancy > router.cfg.signal_buffer_capacity:
                _fail(
                    cycle,
                    f"signal buffer over capacity at router {router.rid}: "
                    f"{occupancy} > {router.cfg.signal_buffer_capacity}",
                )
            if router.upp is None:
                continue
            for attempt in router.upp.attempts:
                if attempt.phase == PopupPhase.IDLE:
                    if attempt.token != -1:
                        _fail(
                            cycle,
                            f"idle popup attempt holds token {attempt.token} "
                            f"at router {router.rid} vnet {attempt.vnet}",
                        )
                    continue
                if attempt.token <= 0 or attempt.dst < 0 or attempt.req_cycle < 0:
                    _fail(
                        cycle,
                        f"malformed popup attempt at router {router.rid} vnet "
                        f"{attempt.vnet}: phase={attempt.phase.name}, "
                        f"token={attempt.token}, dst={attempt.dst}",
                    )
                if attempt.phase == PopupPhase.ACTIVE_LOCAL and attempt.vc_ref is None:
                    _fail(
                        cycle,
                        f"ACTIVE_LOCAL popup without a VC reference at router "
                        f"{router.rid} vnet {attempt.vnet}",
                    )
        seen_tokens = {}
        for ni in net.nis.values():
            for vnet, token in enumerate(ni.reservations):
                if token < 0:
                    continue
                pending = ni.pending_reqs[vnet]
                if pending is not None and pending.token == token:
                    _fail(
                        cycle,
                        f"NI {ni.node} vnet {vnet} holds a pending req for "
                        f"its own reservation token {token}",
                    )
                if token in seen_tokens:
                    _fail(
                        cycle,
                        f"reservation token {token} held by NI {ni.node} vnet "
                        f"{vnet} and NI {seen_tokens[token][0]} vnet "
                        f"{seen_tokens[token][1]} simultaneously",
                    )
                seen_tokens[token] = (ni.node, vnet)

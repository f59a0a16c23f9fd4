"""Closed-loop coherence-style workloads: the gem5 full-system substitute.

The paper's Fig. 8/12/15 run PARSEC/SPLASH-2 under a MESI directory
protocol.  We cannot run x86 full-system simulation, so we reproduce the
*network-facing* behaviour: cores issue a bounded number of outstanding
memory requests (1-flit control packets on VNet 0) to home nodes; homes
answer with 5-flit data responses on VNet 2, occasionally indirecting
through a third-party owner with a forward on VNet 1 (three-hop
coherence).  Runtime is the cycle at which every core has completed its
request quota, so scheme-induced latency/throughput differences translate
into runtime differences exactly as in the paper's full-system runs.

The consumption policy implements Sec. V-B4 verbatim: responses are
always consumed; a request (or forward) is consumed only when the
response injection queue has a free entry, and consuming it enqueues the
response it generates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.noc.flit import Packet
from repro.noc.ni import NEVER, Endpoint

REQUEST_VNET = 0
FORWARD_VNET = 1
RESPONSE_VNET = 2


@dataclass
class WorkloadProfile:
    """Per-benchmark network behaviour knobs."""

    name: str
    #: probability a core issues a new request in a cycle (given MLP room).
    issue_rate: float
    #: maximum outstanding requests per core.
    mlp: int
    #: fraction of requests homed in the requester's own chiplet.
    locality: float
    #: fraction of requests homed at an interposer directory.
    directory_fraction: float
    #: probability a home indirects through a third-party owner (VNet 1).
    forward_fraction: float
    #: requests each core must complete before the benchmark ends.
    requests_per_core: int


class CoherenceEndpoint(Endpoint):
    """Core + home-node behaviour for one NI."""

    def __init__(
        self,
        profile: WorkloadProfile,
        peers: List[int],
        same_chiplet: List[int],
        directories: List[int],
        rng: random.Random,
        is_core: bool,
        data_size: int = 5,
        control_size: int = 1,
    ):
        self.profile = profile
        self.peers = peers
        self.same_chiplet = same_chiplet
        self.directories = directories
        self.rng = rng
        #: issue decisions are drawn once per cycle *unconditionally* so
        #: the decision sequence is locked to wall-clock time: two runs of
        #: the same workload under different schemes issue the same
        #: requests at (nearly) the same times, keeping Fig. 8's
        #: cross-scheme runtime comparison apples-to-apples.
        self._issue_rng = random.Random(rng.randrange(2**31))
        #: cycle of the next issue-decision success (geometric skip-ahead).
        self._issue_cycle = -1
        self.is_core = is_core
        self.data_size = data_size
        self.control_size = control_size
        self.outstanding = 0
        self.completed = 0
        #: requests consumed but whose response could not yet be enqueued.
        self._stalled_replies: List = []

    # ------------------------------------------------------------------ #
    # core side

    @property
    def done(self) -> bool:
        """Cores finish at their request quota; homes are always done."""
        return not self.is_core or self.completed >= self.profile.requests_per_core

    def _pick_home(self) -> int:
        r = self.rng.random()
        if r < self.profile.directory_fraction and self.directories:
            return self.rng.choice(self.directories)
        if r < self.profile.directory_fraction + self.profile.locality:
            candidates = self.same_chiplet
        else:
            candidates = self.peers
        home = self.rng.choice(candidates)
        while home == self.ni.node:
            home = self.rng.choice(candidates)
        return home

    @property
    def _quota_issued(self) -> bool:
        """Every request of the quota has been issued: no issue draw can
        matter again (``completed + outstanding`` never falls)."""
        return self.completed + self.outstanding >= self.profile.requests_per_core

    def _arm(self, base: int) -> None:
        """Draw the per-cycle issue decisions forward from ``base`` until
        the next success.

        ``_issue_rng`` is private to this endpoint and the decision is one
        ``random()`` per cycle, so consuming the failure run up front
        yields a bit-identical stream and issue schedule while letting the
        NI sleep until :attr:`_issue_cycle`.  A non-positive (or NaN)
        rate never succeeds, so it arms nothing rather than loop forever.
        """
        rate = self.profile.issue_rate
        if not rate > 0.0:
            self._issue_cycle = NEVER
            return
        rng_random = self._issue_rng.random
        cycle = base
        while rng_random() >= rate:
            cycle += 1
        self._issue_cycle = cycle

    def step(self, cycle: int) -> None:
        """Issue at most one new request, MLP and quota permitting."""
        if not self.is_core or self._quota_issued:
            return
        if self._issue_cycle < cycle:
            self._arm(cycle)
        if self._issue_cycle != cycle:
            return
        self._arm(cycle + 1)
        if self.outstanding >= self.profile.mlp:
            return
        home = self._pick_home()
        packet = self.ni.send_message(
            home, REQUEST_VNET, self.control_size, cycle, payload=("req", self.ni.node)
        )
        if packet is not None:
            self.outstanding += 1

    def next_event(self, cycle: int):
        """The pre-drawn issue cycle of an unfinished core; :data:`NEVER`
        for homes and cores whose quota is issued (``consume`` acts only
        on arrivals, which wake the NI); per-cycle polling while a stalled
        reply waits for injection-queue space."""
        if self._stalled_replies:
            return None
        if not self.is_core or self._quota_issued:
            return NEVER
        return self._issue_cycle if self._issue_cycle > cycle else None

    # ------------------------------------------------------------------ #
    # consumption policy (Sec. V-B4)

    def consume(self, cycle: int) -> None:
        """The Sec. V-B4 consumption policy (see module docstring)."""
        # 1. responses: the terminating message type, always consumable.
        packet = self.ni.consume_message(RESPONSE_VNET)
        if packet is not None and packet.payload and packet.payload[0] == "data":
            self.outstanding -= 1
            self.completed += 1
        # flush any reply stalled on a previously full injection queue
        self._flush_stalled(cycle)
        # 2. forwards and requests: consumed only when the reply they will
        #    generate has injection-queue space.
        for vnet in (FORWARD_VNET, REQUEST_VNET):
            if self.ni.injection_space(RESPONSE_VNET) <= len(self._stalled_replies):
                break
            packet = self.ni.peek_message(vnet)
            if packet is None:
                continue
            self.ni.consume_message(vnet)
            self._enqueue_reply(packet, cycle)

    def _enqueue_reply(self, packet: Packet, cycle: int) -> None:
        requester = packet.payload[1]
        if (
            packet.vnet == REQUEST_VNET
            and self.rng.random() < self.profile.forward_fraction
        ):
            candidates = [p for p in self.peers if p not in (self.ni.node, requester)]
            if candidates:
                owner = self.rng.choice(candidates)
                sent = self.ni.send_message(
                    owner,
                    FORWARD_VNET,
                    self.control_size,
                    cycle,
                    payload=("fwd", requester),
                )
                if sent is None:
                    self._stalled_replies.append((owner, FORWARD_VNET, ("fwd", requester)))
                return
        sent = self.ni.send_message(
            requester, RESPONSE_VNET, self.data_size, cycle, payload=("data", self.ni.node)
        )
        if sent is None:
            self._stalled_replies.append((requester, RESPONSE_VNET, ("data", self.ni.node)))

    def _flush_stalled(self, cycle: int) -> None:
        remaining = []
        for dst, vnet, payload in self._stalled_replies:
            size = self.data_size if vnet == RESPONSE_VNET else self.control_size
            if self.ni.send_message(dst, vnet, size, cycle, payload=payload) is None:
                remaining.append((dst, vnet, payload))
        self._stalled_replies = remaining


def install_coherence_workload(
    network, profile: WorkloadProfile, directory_count: int = 8
) -> List[CoherenceEndpoint]:
    """Attach coherence endpoints: every chiplet node is a core + L2 home;
    ``directory_count`` interposer NIs act as directories (homes only)."""
    topo = network.topo
    cores = topo.chiplet_nodes
    n_interposer = topo.n_interposer
    stride = max(1, n_interposer // directory_count)
    directories = list(range(0, n_interposer, stride))[:directory_count]
    endpoints = []
    cfg = network.cfg
    for node in cores:
        chiplet = topo.chiplet_of[node]
        endpoint = CoherenceEndpoint(
            profile,
            peers=cores,
            same_chiplet=topo.chiplet_routers(chiplet),
            directories=directories,
            rng=random.Random(network.cfg.seed * 100003 + node),
            is_core=True,
            data_size=cfg.data_packet_size,
            control_size=cfg.control_packet_size,
        )
        network.nis[node].set_endpoint(endpoint)
        endpoints.append(endpoint)
    for node in topo.interposer_routers:
        endpoint = CoherenceEndpoint(
            profile,
            peers=cores,
            same_chiplet=cores,
            directories=directories,
            rng=random.Random(network.cfg.seed * 100003 + node),
            is_core=False,
            data_size=cfg.data_packet_size,
            control_size=cfg.control_packet_size,
        )
        network.nis[node].set_endpoint(endpoint)
        endpoints.append(endpoint)
    return endpoints


def workload_finished(endpoints: List[CoherenceEndpoint]) -> bool:
    """True when every core has completed its request quota."""
    return all(e.done for e in endpoints)

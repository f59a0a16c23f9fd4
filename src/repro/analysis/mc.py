"""Bounded exhaustive model checking of the deadlock protocols.

The PR 2 certifier (:mod:`repro.analysis.certifier`) proves the Sec. IV
upward-crossing property on the *channel-dependency graph* — a necessary
condition, but one that says nothing about the protocol layered on top
(popup tagging, slot reservation, wormhole occupancy).  Following
Stramaglia, Keiren & Zantema (arXiv 2101.06015), this module closes that
gap by exhaustive state-space exploration of a bounded protocol model on
configurations small enough to exhaust:

* **Channels as resources.**  Every (router, out_port) channel of the
  real system is one exclusive resource; routes come from the *live*
  routing function via :func:`repro.routing.cdg.route_channels`, so the
  model checks exactly the routing the simulator executes.
* **Worms as tokens with a two-channel footprint.**  A Table II data
  packet is 5 flits over depth-4 VCs: a worm in flight spans two
  consecutive channels.  The model token at route position ``p``
  therefore holds ``route[p]`` *and* ``route[p-1]`` — the minimal
  footprint that reproduces the paper's integration-induced deadlocks
  (a single-channel token model provably cannot deadlock on these
  systems; we verified it explores to fixpoint without finding one).
* **Exhaustive injection.**  Bernoulli arrivals are replaced by
  nondeterministic injection choices: at every state any pending flow
  may inject, so the explored space covers *all* arrival interleavings
  of the flow set — strictly more than any finite random simulation.
* **Scheme semantics.**  Each scheme declares ``mc_semantics``
  (:class:`repro.schemes.base.DeadlockScheme`): ``"base"`` for the
  unprotected/composable schemes (composable differs by its restricted
  routing, not by protocol), ``"popup"`` for UPP (a worm blocked on an
  occupied upward vertical channel pops up and is delivered — the
  Sec. IV recovery move), and ``"absorb"`` for remote control
  (slot-gated injection; the upward channel feeds a boundary buffer
  that never backpressures, Sec. III-B).

Exploration is plain BFS over canonically hashed states (the position
tuple *is* the canonical form) with parent pointers, so the first
deadlock found is at minimal depth and unwinds into a **minimal
counterexample trace**: the injection sequence plus the channel-wait
chain of the final knot.  Every transition strictly increases total
worm progress, so the transition graph is a DAG and **packet-delivery
liveness** ("all flows can still complete from every reachable state")
is decided by one backward sweep in decreasing-progress order — no
cycle detection needed.

Witness traces *concretize*: :func:`replay_witness` installs the
witness flows as saturating adversarial traffic on the real simulator
(vector or legacy datapath, sanitizer on) and reports the cycle at
which :func:`repro.metrics.deadlock.deadlocked_packets` certifies the
knot — the cross-validation tests assert both datapaths reproduce it
at the same cycle.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.noc.flit import Port, UPWARD_PORTS
from repro.routing.cdg import build_system_cdg, cycle_flows, route_channels
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.presets import table2_config, table2_upp_config
from repro.topology.registry import get_topology

#: (router id, output port) — one channel of the real system.
Channel = Tuple[int, Port]
#: (src node, dst node) — one saturated traffic flow.
Flow = Tuple[int, int]

#: route position of a flow that has not injected yet.
PENDING = -1

#: hard exploration bound — two orders of magnitude above the full state
#: spaces of the curated presets, a stop for misconfigured models only.
MAX_STATES = 2_000_000


@dataclass(frozen=True)
class MCPreset:
    """One model-checkable configuration: a topology alias plus a
    curated adversarial flow set.

    The flow sets were derived with :func:`select_flows` (CDG cycle
    enumeration -> per-edge witness flows -> greedy minimization while a
    deadlock stays reachable under ``base`` semantics) and frozen here so
    every run explores the identical, already-minimal space;
    ``select_flows`` remains the reproducible derivation path and is
    exercised by the test suite.
    """

    topology: str
    vcs: int
    flows: Tuple[Flow, ...]


MC_PRESETS: Dict[str, MCPreset] = {
    "mc-2x1": MCPreset(
        topology="mc-2x1",
        vcs=1,
        flows=((2, 5), (4, 6), (2, 8), (9, 6), (7, 2), (6, 3)),
    ),
    "mc-2x2": MCPreset(
        topology="mc-2x2",
        vcs=1,
        flows=((12, 15), (14, 4), (12, 6), (7, 4), (5, 8), (4, 12), (4, 13)),
    ),
}


def mc_preset_names() -> Tuple[str, ...]:
    """Names of the model-checkable presets."""
    return tuple(MC_PRESETS)


def build_mc_network(preset: str, scheme_name: str):
    """The real network a preset's model (and witness replay) is built on."""
    spec = MC_PRESETS[preset]
    from repro.noc.network import Network

    topo = get_topology(spec.topology)()
    cfg = table2_config(spec.vcs)
    scheme = make_scheme(scheme_name, upp_cfg=table2_upp_config())
    return Network(topo, cfg, scheme)


# --------------------------------------------------------------------- #
# rendering (shared with the certifier's --witness mode)


def format_channel(channel: Channel) -> str:
    """Render one channel as ``(router,PORT)``."""
    rid, port = channel
    return f"({rid},{port.name})"


def format_chain(channels: Sequence[Channel], topo=None) -> str:
    """Render a channel sequence as a wait/route chain; with a topology,
    upward vertical channels are marked ``^`` (the Sec. IV resource)."""
    parts = []
    for rid, port in channels:
        mark = ""
        if topo is not None and port in UPWARD_PORTS and topo.is_interposer(rid):
            mark = "^"
        parts.append(f"({rid},{port.name}){mark}")
    return " -> ".join(parts)


# --------------------------------------------------------------------- #
# the protocol model


class ProtocolModel:
    """Bounded token model of worm progress over the channel graph.

    A state is one position per flow: ``PENDING`` (not injected),
    ``0..L-1`` (worm head has acquired ``route[p]``), or ``L``
    (delivered).  Channels are interned to integers for speed.
    """

    def __init__(self, network, flows: Sequence[Flow], semantics: str = "base"):
        if semantics not in ("base", "popup", "absorb"):
            raise ValueError(f"unknown mc semantics {semantics!r}")
        self.semantics = semantics
        self.flows: List[Flow] = [tuple(f) for f in flows]
        topo = network.topo
        self.topo = topo
        self.channels: List[Channel] = []
        chan_id: Dict[Channel, int] = {}
        self.routes: List[Tuple[int, ...]] = []
        for src, dst in self.flows:
            ids = []
            for ch in route_channels(network, src, dst):
                if ch not in chan_id:
                    chan_id[ch] = len(self.channels)
                    self.channels.append(ch)
                ids.append(chan_id[ch])
            self.routes.append(tuple(ids))
        self.upward = frozenset(
            cid
            for cid, (rid, port) in enumerate(self.channels)
            if port in UPWARD_PORTS and topo.is_interposer(rid)
        )
        # absorb semantics: the (single) upward channel of an inter-chiplet
        # route becomes a boundary-buffer stage with no channel occupancy,
        # and injection is gated by the per-entry-boundary slot budget.
        self.buf_stage: List[Optional[int]] = []
        self.entry: List[Optional[int]] = []
        for i, route in enumerate(self.routes):
            buf = next((k for k, cid in enumerate(route) if cid in self.upward), None)
            if semantics != "absorb" or buf is None:
                self.buf_stage.append(None)
                self.entry.append(None)
                continue
            self.buf_stage.append(buf)
            if buf + 1 < len(route):
                self.entry.append(self.channels[route[buf + 1]][0])
            else:
                self.entry.append(self.flows[i][1])
        if semantics == "absorb":
            scheme = network.scheme
            per_vnet = max(1, getattr(scheme, "n_slots", 6) // network.cfg.n_vnets)
            self.slots = per_vnet * network.cfg.vcs_per_vnet
        else:
            self.slots = 0
        self.initial: Tuple[int, ...] = (PENDING,) * len(self.flows)

    # ------------------------------------------------------------------ #

    def footprint(self, flow: int, p: int) -> Tuple[int, ...]:
        """Channel ids held by one worm at position ``p`` (span two)."""
        route = self.routes[flow]
        if not 0 <= p < len(route):
            return ()
        buf = self.buf_stage[flow]
        if p == buf:
            # the whole packet sits in the boundary buffer: absorption
            # space was slot-reserved, so the worm drains entirely off
            # the links and credits return immediately (Sec. III-B)
            return ()
        return tuple(
            route[q] for q in (p, p - 1) if q >= 0 and q != buf
        )

    def occupancy(self, state: Tuple[int, ...]) -> Dict[int, int]:
        """channel id -> holding flow, over one state."""
        occ: Dict[int, int] = {}
        for i, p in enumerate(state):
            for cid in self.footprint(i, p):
                occ[cid] = i
        return occ

    def moves(self, state: Tuple[int, ...]):
        """Enabled transitions as ``(kind, flow, successor_state)``;
        kinds: inject / advance / absorb / popup / deliver."""
        occ = self.occupancy(state)
        inflight_at: Dict[int, int] = {}
        if self.semantics == "absorb":
            for i, p in enumerate(state):
                entry = self.entry[i]
                if entry is not None and PENDING < p < len(self.routes[i]):
                    inflight_at[entry] = inflight_at.get(entry, 0) + 1
        result = []
        for i, p in enumerate(state):
            route = self.routes[i]
            last = len(route)
            if p == last:
                continue
            if p == PENDING:
                if route[0] in occ:
                    continue
                entry = self.entry[i]
                if entry is not None and inflight_at.get(entry, 0) >= self.slots:
                    continue
                result.append(("inject", i, self._at(state, i, 0)))
            elif p == last - 1:
                # ejection into the NI never blocks
                result.append(("deliver", i, self._at(state, i, last)))
            elif p + 1 == self.buf_stage[i]:
                # absorption off the vertical link never backpressures
                result.append(("absorb", i, self._at(state, i, p + 1)))
            else:
                target = route[p + 1]
                if target not in occ:
                    result.append(("advance", i, self._at(state, i, p + 1)))
                elif self.semantics == "popup" and (
                    target in self.upward
                    or any(c in self.upward for c in self.footprint(i, p))
                ):
                    # a blocked *upward packet* — one waiting for, or still
                    # straddling, an upward vertical channel — pops up and
                    # completes through the reserved circuit (Sec. IV);
                    # since every knot's channel cycle crosses an upward
                    # channel, some knot member always has this escape
                    result.append(("popup", i, self._at(state, i, last)))
        return result

    @staticmethod
    def _at(state: Tuple[int, ...], flow: int, p: int) -> Tuple[int, ...]:
        out = list(state)
        out[flow] = p
        return tuple(out)

    def is_deadlock(self, state: Tuple[int, ...], moves) -> bool:
        """True when some worm is in flight and no in-flight worm can
        move (injections cannot free a held channel, so blocked worms
        stay blocked forever)."""
        inflight = any(
            PENDING < p < len(self.routes[i]) for i, p in enumerate(state)
        )
        return inflight and all(kind == "inject" for kind, _, _ in moves)

    def progress(self, state: Tuple[int, ...]) -> int:
        """Total worm progress; every transition strictly increases it,
        so the transition graph is a DAG."""
        return sum(p + 1 for p in state)


# --------------------------------------------------------------------- #
# exploration


@dataclass
class Exploration:
    """Raw outcome of one BFS over a model's reachable state space."""

    model: ProtocolModel
    n_states: int
    n_transitions: int
    deadlocks: List[Tuple[int, ...]]
    parents: Dict[Tuple[int, ...], Optional[Tuple]]
    #: True iff the whole reachable space was enumerated (no cap hit,
    #: no early stop) — only then are "zero deadlocks" and the liveness
    #: sweep proofs rather than samples.
    explored_to_fixpoint: bool


def explore(
    model: ProtocolModel,
    max_states: int = MAX_STATES,
    stop_at_first_deadlock: bool = False,
) -> Exploration:
    """BFS the reachable state space from the all-pending state."""
    initial = model.initial
    parents: Dict[Tuple[int, ...], Optional[Tuple]] = {initial: None}
    queue = deque([initial])
    deadlocks: List[Tuple[int, ...]] = []
    n_transitions = 0
    stopped = False
    while queue and not stopped:
        state = queue.popleft()
        moves = model.moves(state)
        if model.is_deadlock(state, moves):
            deadlocks.append(state)
            if stop_at_first_deadlock:
                stopped = True
                break
        for kind, flow, nxt in moves:
            n_transitions += 1
            if nxt not in parents:
                if len(parents) >= max_states:
                    stopped = True
                    break
                parents[nxt] = (state, kind, flow)
                queue.append(nxt)
    return Exploration(
        model=model,
        n_states=len(parents),
        n_transitions=n_transitions,
        deadlocks=deadlocks,
        parents=parents,
        explored_to_fixpoint=not stopped and not queue,
    )


def check_liveness(exploration: Exploration) -> bool:
    """Decide packet-delivery liveness over a fixpoint exploration.

    ``good(s)`` = the all-delivered state is reachable from ``s``.
    Transitions strictly increase total progress (DAG), so one sweep in
    decreasing-progress order decides ``good`` for every reachable
    state; liveness holds iff all of them are good.
    """
    if not exploration.explored_to_fixpoint:
        raise ValueError("liveness needs a fixpoint exploration")
    model = exploration.model
    all_done = tuple(len(r) for r in model.routes)
    good: Dict[Tuple[int, ...], bool] = {}
    for state in sorted(exploration.parents, key=model.progress, reverse=True):
        if state == all_done:
            good[state] = True
        else:
            good[state] = any(good[nxt] for _, _, nxt in model.moves(state))
    return all(good.values())


# --------------------------------------------------------------------- #
# witnesses


@dataclass
class Witness:
    """A minimal counterexample: the shortest transition sequence from
    the empty network to a deadlocked state, plus the wait chain."""

    flows: List[Flow]
    depth: int
    steps: List[Tuple[str, int]]  # (kind, flow index)
    state: Tuple[int, ...]

    def render(self, model: ProtocolModel) -> List[str]:
        """Human-readable trace plus the channel-wait chain."""
        lines = []
        positions = list(model.initial)
        for k, (kind, i) in enumerate(self.steps):
            src, dst = model.flows[i]
            route = model.routes[i]
            if kind == "inject":
                where = format_channel(model.channels[route[0]])
                positions[i] = 0
            elif kind in ("advance", "absorb"):
                positions[i] += 1
                where = format_channel(model.channels[route[positions[i]]])
                if kind == "absorb":
                    where += " [boundary buffer]"
            else:  # deliver / popup
                positions[i] = len(route)
                where = "delivered" if kind == "deliver" else "popped up"
            lines.append(f"step {k + 1:>2}: {kind:<7} flow {i} ({src}->{dst}) {where}")
        lines.append("deadlocked wait chain:")
        lines.extend("  " + line for line in self.wait_chain(model))
        return lines

    def wait_chain(self, model: ProtocolModel) -> List[str]:
        """One line per blocked worm: held channels, the wanted channel,
        and which flow holds it — the knot in channel terms."""
        occ = model.occupancy(self.state)
        lines = []
        for i, p in enumerate(self.state):
            route = model.routes[i]
            if not PENDING < p < len(route):
                continue
            src, dst = model.flows[i]
            held = [model.channels[c] for c in model.footprint(i, p)]
            target = route[p + 1]
            holder = occ.get(target)
            lines.append(
                f"flow {i} ({src}->{dst}) holds {format_chain(held, model.topo)} "
                f"wants {format_chain([model.channels[target]], model.topo)} "
                f"held by flow {holder}"
            )
        return lines


def extract_witness(exploration: Exploration) -> Optional[Witness]:
    """Unwind parent pointers from the first (minimal-depth) deadlock."""
    if not exploration.deadlocks:
        return None
    state = exploration.deadlocks[0]
    steps: List[Tuple[str, int]] = []
    cursor = state
    while True:
        entry = exploration.parents[cursor]
        if entry is None:
            break
        prev, kind, flow = entry
        steps.append((kind, flow))
        cursor = prev
    steps.reverse()
    return Witness(
        flows=list(exploration.model.flows),
        depth=len(steps),
        steps=steps,
        state=state,
    )


# --------------------------------------------------------------------- #
# flow selection (the reproducible derivation of MC_PRESETS flow sets)


def select_flows(
    network,
    max_cycle_len: int = 12,
    cap: int = 600_000,
    minimize: bool = True,
    log: Callable[[str], None] = lambda line: None,
) -> List[Flow]:
    """Derive a small deadlocking flow set for an unprotected network.

    Enumerates short CDG cycles (shortest first), takes one witness flow
    per cycle edge (the first route, in flow order, using the edge's two
    channels consecutively, as the CDG build recorded it), and explores
    each candidate set under ``base`` semantics until one
    reaches a deadlock; that set is then greedily minimized (drop any
    flow whose removal keeps the deadlock reachable).  Deterministic:
    candidate order, witness choice and minimization order are all fixed
    by iteration order.  Every capped exploration is logged — a cap is a
    skipped candidate, not a verdict.

    Raises ``ValueError`` when no candidate deadlocks (e.g. composable
    routing's acyclic CDG).
    """
    nodes = network.topo.chiplet_nodes
    graph = build_system_cdg(network, nodes)
    cycles = sorted(
        nx.simple_cycles(graph, length_bound=max_cycle_len), key=len
    )
    if not cycles:
        raise ValueError("routing CDG is acyclic; no deadlock is constructible")
    for n, cycle in enumerate(cycles):
        flows = cycle_flows(graph, zip(cycle, cycle[1:] + cycle[:1]))
        model = ProtocolModel(network, flows, "base")
        probe = explore(model, max_states=cap, stop_at_first_deadlock=True)
        if probe.deadlocks:
            log(
                f"cycle {n} (len {len(cycle)}): {len(flows)} flows deadlock "
                f"after {probe.n_states} states"
            )
            if minimize:
                flows = _minimize_flows(network, flows, cap, log)
            return flows
        log(
            f"cycle {n} (len {len(cycle)}): {len(flows)} flows, "
            f"{probe.n_states} states, "
            + ("capped" if not probe.explored_to_fixpoint else "no deadlock")
        )
    raise ValueError("no candidate CDG cycle produced a model deadlock")


def _minimize_flows(network, flows: List[Flow], cap: int, log) -> List[Flow]:
    """Greedily drop flows while a deadlock stays reachable."""
    kept = list(flows)
    for flow in list(kept):
        if len(kept) <= 2:
            break
        trial = [f for f in kept if f != flow]
        probe = explore(
            ProtocolModel(network, trial, "base"),
            max_states=cap,
            stop_at_first_deadlock=True,
        )
        if probe.deadlocks:
            kept = trial
            log(f"minimize: dropped flow {flow} ({len(kept)} remain)")
    return kept


# --------------------------------------------------------------------- #
# per-scheme results and the cross-validation matrix


@dataclass
class MCResult:
    """Model-checking outcome for one preset x scheme."""

    preset: str
    scheme: str
    semantics: str
    flows: List[Flow]
    n_states: int
    n_transitions: int
    n_deadlock_states: int
    explored_to_fixpoint: bool
    liveness: Optional[bool]
    #: the scheme's own claim (qualitative_profile()["deadlock_free"]).
    claims_deadlock_free: bool
    witness: Optional[Witness]
    seconds: float
    #: set by run_mc when the witness was replayed on the real simulator.
    replay: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when exploration agrees with the scheme's claim: a
        deadlock-free scheme must exhaust the space with zero deadlock
        states and liveness; a non-protected scheme must yield a
        witness."""
        if self.claims_deadlock_free:
            return (
                self.explored_to_fixpoint
                and self.n_deadlock_states == 0
                and self.liveness is True
            )
        return self.witness is not None

    def summary(self) -> str:
        """One human-readable line."""
        if self.n_deadlock_states:
            shape = (
                f"{self.n_deadlock_states} deadlock state(s), minimal "
                f"witness depth {self.witness.depth}"
            )
        elif not self.explored_to_fixpoint:
            shape = "CAPPED (no proof)"
        else:
            shape = (
                "deadlock-free, "
                + ("live" if self.liveness else "NOT live")
                + " (proved by exhaustion)"
            )
        return (
            f"{self.scheme} [{self.semantics}]: {self.n_states} states, "
            f"{self.n_transitions} transitions in {self.seconds:.2f}s -> "
            f"{shape} -> {'OK' if self.ok else 'FAIL'}"
        )

    def to_dict(self) -> dict:
        """JSON-able report entry."""
        out = {
            "preset": self.preset,
            "scheme": self.scheme,
            "semantics": self.semantics,
            "flows": [list(f) for f in self.flows],
            "n_states": self.n_states,
            "n_transitions": self.n_transitions,
            "n_deadlock_states": self.n_deadlock_states,
            "explored_to_fixpoint": self.explored_to_fixpoint,
            "liveness": self.liveness,
            "claims_deadlock_free": self.claims_deadlock_free,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "witness": None,
            "replay": self.replay,
        }
        if self.witness is not None:
            out["witness"] = {
                "depth": self.witness.depth,
                "steps": [[kind, flow] for kind, flow in self.witness.steps],
                "state": list(self.witness.state),
            }
        return out


def model_check(
    preset: str,
    scheme_name: str,
    max_states: int = MAX_STATES,
    flows: Optional[Sequence[Flow]] = None,
) -> MCResult:
    """Model-check one preset under one scheme's semantics."""
    if preset not in MC_PRESETS:
        raise ValueError(
            f"unknown mc preset {preset!r}; known: {', '.join(MC_PRESETS)}"
        )
    network = build_mc_network(preset, scheme_name)
    scheme = network.scheme
    semantics = getattr(scheme, "mc_semantics", "base")
    if flows is None:
        flows = MC_PRESETS[preset].flows
    started = time.perf_counter()
    model = ProtocolModel(network, flows, semantics)
    exploration = explore(model, max_states=max_states)
    witness = extract_witness(exploration)
    liveness: Optional[bool] = None
    if exploration.explored_to_fixpoint and not exploration.deadlocks:
        liveness = check_liveness(exploration)
    return MCResult(
        preset=preset,
        scheme=scheme.name,
        semantics=semantics,
        flows=list(model.flows),
        n_states=exploration.n_states,
        n_transitions=exploration.n_transitions,
        n_deadlock_states=len(exploration.deadlocks),
        explored_to_fixpoint=exploration.explored_to_fixpoint,
        liveness=liveness,
        claims_deadlock_free=bool(
            scheme.qualitative_profile().get("deadlock_free", False)
        ),
        witness=witness,
        seconds=time.perf_counter() - started,
    )


def cross_validate(
    preset: str,
    schemes: Optional[Sequence[str]] = None,
    max_states: int = MAX_STATES,
) -> List[dict]:
    """The certifier x model-checker agreement matrix for one preset.

    For every scheme: the static certificate must meet its expectation
    AND the model checker must agree with the scheme's deadlock-freedom
    claim (fixpoint + zero deadlocks + liveness when claimed free; a
    concrete witness when not).
    """
    from repro.analysis.certifier import certify_network

    rows = []
    for name in schemes if schemes is not None else scheme_names():
        cert = certify_network(build_mc_network(preset, name))
        result = model_check(preset, name, max_states=max_states)
        rows.append(
            {
                "preset": preset,
                "scheme": name,
                "certifier_ok": cert.ok,
                "certifier_verdict": cert.verdict,
                "mc": result,
                # both analyses must close their half of the story: the
                # certificate matches the scheme's CDG expectation and the
                # exploration matches its deadlock-freedom claim (proof of
                # absence when claimed free, concrete witness when not).
                "agree": cert.ok and result.ok,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# concretization: replay a witness on the real simulator


def replay_witness(
    preset: str,
    flows: Optional[Sequence[Flow]] = None,
    datapath: str = "vector",
    sanitize: bool = True,
    max_cycles: int = 3000,
) -> dict:
    """Drive the real simulator with the witness flows saturated and
    report the cycle at which the deadlock knot forms.

    Runs the *unprotected* scheme (the one the witness refutes) with the
    runtime invariant sanitizer enabled; polls
    :func:`repro.metrics.deadlock.deadlocked_packets` every cycle so the
    formation cycle is exact.  Returns a JSON-able outcome dict with
    ``deadlock_cycle`` of ``None`` when no knot formed in time.
    """
    from repro.metrics.deadlock import deadlocked_packets, knot_has_upward_packet
    from repro.sim.simulator import Simulation
    from repro.traffic.adversarial import install_adversarial_traffic

    spec = MC_PRESETS[preset]
    cfg = table2_config(spec.vcs)
    cfg.datapath = datapath
    cfg.sanitize = sanitize
    scheme = make_scheme("none")
    sim = Simulation(get_topology(spec.topology)(), cfg, scheme, watchdog_window=10**9)
    if flows is None:
        flows = spec.flows
    install_adversarial_traffic(sim.network, list(flows))
    deadlock_cycle = None
    knot: List[int] = []
    while sim.network.cycle < max_cycles:
        sim.network.run(1)
        knot = deadlocked_packets(sim.network)
        if knot:
            deadlock_cycle = sim.network.cycle
            break
    return {
        "preset": preset,
        "datapath": datapath,
        "sanitize": sanitize,
        "deadlock_cycle": deadlock_cycle,
        "n_deadlocked_packets": len(knot),
        "knot_has_upward_packet": (
            knot_has_upward_packet(sim.network) if knot else False
        ),
    }

"""Composable routing baseline (Yin et al., ISCA 2018) as modelled in the
UPP paper (Secs. III-B, VI).

From one chiplet's perspective, the rest of the system is abstracted into
a virtual external node reachable through the boundary routers.  A
design-time software algorithm places *unidirectional turn restrictions*
on the boundary routers (turns between the mesh directions and the
vertical DOWN port) until the chiplet's channel-dependency graph —
closed with conservative external ``down -> up`` edges — is acyclic.
Per-chiplet acyclicity under that closure implies global deadlock freedom
regardless of what the chiplet is integrated with (the scheme's
modularity claim); the repository's test suite re-verifies this on the
*full-system* CDG.

The performance artefacts the UPP paper criticises emerge naturally:

* restricted exit turns funnel many sources through few boundary routers
  (load imbalance, Fig. 2a);
* sources whose XY approach to the nearest boundary router is forbidden
  must use a farther one (non-minimal routes, higher latency).

The search itself is the "complex software algorithm" of Sec. III-C; its
cost is exposed via ``design_evaluations`` for the flexibility analysis.
A chiplet designer pays it once per chiplet *design*, so
:meth:`ComposableRoutingScheme.build_routing` runs it once per distinct
chiplet and hands sibling chiplets the same design with router ids
translated.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.noc.flit import OPPOSITE, Port
from repro.routing.base import LocalRouting, RestrictedTurnModel, XYTurnModel
from repro.routing.hierarchical import HierarchicalRouting
from repro.routing.table import TableRouting, TranslatedRouting
from repro.routing.xy import XYLocalRouting
from repro.schemes.base import DeadlockScheme
from repro.topology.chiplet import SystemTopology

Restriction = Tuple[int, Port, Port]


class ChipletDesign:
    """The design-time product for one chiplet."""

    def __init__(
        self,
        restrictions: Set[Restriction],
        table: LocalRouting,
        exit_sel: Dict[int, int],
        entry_sel: Dict[int, int],
    ):
        self.restrictions = restrictions
        self.table = table
        self.exit_sel = exit_sel
        self.entry_sel = entry_sel

    def translated(self, delta: int) -> "ChipletDesign":
        """This design for an identical chiplet whose router ids are this
        one's plus ``delta``.  The search sees a chiplet only through its
        own routers, links and boundary placement, in id order, so running
        it on the sibling would produce exactly this."""
        return ChipletDesign(
            {(rid + delta, i, o) for rid, i, o in self.restrictions},
            TranslatedRouting(self.table, delta),
            {rid + delta: b + delta for rid, b in self.exit_sel.items()},
            {rid + delta: b + delta for rid, b in self.entry_sel.items()},
        )


def _legal_exit_cost(table: TableRouting, src: int, boundary: int) -> Optional[int]:
    """Hops from src to the DOWN port of ``boundary`` under restrictions,
    or None if the final turn into DOWN is forbidden / unreachable."""
    if src == boundary:
        return 0  # LOCAL -> DOWN is never restricted
    try:
        walk = table.walk(src, Port.LOCAL, boundary)
    except ValueError:
        return None
    last_rid, last_port = walk[-1]
    in_port_at_b = OPPOSITE[last_port]
    if not table.turn_model.allowed(boundary, in_port_at_b, Port.DOWN):
        return None
    return len(walk)


def _legal_entry_cost(table: TableRouting, dst: int, boundary: int) -> Optional[int]:
    if dst == boundary:
        return 0
    return table.path_length(boundary, Port.DOWN, dst)


def _selections(
    table: TableRouting, members: List[int], boundaries: List[int]
) -> Tuple[Optional[Dict[int, int]], Optional[Dict[int, int]]]:
    exit_sel: Dict[int, int] = {}
    entry_sel: Dict[int, int] = {}
    for rid in members:
        exit_costs = [
            (cost, b)
            for b in boundaries
            if (cost := _legal_exit_cost(table, rid, b)) is not None
        ]
        if not exit_costs:
            return None, None
        exit_sel[rid] = min(exit_costs)[1]
        entry_costs = [
            (cost, b)
            for b in boundaries
            if (cost := _legal_entry_cost(table, rid, b)) is not None
        ]
        if not entry_costs:
            return None, None
        entry_sel[rid] = min(entry_costs)[1]
    return exit_sel, entry_sel


#: a CDG node: ``("ch", router, out_port)``, ``("down", b)`` or ``("up", b)``
Node = Tuple
#: node -> its successors; both levels in first-insertion order, which is
#: what makes the cycle search (and so the design) deterministic
Graph = Dict[Node, Dict[Node, None]]


def _chiplet_cdg(
    table: TableRouting,
    members: List[int],
    boundaries: List[int],
    exit_sel: Dict[int, int],
    entry_sel: Dict[int, int],
) -> Graph:
    """Channel-dependency graph of one chiplet, closed with conservative
    external down->up edges (the virtual-node abstraction)."""
    graph: Graph = {}

    def add_edge(a: Node, c: Node) -> None:
        graph.setdefault(a, {})[c] = None
        graph.setdefault(c, {})

    def add_chain(walk) -> List[Node]:
        channels = [("ch", u, p) for u, p in walk]
        for a, c in zip(channels, channels[1:]):
            add_edge(a, c)
        return channels

    for rid in members:
        # outbound route rid -> exit boundary -> DOWN
        b = exit_sel[rid]
        if rid != b:
            channels = add_chain(table.walk(rid, Port.LOCAL, b))
            add_edge(channels[-1], ("down", b))
        # inbound route entry boundary -> DOWN input -> rid
        b = entry_sel[rid]
        if rid != b:
            walk = table.walk(b, Port.DOWN, rid)
            add_edge(("up", b), ("ch", *walk[0]))
            add_chain(walk)
        # intra-chiplet routes: the glue that joins inbound chains to
        # outbound chains (a cycle needs no single packet spanning
        # up-to-down; consecutive overlapping worms suffice)
        for dst in members:
            if dst != rid:
                add_chain(table.walk(rid, Port.LOCAL, dst))
    for x in boundaries:
        for y in boundaries:
            add_edge(("down", x), ("up", y))
    return graph


def _find_cycle(graph: Graph) -> Optional[List[Tuple[Node, Node]]]:
    """The first cycle a depth-first search meets, as its edge list, or
    ``None`` when the graph is acyclic.  Start nodes and successors are
    taken in insertion order (the order ``networkx.find_cycle`` takes on
    the same graph; the tests hold the two together)."""
    finished: Set[Node] = set()
    for start in graph:
        if start in finished:
            continue
        path = [start]
        on_path = {start}
        pending = [iter(graph[start])]
        while path:
            for head in pending[-1]:
                if head in on_path:
                    nodes = path[path.index(head):] + [head]
                    return list(zip(nodes, nodes[1:]))
                if head not in finished:
                    path.append(head)
                    on_path.add(head)
                    pending.append(iter(graph[head]))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.remove(node)
                finished.add(node)
    return None


def _candidates_on_cycle(cycle) -> List[Restriction]:
    """Restrictable boundary turns among a CDG cycle's edges."""
    result: List[Restriction] = []
    for src, dst in cycle:
        if src[0] == "ch" and dst[0] == "down":
            _, u, port = src
            b = dst[1]
            result.append((b, OPPOSITE[port], Port.DOWN))
        elif src[0] == "up" and dst[0] == "ch":
            b = src[1]
            _, u, port = dst
            if u == b:
                result.append((b, Port.DOWN, port))
    return result


def design_chiplet(
    topo: SystemTopology, chiplet: int, max_iterations: int = 64
) -> Tuple[ChipletDesign, int]:
    """Run the design-time restriction search for one chiplet.

    Returns the design and the number of candidate evaluations performed
    (the algorithmic cost the paper calls impractical at runtime): one
    acyclicity check per round plus one connectivity check per candidate.
    """
    members = topo.chiplet_routers(chiplet)
    boundaries = topo.boundary_routers(chiplet)
    xy = XYTurnModel()
    unrestricted = TableRouting(topo, members, xy)

    def instantiate(rset: Set[Restriction]):
        # every restriction forbids a turn into or out of DOWN, which the
        # table's backward BFS never takes: all candidates share one set
        # of distance tables
        assert all(Port.DOWN in (i, o) for _rid, i, o in rset)
        table = unrestricted.with_vertical_restrictions(
            RestrictedTurnModel(xy, rset)
        )
        return (table, *_selections(table, members, boundaries))

    restrictions: Set[Restriction] = set()
    table, exit_sel, entry_sel = instantiate(restrictions)
    evaluations = 0
    for _ in range(max_iterations):
        # a round examines the set the previous round accepted: that is
        # one evaluation of the search, served by the trial's instantiation
        evaluations += 1
        if exit_sel is None:
            raise RuntimeError("composable design lost connectivity")
        cycle = _find_cycle(
            _chiplet_cdg(table, members, boundaries, exit_sel, entry_sel)
        )
        if cycle is None:
            return ChipletDesign(restrictions, table, exit_sel, entry_sel), evaluations
        placed = False
        for candidate in _candidates_on_cycle(cycle):
            if candidate in restrictions:
                continue
            trial = restrictions | {candidate}
            t_table, t_exit, t_entry = instantiate(trial)
            evaluations += 1
            if t_exit is None:
                continue  # would disconnect some router from the outside
            restrictions = trial
            table, exit_sel, entry_sel = t_table, t_exit, t_entry
            placed = True
            break
        if not placed:
            raise RuntimeError(
                f"no feasible turn restriction breaks the cycle {cycle}"
            )
    raise RuntimeError("composable design did not converge")


def _chiplet_key(topo: SystemTopology, chiplet: int) -> Hashable:
    """What the design search can see of a chiplet, in chiplet-local ids:
    mesh shape, boundary placement and the ordered local link list.  Two
    chiplets with equal keys get translations of one design."""
    first = topo.chiplet_router(chiplet, (0, 0))
    return (
        topo.chiplet_shapes[chiplet],
        tuple(b - first for b in topo.boundary_routers(chiplet)),
        tuple(
            (rid - first, port, nbr - first)
            for rid in topo.chiplet_routers(chiplet)
            for nbr, port in topo.layer_neighbors(rid)
        ),
    )


class ComposableRoutingScheme(DeadlockScheme):
    """Deadlock avoidance via boundary-router turn restrictions."""

    name = "composable"
    #: the turn restrictions make the *full-system* CDG acyclic — the
    #: static certifier holds this scheme to that stronger promise.
    cdg_expectation = "acyclic"

    def __init__(self) -> None:
        #: chiplet -> its design, for the topology of the latest build
        self.designs: Dict[int, ChipletDesign] = {}
        self.design_evaluations = 0

    def build_routing(
        self, topo: SystemTopology, cfg, rng: random.Random
    ) -> HierarchicalRouting:
        if topo.faulty:
            raise ValueError(
                "composable routing cannot reconfigure on faulty topologies "
                "(its exponential design-time search is impractical at "
                "runtime, Sec. III-C)"
            )
        exit_binding: Dict[int, int] = {}
        entry_binding: Dict[int, int] = {}
        chiplet_tables: Dict[int, LocalRouting] = {}
        self.designs = {}
        self.design_evaluations = 0
        # per distinct chiplet: the first one's design, search cost and
        # first router id
        designed: Dict[Hashable, Tuple[ChipletDesign, int, int]] = {}
        for chiplet in range(topo.n_chiplets):
            key = _chiplet_key(topo, chiplet)
            first = topo.chiplet_router(chiplet, (0, 0))
            if key in designed:
                original, evaluations, original_first = designed[key]
                design = original.translated(first - original_first)
            else:
                design, evaluations = design_chiplet(topo, chiplet)
                designed[key] = design, evaluations, first
            self.designs[chiplet] = design
            # what the system's designers pay (Sec. III-C): every chiplet
            # counts its design's cost, although identical ones share one
            # run of the search here
            self.design_evaluations += evaluations
            exit_binding.update(design.exit_sel)
            entry_binding.update(design.entry_sel)
            chiplet_tables[chiplet] = design.table
        interposer = XYLocalRouting(topo)
        return HierarchicalRouting(
            topo, interposer, chiplet_tables, exit_binding, entry_binding
        )

    @property
    def total_restrictions(self) -> int:
        return sum(len(d.restrictions) for d in self.designs.values())

    def qualitative_profile(self) -> Dict[str, bool]:
        return {
            "topology_modularity": True,
            "vc_modularity": True,
            "flow_control_modularity": True,
            "full_path_diversity": False,
            "no_injection_control": True,
            "topology_independence": False,
            "deadlock_free": True,
        }

    def stats_snapshot(self) -> dict:
        return {
            "turn_restrictions": self.total_restrictions,
            "design_evaluations": self.design_evaluations,
        }

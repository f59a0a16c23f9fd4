"""Table-driven local routing over an explicit turn model.

Routes are shortest paths in the *channel graph*: nodes are directed
same-layer channels, and channel (u -> v) connects to (v -> w) when the
turn model permits the turn at ``v``.  A backward BFS per destination
yields, for every (router, in_port), the minimising next hop.  This is the
machinery behind both up*/down* routing on faulty layers and the
composable-routing baseline's restricted chiplet tables.

Construction is linear in the channel graph: one incoming-channel index
serves every BFS, and each (router, in_port, destination) next hop is
resolved at most once, also across the candidate tables of a turn-restriction
search (:meth:`TableRouting.with_vertical_restrictions`).
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.noc.flit import OPPOSITE, Port
from repro.routing.base import MESH_DIRS, TurnModel
from repro.topology.chiplet import SystemTopology


class TableRouting:
    """Precomputed local routing for one layer (a set of router ids)."""

    def __init__(
        self,
        topo: SystemTopology,
        members: List[int],
        turn_model: TurnModel,
    ):
        self.topo = topo
        self.members = set(members)
        self.turn_model = turn_model
        #: neighbour over a healthy link: (rid, out_port) -> nbr
        self.neighbor_of: Dict[Tuple[int, Port], int] = {}
        #: channels (u, port) whose head is each router
        self._incoming: Dict[int, List[Tuple[int, Port]]] = {
            rid: [] for rid in members
        }
        for rid in members:
            for nbr, port in topo.layer_neighbors(rid):
                self.neighbor_of[(rid, port)] = nbr
                self._incoming.setdefault(nbr, []).append((rid, port))
        #: distance-to-destination per channel: dist[dst][(u, port)] is the
        #: hop count from the head of channel (u --port--> v) to dst.
        self._dist: Dict[int, Dict[Tuple[int, Port], int]] = {
            dst: self._backward_bfs(dst) for dst in members
        }
        #: resolved next hops: (rid, in_port, dst) -> port, None if
        #: unroutable; ``_down_next`` holds those entered through DOWN
        self._next: Dict[Tuple[int, Port, int], Optional[Port]] = {}
        self._down_next: Dict[Tuple[int, Port, int], Optional[Port]] = {}
        #: routed paths entered through any port but DOWN, by (src, in_port, dst)
        self._walks: Dict[Tuple[int, Port, int], Tuple[Tuple[int, Port], ...]] = {}

    def with_vertical_restrictions(self, turn_model: TurnModel) -> "TableRouting":
        """A table over the same layer under ``turn_model``, which may
        differ from this table's model only in turns into or out of DOWN.

        The backward BFS takes mesh-to-mesh turns and the ejection turn
        only, so such a model leaves every distance table unchanged.  A
        next hop entered through any other port turns into a mesh port, so
        it is unchanged too, and so is every walk entered that way: the
        sibling shares the distance tables, those next hops and those
        walks, and resolves only its own DOWN-entry hops.  The caller owns
        the precondition.
        """
        sibling = copy.copy(self)
        sibling.turn_model = turn_model
        sibling._down_next = {}
        return sibling

    # ------------------------------------------------------------------ #

    def _backward_bfs(self, dst: int) -> Dict[Tuple[int, Port], int]:
        """dist[(u, port)] = remaining hops after traversing u->nbr to
        reach ``dst`` (1 when nbr == dst and ejection is allowed)."""
        allowed = self.turn_model.allowed
        incoming = self._incoming
        dist: Dict[Tuple[int, Port], int] = {}
        frontier: deque = deque()
        for u, port in incoming[dst]:
            in_port_at_dst = OPPOSITE[port]
            if allowed(dst, in_port_at_dst, Port.LOCAL):
                dist[(u, port)] = 1
                frontier.append((u, port))
        while frontier:
            u, port = frontier.popleft()
            d = dist[(u, port)]
            # predecessors: channels (w, p) with head u whose turn into
            # (u, port) is allowed
            for w, p in incoming[u]:
                if (w, p) in dist:
                    continue
                if allowed(u, OPPOSITE[p], port):
                    dist[(w, p)] = d + 1
                    frontier.append((w, p))
        return dist

    # ------------------------------------------------------------------ #

    def next_port(self, rid: int, in_port: Port, dst: int) -> Port:
        """Table-routed next hop; raises when the turn model forbids
        every path (used as a design-time connectivity check)."""
        port = self.try_next_port(rid, in_port, dst)
        if port is None:
            raise ValueError(
                f"no route from router {rid} (in via {in_port.name}) to "
                f"{dst} under the turn model"
            )
        return port

    def try_next_port(self, rid: int, in_port: Port, dst: int) -> Optional[Port]:
        """Like :meth:`next_port`, but ``None`` when unroutable."""
        table = self._down_next if in_port is Port.DOWN else self._next
        key = (rid, in_port, dst)
        try:
            return table[key]
        except KeyError:
            port = table[key] = self._resolve(rid, in_port, dst)
            return port

    def _resolve(self, rid: int, in_port: Port, dst: int) -> Optional[Port]:
        if rid == dst:
            return Port.LOCAL
        dist = self._dist[dst]
        best: Optional[Port] = None
        best_d = None
        for port in MESH_DIRS:
            if (rid, port) not in self.neighbor_of:
                continue
            if not self.turn_model.allowed(rid, in_port, port):
                continue
            d = dist.get((rid, port))
            if d is None:
                continue
            if best_d is None or d < best_d:
                best, best_d = port, d
        return best

    def path_length(self, src: int, in_port: Port, dst: int) -> Optional[int]:
        """Hop count of the routed path, or ``None`` if unreachable."""
        try:
            return len(self.walk(src, in_port, dst))
        except ValueError:
            return None

    def walk(
        self, src: int, in_port: Port, dst: int
    ) -> Tuple[Tuple[int, Port], ...]:
        """The (router, out_port) sequence of the routed path."""
        if in_port is Port.DOWN and src != dst:
            # only the first hop can differ between sibling tables
            port = self.try_next_port(src, in_port, dst)
            if port is None:
                raise ValueError(f"unroutable: {src} -> {dst}")
            nbr = self.neighbor_of[(src, port)]
            return ((src, port), *self.walk(nbr, OPPOSITE[port], dst))
        key = (src, in_port, dst)
        try:
            return self._walks[key]
        except KeyError:
            pass
        steps: List[Tuple[int, Port]] = []
        rid, port_in = src, in_port
        while rid != dst:
            port = self.try_next_port(rid, port_in, dst)
            if port is None:
                raise ValueError(f"unroutable: {src} -> {dst}")
            steps.append((rid, port))
            rid = self.neighbor_of[(rid, port)]
            port_in = OPPOSITE[port]
            if len(steps) > 4 * len(self.members):
                raise RuntimeError("routing table produced a loop")
        walk = self._walks[key] = tuple(steps)
        return walk


class TranslatedRouting:
    """A table serving a layer whose router ids are its own layer's plus
    ``delta`` — a sibling chiplet built to the same design."""

    def __init__(self, table: TableRouting, delta: int):
        self.table = table
        self.delta = delta

    def next_port(self, rid: int, in_port: Port, dst: int) -> Port:
        """The table's next hop, asked and answered in the sibling's ids."""
        return self.table.next_port(rid - self.delta, in_port, dst - self.delta)

"""Full-system channel-dependency-graph construction and analysis.

Used by the test suite to verify the paper's framing end to end:

* composable routing's restricted system CDG is **acyclic** (deadlock
  avoidance holds globally, not only per chiplet);
* the unrestricted Sec. V-D routing (used by UPP, remote control and the
  unprotected baseline) has a **cyclic** CDG, and every cycle crosses an
  upward vertical channel — the paper's key theorem that an
  integration-induced deadlock always involves an upward packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.noc.flit import Port, UPWARD_PORTS
from repro.topology.chiplet import SystemTopology

if TYPE_CHECKING:  # imported where cycles are searched: a sweep never needs it
    import networkx as nx

Channel = Tuple[int, Port]


def _link_map(topo: SystemTopology) -> Dict[Tuple[int, Port], Tuple[int, Port]]:
    """(src, src_port) -> (dst, dst_port) over healthy links."""
    result = {}
    for spec in topo.links:
        if (spec.src, spec.dst) not in topo.faulty:
            result[(spec.src, spec.src_port)] = (spec.dst, spec.dst_port)
    return result


class RoutingLoopError(RuntimeError):
    """A route walk did not terminate: the routing function either loops
    (hop bound exceeded) or steers into a port with no healthy link.

    Carries the partial channel trace so a misconfigured routing function
    produces an actionable diagnostic instead of an infinite loop.
    """

    def __init__(self, src: int, dst: int, reason: str, channels):
        self.src = src
        self.dst = dst
        self.reason = reason
        self.channels = list(channels)
        tail = ", ".join(
            f"({rid}, {port.name})" for rid, port in self.channels[-8:]
        )
        if len(self.channels) > 8:
            tail = "..., " + tail
        super().__init__(
            f"route {src} -> {dst} {reason} after {len(self.channels)} "
            f"channel(s); trace tail: [{tail}]"
        )


def _walk(
    network, links, src: int, dst: int, max_hops: int
) -> List[Channel]:
    channels = []
    rid, in_port = src, Port.LOCAL
    while rid != dst:
        router = network.routers[rid]
        out = network.routing(router, in_port, dst, src)
        if out == Port.LOCAL:
            break
        channels.append((rid, out))
        hop = links.get((rid, out))
        if hop is None:
            raise RoutingLoopError(
                src, dst,
                f"entered {out.name} at router {rid}, which has no healthy link",
                channels,
            )
        rid, in_port = hop
        if len(channels) > max_hops:
            raise RoutingLoopError(
                src, dst, f"exceeded the {max_hops}-hop bound (routing loop)",
                channels,
            )
    return channels


def route_channels(
    network, src: int, dst: int, max_hops: Optional[int] = None
) -> List[Channel]:
    """The (router, out_port) channel sequence of the route src -> dst.

    ``max_hops`` bounds the walk (default ``4 * n_routers``, generous for
    any minimal or up*/down* route); a route exceeding it, or one steered
    into a port with no healthy outgoing link, raises
    :class:`RoutingLoopError` with the partial trace.
    """
    topo = network.topo
    if max_hops is None:
        max_hops = 4 * topo.n_routers
    return _walk(network, _link_map(topo), src, dst, max_hops)


def build_system_cdg(network, nodes: Optional[List[int]] = None) -> nx.DiGraph:
    """CDG over every routed (src, dst) pair among ``nodes`` (default: all
    NIs, chiplet and interposer alike).

    Every dependency edge carries the first flow found to use its two
    channels consecutively, as ``graph.edges[a, b]["flow"]``.
    """
    import networkx as nx

    topo = network.topo
    if nodes is None:
        nodes = list(range(topo.n_routers))
    links = _link_map(topo)
    max_hops = 4 * topo.n_routers
    graph = nx.DiGraph()
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            channels = _walk(network, links, src, dst, max_hops)
            for a, b in zip(channels, channels[1:]):
                if not graph.has_edge(a, b):
                    graph.add_edge(a, b, flow=(src, dst))
            graph.add_nodes_from(channels)
    return graph


def cycle_flows(graph: nx.DiGraph, edges) -> List[Tuple[int, int]]:
    """The witness flow :func:`build_system_cdg` recorded on each of
    ``edges`` (a cycle's dependency edges), deduplicated in order."""
    flows = []
    for a, b in edges:
        flow = graph.edges[a, b]["flow"]
        if flow not in flows:
            flows.append(flow)
    return flows


def is_deadlock_free(network, nodes: Optional[List[int]] = None) -> bool:
    """True iff the routed channel-dependency graph is acyclic."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(build_system_cdg(network, nodes))


def cycles_all_contain_upward_channel(network, max_cycles: int = 2000) -> bool:
    """Verify the paper's Sec. IV theorem on this network's CDG: every
    dependency cycle includes at least one upward vertical channel."""
    import networkx as nx

    graph = build_system_cdg(network)
    topo = network.topo
    checked = 0
    for cycle in nx.simple_cycles(graph):
        checked += 1
        has_upward = any(
            port in UPWARD_PORTS and topo.is_interposer(rid) for rid, port in cycle
        )
        if not has_upward:
            return False
        if checked >= max_cycles:
            break
    return checked > 0

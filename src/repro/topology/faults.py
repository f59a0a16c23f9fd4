"""Fault injection for the Fig. 11 irregular-topology experiments.

Faults are injected on same-layer mesh links (both directions of a link
pair fail together, as in ARIADNE-style fault models).  Vertical links are
kept healthy so every chiplet stays attached to the interposer; layer
connectivity is preserved by construction — candidate faults that would
disconnect a layer are rejected and redrawn.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Set, Tuple

from repro.topology.chiplet import SystemTopology

if TYPE_CHECKING:  # imported where connectivity is checked: a healthy sweep never needs it
    import networkx as nx


def _layer_graph(topo: SystemTopology, exclude: Set[Tuple[int, int]]) -> nx.Graph:
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(topo.n_routers))
    for low, high in topo.mesh_link_pairs():
        if (low, high) not in exclude:
            graph.add_edge(low, high)
    return graph


def _layers_connected(topo: SystemTopology, exclude: Set[Tuple[int, int]]) -> bool:
    import networkx as nx

    graph = _layer_graph(topo, exclude)
    groups = [topo.interposer_routers] + [
        topo.chiplet_routers(c) for c in range(topo.n_chiplets)
    ]
    for members in groups:
        sub = graph.subgraph(members)
        if not nx.is_connected(sub):
            return False
    return True


def check_fault_count(
    n_faults: int, n_links: int, n_routers: int, n_layers: int
) -> None:
    """Raise ``ValueError`` when no ``n_faults`` of a system's ``n_links``
    mesh link pairs can fail with each of its ``n_layers`` layers still
    connected: a connected layer of n routers keeps at least n - 1 links."""
    most = n_links - (n_routers - n_layers)
    if n_faults > most:
        raise ValueError(
            f"cannot fail {n_faults} of {n_links} links and keep every layer "
            f"connected (at most {most})"
        )


def inject_faults(
    topo: SystemTopology, n_faults: int, rng: random.Random
) -> SystemTopology:
    """Mark ``n_faults`` random mesh link pairs faulty, preserving the
    connectivity of every layer.  Mutates and returns ``topo``.

    Raises ``ValueError`` if no valid fault set of the requested size can
    be found after a bounded number of attempts.
    """
    candidates = topo.mesh_link_pairs()
    check_fault_count(
        n_faults, len(candidates), topo.n_routers, 1 + topo.n_chiplets
    )
    for _attempt in range(200):
        chosen = set(rng.sample(candidates, n_faults))
        if _layers_connected(topo, chosen):
            for low, high in chosen:
                topo.faulty.add((low, high))
                topo.faulty.add((high, low))
            return topo
    raise ValueError(
        f"could not find a connectivity-preserving set of {n_faults} faults"
    )

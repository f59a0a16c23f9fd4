"""Design-time routing work is paid once, and the result is what paying
it per chiplet gave.

The oracle throughout is the per-chiplet search itself:
``design_chiplet(topo, c)`` for every chiplet ``c``, which is what
``ComposableRoutingScheme.build_routing`` did before it designed each
distinct chiplet once and translated the design to its siblings.
"""

import hashlib
import random
from collections import deque
from types import SimpleNamespace

import networkx as nx
import pytest

from repro.noc.config import NocConfig
from repro.noc.flit import OPPOSITE, Port
from repro.noc.network import Network
from repro.routing.base import MESH_DIRS
from repro.routing.cdg import is_deadlock_free, route_channels
from repro.routing.hierarchical import HierarchicalRouting
from repro.routing.table import TableRouting, TranslatedRouting
from repro.routing.updown import build_updown_routing
from repro.routing.xy import XYLocalRouting
from repro.schemes import composable
from repro.schemes.composable import ComposableRoutingScheme, design_chiplet
from repro.topology.chiplet import baseline_system, build_heterogeneous_system
from repro.topology.faults import inject_faults
from repro.topology.registry import get_topology, topology_names

#: two identical chiplets, one of the same shape with another boundary
#: placement, one of another shape
MIXED_CHIPLETS = [
    {"shape": (2, 3), "origin": (0, 0), "footprint": (2, 2),
     "boundary": [(0, 0), (1, 2)]},
    {"shape": (2, 3), "origin": (0, 2), "footprint": (2, 2),
     "boundary": [(0, 1), (1, 1)]},
    {"shape": (3, 2), "origin": (2, 0), "footprint": (2, 2),
     "boundary": [(0, 0), (2, 1)]},
    {"shape": (2, 3), "origin": (2, 2), "footprint": (2, 2),
     "boundary": [(0, 0), (1, 2)]},
]


def mixed_system():
    return build_heterogeneous_system((4, 4), MIXED_CHIPLETS)


TOPOLOGIES = {name: get_topology(name) for name in topology_names()}
TOPOLOGIES["mixed"] = mixed_system


def per_chiplet_oracle(topo):
    """Designs, evaluation total and routing function of the search run
    on every chiplet separately."""
    designs, evaluations = {}, 0
    exit_binding, entry_binding = {}, {}
    for chiplet in range(topo.n_chiplets):
        design, spent = design_chiplet(topo, chiplet)
        designs[chiplet] = design
        evaluations += spent
        exit_binding.update(design.exit_sel)
        entry_binding.update(design.entry_sel)
    routing = HierarchicalRouting(
        topo,
        XYLocalRouting(topo),
        {c: d.table for c, d in designs.items()},
        exit_binding,
        entry_binding,
    )
    return designs, evaluations, routing


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def built(request):
    topo = TOPOLOGIES[request.param]()
    scheme = ComposableRoutingScheme()
    network = Network(topo, NocConfig(), scheme)
    return network, scheme, per_chiplet_oracle(topo)


class TestTranslationEquivalence:
    def test_designs_match_the_per_chiplet_search(self, built):
        _network, scheme, (designs, evaluations, _routing) = built
        assert sorted(scheme.designs) == sorted(designs)
        for chiplet, expected in designs.items():
            shared = scheme.designs[chiplet]
            assert shared.restrictions == expected.restrictions
            # dict order too: it is the order bindings are installed in
            assert list(shared.exit_sel.items()) == list(expected.exit_sel.items())
            assert list(shared.entry_sel.items()) == list(expected.entry_sel.items())
        assert scheme.design_evaluations == evaluations

    def test_local_next_hops_match_for_every_triple(self, built):
        network, scheme, (designs, _evaluations, _routing) = built
        topo = network.topo
        for chiplet, expected in designs.items():
            shared = scheme.designs[chiplet].table
            members = topo.chiplet_routers(chiplet)
            for rid in members:
                for in_port in Port:
                    for dst in members:
                        try:
                            want = expected.table.next_port(rid, in_port, dst)
                        except ValueError:
                            with pytest.raises(ValueError):
                                shared.next_port(rid, in_port, dst)
                        else:
                            assert shared.next_port(rid, in_port, dst) == want

    def test_system_next_hops_match(self, built):
        """Every (router, in_port, dst, src) on the small systems; every
        routed pair's channel sequence on all of them."""
        network, _scheme, (_designs, _evaluations, routing) = built
        topo = network.topo
        routers = range(topo.n_routers)

        def hop(fn, rid, in_port, dst, src):
            try:
                return fn(network.routers[rid], in_port, dst, src)
            except ValueError:  # a turn no routed packet ever takes
                return None

        if topo.n_routers <= 20:
            for rid in routers:
                for in_port in Port:
                    for dst in routers:
                        for src in (-1, *routers):
                            assert hop(network.routing, rid, in_port, dst, src) == hop(
                                routing, rid, in_port, dst, src
                            )
        oracle_network = SimpleNamespace(
            topo=topo, routers=network.routers, routing=routing
        )
        for src in routers:
            for dst in routers:
                if src != dst:
                    assert route_channels(network, src, dst) == route_channels(
                        oracle_network, src, dst
                    )

    def test_full_system_cdg_stays_acyclic(self, built):
        network, _scheme, _oracle = built
        assert is_deadlock_free(network)

    @pytest.mark.parametrize(
        "name, restrictions, evaluations",
        [("baseline", 32, 76), ("large", 64, 152)],
    )
    def test_reported_design_cost_is_the_per_chiplet_cost(
        self, name, restrictions, evaluations
    ):
        scheme = ComposableRoutingScheme()
        Network(get_topology(name)(), NocConfig(), scheme)
        assert scheme.stats_snapshot() == {
            "turn_restrictions": restrictions,
            "design_evaluations": evaluations,
        }


def design_digest(topology):
    """sha256 prefix of every chiplet design's restrictions, exit and
    entry selections (in dict order) and next hop for every (router,
    in_port, destination) in its chiplet, ``None`` where unroutable."""
    topo = get_topology(topology)()
    scheme = ComposableRoutingScheme()
    scheme.build_routing(topo, NocConfig(), random.Random(0))
    digest = hashlib.sha256()
    for chiplet, design in sorted(scheme.designs.items()):
        restrictions = sorted((r, i.name, o.name) for r, i, o in design.restrictions)
        hops = []
        members = topo.chiplet_routers(chiplet)
        for rid in members:
            for in_port in Port:
                for dst in members:
                    try:
                        hops.append(design.table.next_port(rid, in_port, dst).name)
                    except ValueError:
                        hops.append(None)
        for part in (
            restrictions,
            list(design.exit_sel.items()),
            list(design.entry_sel.items()),
            hops,
        ):
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


class TestDesignsArePinned:
    """The designs the search produced when every candidate table
    resolved all of its own next hops."""

    @pytest.mark.parametrize(
        "topology, expected",
        [
            ("baseline", "ffbe455d85a52202"),
            ("large", "3f073b1069c703f8"),
            ("mc-2x1", "2053a8c8f6f692ac"),
            ("mc-2x2", "dae1a28a762fc7dc"),
            ({"boundary_per_chiplet": 2}, "b7290a072f953e47"),
            ({"boundary_per_chiplet": 8}, "a0fd4a9e39aa9f04"),
        ],
        ids=["baseline", "large", "mc-2x1", "mc-2x2", "boundary2", "boundary8"],
    )
    def test_design_digest(self, topology, expected):
        assert design_digest(topology) == expected


class TestDistinctChipletsAreNeverShared:
    def test_one_search_per_distinct_chiplet(self, monkeypatch):
        searched = []
        real = composable.design_chiplet

        def counting(topo, chiplet):
            searched.append(chiplet)
            return real(topo, chiplet)

        monkeypatch.setattr(composable, "design_chiplet", counting)
        scheme = ComposableRoutingScheme()
        Network(mixed_system(), NocConfig(), scheme)
        # chiplet 3 repeats chiplet 0; 1 differs in boundary placement,
        # 2 in shape
        assert searched == [0, 1, 2]
        tables = {c: d.table for c, d in scheme.designs.items()}
        assert all(isinstance(tables[c], TableRouting) for c in (0, 1, 2))
        assert isinstance(tables[3], TranslatedRouting)
        assert tables[3].table is tables[0]
        assert len({id(tables[c]) for c in (0, 1, 2)}) == 3

    def test_same_shape_other_boundaries_gets_another_design(self):
        scheme = ComposableRoutingScheme()
        topo = mixed_system()
        Network(topo, NocConfig(), scheme)

        def local(chiplet):
            first = topo.chiplet_router(chiplet, (0, 0))
            return {
                (rid - first, i, o)
                for rid, i, o in scheme.designs[chiplet].restrictions
            }

        assert local(0) == local(3)
        assert local(0) != local(1)


class TestCycleSearchOrder:
    """``composable._find_cycle`` must take ``networkx.find_cycle``'s
    order: the cycle found decides which turn gets restricted."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_digraphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        edges = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(1, 3 * n))
        ]
        edges = [(a, b) for a, b in edges if a != b]
        graph, reference = {}, nx.DiGraph()
        for a, b in edges:
            graph.setdefault(a, {})[b] = None
            graph.setdefault(b, {})
            reference.add_edge(a, b)
        try:
            expected = list(nx.find_cycle(reference))
        except nx.NetworkXNoCycle:
            expected = None
        assert composable._find_cycle(graph) == expected

    def test_first_round_chiplet_cdg(self):
        topo = baseline_system()
        members = topo.chiplet_routers(0)
        boundaries = topo.boundary_routers(0)
        table = TableRouting(topo, members, composable.XYTurnModel())
        exit_sel, entry_sel = composable._selections(table, members, boundaries)
        graph = composable._chiplet_cdg(
            table, members, boundaries, exit_sel, entry_sel
        )
        reference = nx.DiGraph()
        reference.add_nodes_from(graph)
        for node, successors in graph.items():
            reference.add_edges_from((node, nxt) for nxt in successors)
        assert composable._find_cycle(graph) == list(nx.find_cycle(reference))


def brute_force_next_port(table, rid, in_port, dst):
    """Shortest legal continuation by forward search over (router,
    in_port) states; ties go to the first of ``MESH_DIRS``."""
    if rid == dst:
        return Port.LOCAL
    allowed = table.turn_model.allowed

    def hops_after(first_port):
        start = (table.neighbor_of[(rid, first_port)], OPPOSITE[first_port])
        seen = {start: 1}
        frontier = deque([start])
        while frontier:
            at, came_in = frontier.popleft()
            if at == dst:
                if allowed(at, came_in, Port.LOCAL):
                    return seen[(at, came_in)]
                continue
            for port in MESH_DIRS:
                nbr = table.neighbor_of.get((at, port))
                state = (nbr, OPPOSITE[port])
                if nbr is None or state in seen or not allowed(at, came_in, port):
                    continue
                seen[state] = seen[(at, came_in)] + 1
                frontier.append(state)
        return None

    best, best_hops = None, None
    for port in MESH_DIRS:
        if (rid, port) not in table.neighbor_of or not allowed(rid, in_port, port):
            continue
        hops = hops_after(port)
        if hops is not None and (best_hops is None or hops < best_hops):
            best, best_hops = port, hops
    return best


class TestTableAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_updown_tables_on_a_faulted_mesh(self, seed):
        topo = baseline_system()
        inject_faults(topo, 6, random.Random(seed))
        layers = [topo.interposer_routers] + [
            topo.chiplet_routers(c) for c in range(topo.n_chiplets)
        ]
        for members in layers:
            table = build_updown_routing(topo, members)
            for rid in members:
                for in_port in (Port.LOCAL, *MESH_DIRS, Port.UP, Port.DOWN):
                    for dst in members:
                        assert table.try_next_port(
                            rid, in_port, dst
                        ) == brute_force_next_port(table, rid, in_port, dst), (
                            rid, in_port, dst,
                        )

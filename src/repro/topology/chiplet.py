"""Chiplet-based system topologies (paper Fig. 1).

A :class:`SystemTopology` is a pure description — router ids, layers, link
list, vertical-link attachments — consumed by
:class:`repro.noc.network.Network` to build the runtime system and by the
routing layer to build tables.

Router id space: interposer routers come first (row-major), then each
chiplet's routers (row-major, chiplets in index order).  NIs attach to
every router; synthetic traffic by default addresses chiplet nodes only
(the 64 cores of the baseline system), while coherence workloads also use
interposer NIs as directories (Table II: "8 directories on the
interposer").
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.noc.flit import MESH_PORTS, OPPOSITE, Port
from repro.topology.mesh import (
    Coord,
    boundary_positions,
    coord_of,
    index_of,
    mesh_links,
)


@dataclass(frozen=True)
class LinkSpec:
    """One unidirectional link: ``src`` router's ``src_port`` to ``dst``
    router's ``dst_port``."""

    src: int
    dst: int
    src_port: Port
    dst_port: Port


@dataclass
class SystemTopology:
    """Description of a chiplet-based system.

    The shapes fix the router id space at construction; links and
    vertical attachments are added through :meth:`add_link` and
    :meth:`add_vertical`, which keep the per-router and per-chiplet
    indexes behind :meth:`layer_neighbors` and :meth:`boundary_routers`
    current.  ``faulty`` may be mutated freely at any time: the indexes
    do not depend on it.
    """

    interposer_shape: Tuple[int, int]
    chiplet_shapes: List[Tuple[int, int]]
    #: chiplet placement: chiplet i covers interposer rows/cols starting here
    chiplet_origins: List[Coord]
    n_interposer: int = field(init=False)
    n_routers: int = field(init=False)
    coords: Dict[int, Coord] = field(default_factory=dict)
    chiplet_of: Dict[int, int] = field(default_factory=dict)  # -1 = interposer
    links: List[LinkSpec] = field(default_factory=list)
    #: boundary chiplet router -> interposer router underneath
    attach_down: Dict[int, int] = field(default_factory=dict)
    #: interposer router -> list of boundary routers above (1 or 2)
    attach_up: Dict[int, List[int]] = field(default_factory=dict)
    #: interposer port used to reach each boundary router
    up_port_of: Dict[int, Port] = field(default_factory=dict)
    faulty: Set[Tuple[int, int]] = field(default_factory=set)
    #: first router id of each chiplet
    _chiplet_base: List[int] = field(init=False, repr=False)
    #: router -> its outgoing same-layer links, in ``links`` order
    _mesh_out: Dict[int, List[LinkSpec]] = field(init=False, repr=False)
    #: chiplet -> its boundary routers, ascending
    _boundaries: List[List[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        irows, icols = self.interposer_shape
        self.n_interposer = irows * icols
        self._chiplet_base = []
        base = self.n_interposer
        for rows, cols in self.chiplet_shapes:
            self._chiplet_base.append(base)
            base += rows * cols
        self.n_routers = base
        self._mesh_out = {rid: [] for rid in range(self.n_routers)}
        self._boundaries = [[] for _ in self.chiplet_shapes]

    # ------------------------------------------------------------------ #
    # construction

    def add_link(self, link: LinkSpec) -> None:
        """Append one unidirectional link."""
        self.links.append(link)
        if link.src_port in MESH_PORTS:
            self._mesh_out[link.src].append(link)

    def add_vertical(self, boundary: int, iposer: int) -> None:
        """Attach chiplet router ``boundary`` to interposer router
        ``iposer`` with one vertical link pair."""
        existing = self.attach_up.setdefault(iposer, [])
        up_port = Port.UP if not existing else Port.UP2
        if len(existing) >= 2:
            raise ValueError(f"interposer router {iposer} already has two up links")
        existing.append(boundary)
        self.attach_down[boundary] = iposer
        self.up_port_of[boundary] = up_port
        insort(self._boundaries[self.chiplet_of[boundary]], boundary)
        # up direction: interposer -> boundary, enters the chiplet's DOWN port
        self.add_link(LinkSpec(iposer, boundary, up_port, Port.DOWN))
        # down direction: boundary -> interposer
        self.add_link(LinkSpec(boundary, iposer, Port.DOWN, up_port))

    # ------------------------------------------------------------------ #
    # id helpers

    def interposer_router(self, coord: Coord) -> int:
        """Router id at an interposer coordinate."""
        return index_of(coord, self.interposer_shape[1])

    def chiplet_router(self, chiplet: int, coord: Coord) -> int:
        """Router id at a chiplet-local coordinate."""
        return self._chiplet_base[chiplet] + index_of(
            coord, self.chiplet_shapes[chiplet][1]
        )

    def chiplet_routers(self, chiplet: int) -> List[int]:
        """All router ids of one chiplet, row-major."""
        rows, cols = self.chiplet_shapes[chiplet]
        first = self._chiplet_base[chiplet]
        return list(range(first, first + rows * cols))

    @property
    def n_chiplets(self) -> int:
        """How many chiplets the system integrates."""
        return len(self.chiplet_shapes)

    @property
    def interposer_routers(self) -> List[int]:
        """All interposer router ids."""
        return list(range(self.n_interposer))

    @property
    def chiplet_nodes(self) -> List[int]:
        """All chiplet router ids (the cores of the system)."""
        return list(range(self.n_interposer, self.n_routers))

    def boundary_routers(self, chiplet: Optional[int] = None) -> List[int]:
        """Boundary router ids, ascending, optionally restricted to one
        chiplet."""
        if chiplet is None:
            return [rid for rids in self._boundaries for rid in rids]
        return list(self._boundaries[chiplet])

    def is_interposer(self, rid: int) -> bool:
        """Layer test by router id."""
        return rid < self.n_interposer

    def layer_neighbors(self, rid: int) -> List[Tuple[int, Port]]:
        """Same-layer (mesh) neighbours via healthy links."""
        faulty = self.faulty
        return [
            (link.dst, link.src_port)
            for link in self._mesh_out[rid]
            if (rid, link.dst) not in faulty
        ]

    def mesh_link_pairs(self) -> List[Tuple[int, int]]:
        """All bidirectional same-layer link pairs (for fault injection),
        as (low_rid, high_rid) tuples, deduplicated."""
        pairs = set()
        for link in self.links:
            if link.src_port in MESH_PORTS:
                pairs.add((min(link.src, link.dst), max(link.src, link.dst)))
        return sorted(pairs)


def check_chiplet_grid(
    interposer_shape: Tuple[int, int], chiplet_grid: Tuple[int, int]
) -> None:
    """Raise ``ValueError`` unless ``chiplet_grid`` evenly tiles the
    interposer (``build_system``'s own check, also run on job specs)."""
    irows, icols = interposer_shape
    grows, gcols = chiplet_grid
    if irows % grows or icols % gcols:
        raise ValueError("chiplet grid must evenly tile the interposer")


class TopologyParamError(ValueError):
    """A :func:`build_system` argument that cannot build; ``param`` names
    the argument at fault."""

    def __init__(self, param: str, message: str) -> None:
        super().__init__(message)
        self.param = param


def check_boundary_placement(
    interposer_shape: Tuple[int, int],
    chiplet_shape: Tuple[int, int],
    chiplet_grid: Tuple[int, int],
    boundary_per_chiplet: int,
    boundary_coords: Optional[Sequence[Coord]],
) -> List[Coord]:
    """The boundary coordinates ``build_system`` places on each chiplet,
    checked without building (``build_system``'s own check, also run on
    job specs after :func:`check_chiplet_grid`); raises
    :class:`TopologyParamError`."""
    crows, ccols = chiplet_shape
    if boundary_coords is not None:
        param = "boundary_coords"
    elif (crows, ccols) == (4, 4):
        param = "boundary_per_chiplet"
    else:  # canonical placements exist only for 4x4 chiplets
        param = "chiplet_shape"
    footprint = (interposer_shape[0] // chiplet_grid[0]) * (
        interposer_shape[1] // chiplet_grid[1]
    )
    try:
        if boundary_coords is None:
            coords = boundary_positions(crows, ccols, boundary_per_chiplet)
        else:
            coords = [tuple(coord) for coord in boundary_coords]
            _reject_duplicates(coords)
            if not all(0 <= r < crows and 0 <= c < ccols for r, c in coords):
                raise ValueError(
                    f"boundary coordinates outside a {crows}x{ccols} chiplet"
                )
        if len(coords) > 2 * footprint:
            raise ValueError(
                "at most two vertical links per interposer router are supported"
            )
    except ValueError as exc:
        raise TopologyParamError(param, str(exc)) from None
    return coords


def system_size(
    interposer_shape: Tuple[int, int],
    chiplet_shape: Tuple[int, int],
    chiplet_grid: Tuple[int, int],
) -> Tuple[int, int, int]:
    """(mesh link pairs, routers, layers) of the system ``build_system``
    builds from these arguments, without building it."""
    n_chiplets = chiplet_grid[0] * chiplet_grid[1]

    def pairs(rows: int, cols: int) -> int:
        return rows * (cols - 1) + (rows - 1) * cols

    return (
        pairs(*interposer_shape) + n_chiplets * pairs(*chiplet_shape),
        interposer_shape[0] * interposer_shape[1]
        + n_chiplets * chiplet_shape[0] * chiplet_shape[1],
        1 + n_chiplets,
    )


def build_system(
    interposer_shape: Tuple[int, int] = (4, 4),
    chiplet_shape: Tuple[int, int] = (4, 4),
    chiplet_grid: Tuple[int, int] = (2, 2),
    boundary_per_chiplet: int = 4,
    boundary_coords: Optional[Sequence[Coord]] = None,
) -> SystemTopology:
    """Build a chiplet-based system.

    ``chiplet_grid`` arranges identical chiplets over the interposer; each
    chiplet covers an equal rectangular footprint of interposer routers.
    The default arguments produce the paper's baseline system: a 4x4
    interposer with four 4x4 chiplets, four boundary routers each.
    """
    check_chiplet_grid(interposer_shape, chiplet_grid)
    irows, icols = interposer_shape
    grows, gcols = chiplet_grid
    frows, fcols = irows // grows, icols // gcols  # footprint per chiplet

    n_chiplets = grows * gcols
    crows, ccols = chiplet_shape
    topo = SystemTopology(
        interposer_shape=interposer_shape,
        chiplet_shapes=[chiplet_shape] * n_chiplets,
        chiplet_origins=[
            (g // gcols * frows, g % gcols * fcols) for g in range(n_chiplets)
        ],
    )

    # coordinates and layers
    for rid in range(topo.n_interposer):
        topo.coords[rid] = coord_of(rid, icols)
        topo.chiplet_of[rid] = -1
    for chip in range(n_chiplets):
        for rid in topo.chiplet_routers(chip):
            local = rid - topo.chiplet_router(chip, (0, 0))
            topo.coords[rid] = coord_of(local, ccols)
            topo.chiplet_of[rid] = chip

    # mesh links
    for src_c, dst_c, port in mesh_links(irows, icols):
        topo.add_link(
            LinkSpec(
                topo.interposer_router(src_c),
                topo.interposer_router(dst_c),
                port,
                OPPOSITE[port],
            )
        )
    for chip in range(n_chiplets):
        for src_c, dst_c, port in mesh_links(crows, ccols):
            topo.add_link(
                LinkSpec(
                    topo.chiplet_router(chip, src_c),
                    topo.chiplet_router(chip, dst_c),
                    port,
                    OPPOSITE[port],
                )
            )

    # vertical links
    boundary_coords = check_boundary_placement(
        interposer_shape, chiplet_shape, chiplet_grid,
        boundary_per_chiplet, boundary_coords,
    )
    for chip in range(n_chiplets):
        origin = topo.chiplet_origins[chip]
        footprint = [
            topo.interposer_router((origin[0] + r, origin[1] + c))
            for r in range(frows)
            for c in range(fcols)
        ]
        for i, bc in enumerate(sorted(boundary_coords)):
            boundary = topo.chiplet_router(chip, bc)
            iposer = footprint[i % len(footprint)]
            topo.add_vertical(boundary, iposer)
    return topo


def _reject_duplicates(boundary_coords: Sequence[Coord]) -> None:
    """A repeated coordinate would attach one boundary router twice,
    overwriting ``attach_down`` / ``up_port_of`` and doubling its links."""
    if len(set(boundary_coords)) != len(boundary_coords):
        raise ValueError("duplicate boundary coordinates")


def build_heterogeneous_system(
    interposer_shape: Tuple[int, int],
    chiplets: Sequence[dict],
) -> SystemTopology:
    """Build a system of *differently shaped* chiplets (topology
    modularity, Table I): each entry of ``chiplets`` gives

    * ``shape``    — the chiplet's mesh (rows, cols);
    * ``origin``   — the top-left interposer coordinate of its footprint;
    * ``footprint``— the footprint's (rows, cols) of interposer routers;
    * ``boundary`` — boundary-router coordinates within the chiplet.

    Footprints must not overlap; each carries at most two vertical links
    per interposer router.
    """
    irows, icols = interposer_shape
    topo = SystemTopology(
        interposer_shape=interposer_shape,
        chiplet_shapes=[tuple(c["shape"]) for c in chiplets],
        chiplet_origins=[tuple(c["origin"]) for c in chiplets],
    )

    for rid in range(topo.n_interposer):
        topo.coords[rid] = coord_of(rid, icols)
        topo.chiplet_of[rid] = -1
    for chip, spec in enumerate(chiplets):
        crows, ccols = spec["shape"]
        base = topo.chiplet_router(chip, (0, 0))
        for rid in range(base, base + crows * ccols):
            topo.coords[rid] = coord_of(rid - base, ccols)
            topo.chiplet_of[rid] = chip

    for src_c, dst_c, port in mesh_links(irows, icols):
        topo.add_link(
            LinkSpec(
                topo.interposer_router(src_c),
                topo.interposer_router(dst_c),
                port,
                OPPOSITE[port],
            )
        )
    claimed = set()
    for chip, spec in enumerate(chiplets):
        crows, ccols = spec["shape"]
        for src_c, dst_c, port in mesh_links(crows, ccols):
            topo.add_link(
                LinkSpec(
                    topo.chiplet_router(chip, src_c),
                    topo.chiplet_router(chip, dst_c),
                    port,
                    OPPOSITE[port],
                )
            )
        orow, ocol = spec["origin"]
        frows, fcols = spec["footprint"]
        footprint = []
        for r in range(frows):
            for c in range(fcols):
                coord = (orow + r, ocol + c)
                if not (0 <= coord[0] < irows and 0 <= coord[1] < icols):
                    raise ValueError(f"footprint of chiplet {chip} leaves the interposer")
                if coord in claimed:
                    raise ValueError(f"footprints overlap at interposer {coord}")
                claimed.add(coord)
                footprint.append(topo.interposer_router(coord))
        boundary_coords = sorted(tuple(b) for b in spec["boundary"])
        _reject_duplicates(boundary_coords)
        if len(boundary_coords) > 2 * len(footprint):
            raise ValueError(
                f"chiplet {chip}: too many boundary routers for its footprint"
            )
        for i, bc in enumerate(boundary_coords):
            if not (0 <= bc[0] < crows and 0 <= bc[1] < ccols):
                raise ValueError(f"boundary {bc} outside chiplet {chip}")
            topo.add_vertical(topo.chiplet_router(chip, bc), footprint[i % len(footprint)])
    return topo


#: ``build_system`` arguments of the named systems, keyed by their
#: topology alias (:mod:`repro.topology.registry`); the rest default.
PRESET_PARAMS: Dict[str, dict] = {
    "baseline": {},
    "large": {"interposer_shape": (4, 8), "chiplet_grid": (2, 4)},
    # The smallest model-checkable system: two 4x1 column chiplets with
    # boundary routers at both column ends.  Every intra-chiplet route
    # shares the single vertical mesh path, which glues entry->exit
    # channel chains into cycles (the baseline's witness anatomy) at a
    # state-space size a bounded model checker can exhaust.  Boundary
    # bindings have no hop-distance ties, so the certifier and the model
    # checker see the identical routing function regardless of seed.
    "mc-2x1": {
        "interposer_shape": (1, 2),
        "chiplet_shape": (4, 1),
        "chiplet_grid": (1, 2),
        "boundary_coords": [(0, 0), (3, 0)],
    },
    # The smallest system whose interposer layer is a 2D mesh: interposer
    # turns enter the explored state space, which stays exhaustible.
    "mc-2x2": {
        "interposer_shape": (2, 2),
        "chiplet_shape": (4, 1),
        "chiplet_grid": (2, 2),
        "boundary_coords": [(0, 0), (3, 0)],
    },
}


def baseline_system() -> SystemTopology:
    """The paper's baseline: 4x4 interposer, four 4x4 chiplets, 4 boundary
    routers per chiplet (Fig. 1, Table II)."""
    return build_system()


def large_system() -> SystemTopology:
    """The 128-node system of Fig. 9: 4x8 interposer, eight 4x4 chiplets."""
    return build_system(**PRESET_PARAMS["large"])


def star_system(n_chiplets: int = 4) -> SystemTopology:
    """A passive-substrate star-like system (Sec. VI-B): a central I/O
    chiplet plays the role of the interposer.  Network-topologically this is
    identical to an active-interposer system, so we model the central
    chiplet as the 'interposer' layer."""
    if n_chiplets == 4:
        return build_system()
    if n_chiplets == 8:
        return large_system()
    raise ValueError("star systems are provided for 4 or 8 peripheral chiplets")

"""Mesh geometry helpers shared by the chiplet and interposer layers."""

from __future__ import annotations

from typing import List, Tuple

from repro.noc.flit import OPPOSITE, Port

Coord = Tuple[int, int]


def coord_of(index: int, cols: int) -> Coord:
    """Row-major (row, col) of a mesh-local index."""
    return divmod(index, cols)


def index_of(coord: Coord, cols: int) -> int:
    """Row-major index of a (row, col) coordinate."""
    return coord[0] * cols + coord[1]


def neighbor(coord: Coord, port: Port, rows: int, cols: int) -> Coord:
    """Mesh neighbour in a direction, or ``None`` at the edge.

    Row 0 is the *south* edge, matching the paper's Fig. 2 numbering where
    router 0 is bottom-left and router indices grow northward.
    """
    r, c = coord
    if port == Port.NORTH:
        r += 1
    elif port == Port.SOUTH:
        r -= 1
    elif port == Port.EAST:
        c += 1
    elif port == Port.WEST:
        c -= 1
    else:
        raise ValueError(f"{port!r} is not a mesh direction")
    if 0 <= r < rows and 0 <= c < cols:
        return (r, c)
    return None


def mesh_links(rows: int, cols: int) -> List[Tuple[Coord, Coord, Port]]:
    """All unidirectional mesh links as (src, dst, src_port) triples."""
    links = []
    for r in range(rows):
        for c in range(cols):
            for port in (Port.NORTH, Port.EAST):
                nxt = neighbor((r, c), port, rows, cols)
                if nxt is not None:
                    links.append(((r, c), nxt, port))
                    links.append((nxt, (r, c), OPPOSITE[port]))
    return links


def xy_next_port(src: Coord, dst: Coord) -> Port:
    """Dimension-order (X-then-Y) next hop direction."""
    if src == dst:
        return Port.LOCAL
    if src[1] != dst[1]:
        return Port.EAST if dst[1] > src[1] else Port.WEST
    return Port.NORTH if dst[0] > src[0] else Port.SOUTH


def boundary_positions(rows: int, cols: int, count: int) -> List[Coord]:
    """Canonical boundary-router placements for a chiplet mesh.

    Matches the baseline system of Fig. 1 (4 boundary routers over the
    chiplet's 2x2 interposer footprint) and the Fig. 10 sensitivity points
    (2 and 8 boundary routers per chiplet).
    """
    if rows != 4 or cols != 4:
        raise ValueError(
            "canonical boundary placements are defined for 4x4 chiplets; "
            "pass explicit positions for other shapes"
        )
    # Fig. 1 places the boundary routers on the chiplet's outer rows
    # (columns 1-2 of rows 0 and 3).  This placement matters: it makes
    # inbound (up -> dest) and outbound (src -> down) flows share column
    # channels in the same direction, which is exactly what permits the
    # integration-induced dependency chains of Fig. 3.
    placements = {
        2: [(0, 1), (3, 2)],
        4: [(0, 1), (0, 2), (3, 1), (3, 2)],
        8: [
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
            (3, 0),
            (3, 1),
            (3, 2),
            (3, 3),
        ],
    }
    if count not in placements:
        raise ValueError(f"unsupported boundary-router count {count} (use 2, 4 or 8)")
    return placements[count]

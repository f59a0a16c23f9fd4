"""Unit tests for chiplet-system topology construction."""

import random

import pytest

from repro.noc.flit import Port
from repro.topology.chiplet import (
    baseline_system,
    build_system,
    large_system,
    star_system,
    system_size,
)
from repro.topology.faults import check_fault_count, inject_faults
from repro.topology.mesh import boundary_positions, coord_of, index_of, xy_next_port


class TestMeshHelpers:
    def test_coord_roundtrip(self):
        for idx in range(16):
            assert index_of(coord_of(idx, 4), 4) == idx

    def test_xy_routes_x_first(self):
        assert xy_next_port((0, 0), (2, 3)) == Port.EAST
        assert xy_next_port((0, 3), (2, 3)) == Port.NORTH
        assert xy_next_port((2, 3), (0, 3)) == Port.SOUTH
        assert xy_next_port((1, 2), (1, 0)) == Port.WEST
        assert xy_next_port((1, 1), (1, 1)) == Port.LOCAL

    def test_boundary_positions_counts(self):
        for count in (2, 4, 8):
            positions = boundary_positions(4, 4, count)
            assert len(positions) == count
            assert len(set(positions)) == count

    def test_boundary_positions_on_outer_rows(self):
        for r, _c in boundary_positions(4, 4, 4):
            assert r in (0, 3)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            boundary_positions(4, 4, 3)


class TestBaselineSystem:
    def setup_method(self):
        self.topo = baseline_system()

    def test_router_counts(self):
        assert self.topo.n_interposer == 16
        assert self.topo.n_routers == 16 + 4 * 16
        assert len(self.topo.chiplet_nodes) == 64

    def test_every_chiplet_has_four_boundaries(self):
        for chiplet in range(4):
            assert len(self.topo.boundary_routers(chiplet)) == 4

    def test_vertical_attachment_bijective(self):
        # 16 boundary routers onto 16 interposer routers, one each
        assert len(self.topo.attach_down) == 16
        assert sorted(self.topo.attach_down.values()) == list(range(16))
        for iposer, boundaries in self.topo.attach_up.items():
            assert len(boundaries) == 1

    def test_vertical_links_use_up_port(self):
        for boundary, port in self.topo.up_port_of.items():
            assert port == Port.UP

    def test_layers(self):
        assert self.topo.is_interposer(0) and self.topo.is_interposer(15)
        assert not self.topo.is_interposer(16)
        assert self.topo.chiplet_of[16] == 0
        assert self.topo.chiplet_of[79] == 3

    def test_mesh_link_pairs(self):
        # 4x4 mesh has 24 bidirectional links; 5 meshes total
        assert len(self.topo.mesh_link_pairs()) == 24 * 5

    def test_layer_neighbors_stay_in_layer(self):
        for rid in range(self.topo.n_routers):
            for nbr, _port in self.topo.layer_neighbors(rid):
                assert self.topo.chiplet_of[nbr] == self.topo.chiplet_of[rid]


class TestLargeSystem:
    def test_shape(self):
        topo = large_system()
        assert topo.n_interposer == 32
        assert len(topo.chiplet_nodes) == 128
        assert topo.n_chiplets == 8


class TestBoundaryVariants:
    def test_two_boundaries(self):
        topo = build_system(boundary_per_chiplet=2)
        assert all(len(topo.boundary_routers(c)) == 2 for c in range(4))
        assert all(port == Port.UP for port in topo.up_port_of.values())

    def test_eight_boundaries_use_second_vertical_port(self):
        topo = build_system(boundary_per_chiplet=8)
        assert all(len(topo.boundary_routers(c)) == 8 for c in range(4))
        ports = set(topo.up_port_of.values())
        assert ports == {Port.UP, Port.UP2}
        for iposer, boundaries in topo.attach_up.items():
            assert len(boundaries) == 2

    def test_uneven_grid_rejected(self):
        with pytest.raises(ValueError):
            build_system(interposer_shape=(4, 4), chiplet_grid=(3, 2))


class TestBuildChecksWithoutBuilding:
    """What job validation learns of a system without building it."""

    @pytest.mark.parametrize("args", [
        {},
        {"interposer_shape": (4, 8), "chiplet_grid": (2, 4)},
        {"interposer_shape": (2, 2), "chiplet_shape": (3, 2), "chiplet_grid": (1, 2),
         "boundary_coords": [(0, 0), (2, 1)]},
        {"interposer_shape": (4, 4), "chiplet_grid": (1, 1)},
    ])
    def test_system_size_counts_what_build_system_builds(self, args):
        topo = build_system(**args)
        shapes = {"interposer_shape": (4, 4), "chiplet_shape": (4, 4),
                  "chiplet_grid": (2, 2), **args}
        shapes.pop("boundary_coords", None)
        assert system_size(**shapes) == (
            len(topo.mesh_link_pairs()), topo.n_routers, 1 + topo.n_chiplets
        )

    def test_fault_count_limit(self):
        # five 4x4 layers: 120 link pairs, each layer keeps a 15-link tree
        check_fault_count(45, 120, 80, 5)
        for n_faults in (46, 1000):
            with pytest.raises(ValueError, match=f"cannot fail {n_faults} of 120"):
                inject_faults(baseline_system(), n_faults, random.Random(0))


class TestStarSystem:
    def test_star_equals_baseline_topologically(self):
        star = star_system(4)
        base = baseline_system()
        assert star.n_routers == base.n_routers
        assert star.attach_down == base.attach_down

    def test_unsupported_star(self):
        with pytest.raises(ValueError):
            star_system(5)


class TestHeterogeneousBuilder:
    def test_too_many_boundaries_rejected(self):
        from repro.topology.chiplet import build_heterogeneous_system

        with pytest.raises(ValueError):
            build_heterogeneous_system(
                (4, 4),
                [{"shape": (4, 4), "origin": (0, 0), "footprint": (1, 1),
                  "boundary": [(0, 0), (0, 1), (0, 2)]}],  # 3 links, 1 router
            )

    def test_duplicate_boundary_rejected_by_both_builders(self):
        """A repeated coordinate would attach one boundary router twice,
        overwriting its ``attach_down`` / ``up_port_of`` entries and
        doubling its DOWN links."""
        from repro.topology.chiplet import build_heterogeneous_system

        with pytest.raises(ValueError, match="duplicate boundary"):
            build_heterogeneous_system(
                (2, 2),
                [{"shape": (3, 3), "origin": (0, 0), "footprint": (2, 2),
                  "boundary": [(0, 1), (2, 1), (0, 1)]}],
            )
        with pytest.raises(ValueError, match="duplicate boundary"):
            build_system(boundary_coords=[(0, 1), (3, 2), (0, 1), (3, 1)])

    @pytest.mark.parametrize("coord", [(0, 4), (4, 0), (-1, 0)])
    def test_boundary_outside_the_chiplet_rejected_by_both_builders(self, coord):
        """(0, 4) on a 4x4 chiplet would index router (1, 0) of the same
        chiplet: a topology other than the one its parameters name."""
        from repro.topology.chiplet import build_heterogeneous_system

        with pytest.raises(ValueError, match="outside"):
            build_heterogeneous_system(
                (2, 2),
                [{"shape": (4, 4), "origin": (0, 0), "footprint": (2, 2),
                  "boundary": [(0, 1), coord]}],
            )
        with pytest.raises(ValueError, match="outside"):
            build_system(boundary_coords=[(0, 1), coord])

    def test_single_chiplet_system(self):
        from repro.topology.chiplet import build_heterogeneous_system

        topo = build_heterogeneous_system(
            (2, 2),
            [{"shape": (3, 3), "origin": (0, 0), "footprint": (2, 2),
              "boundary": [(0, 1), (2, 1)]}],
        )
        assert topo.n_chiplets == 1
        assert topo.n_routers == 4 + 9
        assert len(topo.boundary_routers(0)) == 2

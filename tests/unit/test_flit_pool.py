"""Unit tests for the FlitPool struct-of-arrays flit storage.

The pool's contract (see :class:`repro.noc.vector.FlitPool`): each
adopted flit owns one row across the parallel columns until release;
freed rows are recycled LIFO; exhaustion grows the arrays in place,
preserving every live row — never corrupting or reassigning one.
"""

import numpy as np
import pytest

from repro.noc.flit import Packet
from repro.noc.vector import POOL_COLUMNS, FlitPool


def make_flits(size=3, src=0, dst=1, vnet=0, created=7):
    return Packet(src, dst, vnet, size, created).make_flits()


def assert_row_matches(pool, flit):
    """Every column of the flit's row mirrors the object payload."""
    row = flit._row
    packet = flit.packet
    assert pool.obj[row] is flit
    assert pool.kind[row] == flit.kind
    assert pool.pid[row] == packet.pid
    assert pool.seq[row] == flit.seq
    assert pool.src[row] == packet.src
    assert pool.dst[row] == packet.dst
    assert pool.vnet[row] == packet.vnet
    assert pool.size[row] == packet.size
    assert pool.arrival[row] == flit.arrival_cycle
    assert bool(pool.is_header[row]) == flit.is_header
    assert bool(pool.is_tail[row]) == flit.is_tail
    assert bool(pool.popup[row]) == flit.popup


class TestAdoptRelease:
    def test_adopt_mirrors_payload_columns(self):
        pool = FlitPool(8)
        for flit in make_flits(size=3):
            pool.adopt(flit)
            assert_row_matches(pool, flit)

    def test_adopt_assigns_distinct_rows(self):
        pool = FlitPool(8)
        flits = make_flits(size=5)
        rows = [pool.adopt(f) for f in flits]
        assert len(set(rows)) == len(rows)
        assert pool.live == len(rows)

    def test_release_recycles_row_lifo(self):
        pool = FlitPool(8)
        a, b = make_flits(size=2)
        row_a = pool.adopt(a)
        pool.adopt(b)
        pool.release(a)
        assert a._row == -1
        assert pool.obj[row_a] is None
        # the freed row is the first one handed back out
        (c,) = make_flits(size=1, src=2, dst=3)
        assert pool.adopt(c) == row_a
        assert pool.obj[row_a] is c

    def test_release_is_idempotent(self):
        pool = FlitPool(4)
        (flit,) = make_flits(size=1)
        pool.adopt(flit)
        pool.release(flit)
        pool.release(flit)  # second release must not double-free the row
        assert pool.live == 0
        rows = [pool.adopt(f) for f in make_flits(size=4)]
        assert len(set(rows)) == 4

    def test_view_returns_authoritative_object(self):
        pool = FlitPool(4)
        (flit,) = make_flits(size=1)
        row = pool.adopt(flit)
        assert pool.view(row) is flit


class TestGrowth:
    def test_exhaustion_grows_instead_of_corrupting(self):
        pool = FlitPool(2)
        flits = make_flits(size=9)
        rows = [pool.adopt(f) for f in flits]
        assert len(set(rows)) == len(rows)
        assert pool.live == len(rows)
        assert pool.grows >= 1
        assert pool.capacity >= len(rows)

    def test_growth_preserves_live_rows(self):
        pool = FlitPool(2)
        early = make_flits(size=2)
        early_rows = [pool.adopt(f) for f in early]
        pool.adopt_packet(make_flits(size=7, src=4, dst=5))  # forces growth
        for flit, row in zip(early, early_rows):
            assert flit._row == row  # row index stable across growth
            assert_row_matches(pool, flit)

    def test_growth_doubles_every_column(self):
        pool = FlitPool(2)
        pool.adopt_packet(make_flits(size=3))
        assert pool.capacity == 4
        for name, dtype in POOL_COLUMNS:
            column = getattr(pool, name)
            assert len(column) == pool.capacity
            assert column.dtype == np.dtype(dtype)
        assert len(pool.obj) == pool.capacity

    def test_recycled_pool_never_needs_growth(self):
        """Steady-state adopt/release churn within capacity never grows."""
        pool = FlitPool(4)
        for burst in range(20):
            flits = make_flits(size=4, created=burst)
            pool.adopt_packet(flits)
            pool.release_all(flits)
        assert pool.grows == 0
        assert pool.live == 0
        assert pool.adopted == 80

    def test_minimum_capacity_enforced(self):
        with pytest.raises(ValueError):
            FlitPool(0)

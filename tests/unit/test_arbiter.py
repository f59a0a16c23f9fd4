"""Unit tests for round-robin arbitration."""

import pytest

from repro.noc.arbiter import RoundRobinArbiter


class TestRoundRobinArbiter:
    def test_no_requests(self):
        assert RoundRobinArbiter(4).grant([False] * 4) is None

    def test_single_request(self):
        assert RoundRobinArbiter(4).grant([False, False, True, False]) == 2

    def test_rotation_serves_all(self):
        arbiter = RoundRobinArbiter(3)
        grants = [arbiter.grant([True, True, True]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_winner_becomes_lowest_priority(self):
        arbiter = RoundRobinArbiter(3)
        assert arbiter.grant([True, False, True]) == 0
        # 0 just won; with both requesting again, 2 is preferred
        assert arbiter.grant([True, False, True]) == 2

    def test_grant_from_sparse(self):
        arbiter = RoundRobinArbiter(8)
        assert arbiter.grant_from([5, 2]) == 2
        assert arbiter.grant_from([5, 2]) == 5
        assert arbiter.grant_from([]) is None

    def test_persistent_requester_eventually_served(self):
        """The property the UPP upward-packet arbiter depends on."""
        arbiter = RoundRobinArbiter(5)
        target_served = False
        for _ in range(5):
            if arbiter.grant([True] * 5) == 3:
                target_served = True
        assert target_served

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(3).grant([True])

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)


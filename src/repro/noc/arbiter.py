"""Round-robin arbiters used throughout the router and by UPP.

The paper uses round-robin arbitration in switch allocation and for the
UPP upward-packet arbiter (Sec. V-A: "a round robin arbiter selects a
packet from one VC as the upward packet").
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class RoundRobinArbiter:
    """Arbitrates among ``n`` requesters with a rotating priority pointer.

    The winner becomes the *lowest* priority for the next arbitration, so
    every persistent requester is eventually granted — the property the
    UPP deadlock-detection step relies on ("sooner or later all packets
    stalled while moving upward have the chance to be selected").
    """

    __slots__ = ("n", "_pointer")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n = n
        self._pointer = 0

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Return the granted requester index, or ``None`` if no requests."""
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} request lines, got {len(requests)}")
        for offset in range(self.n):
            idx = (self._pointer + offset) % self.n
            if requests[idx]:
                self._pointer = (idx + 1) % self.n
                return idx
        return None

    def grant_from(self, indices: Iterable[int]) -> Optional[int]:
        """Grant among a sparse set of requesting indices."""
        requesting = set(indices)
        if not requesting:
            return None
        if len(requesting) == 1:
            # sole requester always wins; pointer update is unchanged
            idx = next(iter(requesting))
            self._pointer = (idx + 1) % self.n
            return idx
        for offset in range(self.n):
            idx = (self._pointer + offset) % self.n
            if idx in requesting:
                self._pointer = (idx + 1) % self.n
                return idx
        return None

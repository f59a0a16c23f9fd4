"""Trace capture and replay.

A :class:`TraceRecorder` captures every ejected packet of a run; a
:class:`ReplayEndpoint` re-injects a recorded (or hand-written) trace.
Useful for regression tests (identical configs must produce identical
traces — the determinism invariant) and for replaying adversarial
deadlock-provoking sequences.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterable, List, NamedTuple

from repro.noc.ni import NEVER, Endpoint


class TraceRecord(NamedTuple):
    """One delivered packet, as recorded/replayed."""

    created_cycle: int
    src: int
    dst: int
    vnet: int
    size: int


class TraceRecorder:
    """Collects one record per ejected packet, in ejection order."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def on_eject(self, packet) -> None:
        """NI ejection callback: append one record."""
        self.records.append(
            TraceRecord(
                packet.created_cycle, packet.src, packet.dst, packet.vnet, packet.size
            )
        )

    def install(self, network) -> None:
        """Hook the recorder into every NI."""
        for ni in network.nis.values():
            ni.on_eject = self.on_eject

    def signature(self) -> int:
        """Order-sensitive hash of the trace (determinism checks)."""
        return hash(tuple(self.records))


class ReplayEndpoint(Endpoint):
    """Injects a fixed per-node schedule of messages."""

    def __init__(self, schedule: Iterable[TraceRecord]):
        self._schedule: deque = deque(sorted(schedule, key=lambda r: r.created_cycle))

    def step(self, cycle: int) -> None:
        """Inject every due record the NI will accept."""
        while self._schedule and self._schedule[0].created_cycle <= cycle:
            record = self._schedule[0]
            sent = self.ni.send_message(record.dst, record.vnet, record.size, cycle)
            if sent is None:
                break
            self._schedule.popleft()

    def next_event(self, cycle: int):
        """The next record's creation cycle, so the NI sleeps until it is
        due; per-cycle polling while a due record waits for queue space,
        and :data:`NEVER` once the schedule is spent."""
        if not self._schedule:
            return NEVER
        due = self._schedule[0].created_cycle
        return due if due > cycle else None

    @property
    def pending(self) -> int:
        """Records not yet injected."""
        return len(self._schedule)


def install_replay(network, records: Iterable[TraceRecord]) -> None:
    """Split a trace by source node and attach replay endpoints."""
    by_src: Dict[int, List[TraceRecord]] = defaultdict(list)
    for record in records:
        by_src[record.src].append(record)
    for node, ni in network.nis.items():
        ni.set_endpoint(ReplayEndpoint(by_src.get(node, [])))

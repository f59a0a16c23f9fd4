"""The candle: a frozen host-speed reference kernel.  DO NOT EDIT.

Every time the harness reports is ``raw_seconds * CANDLE_REF_S /
adjacent_candle_slice_seconds``, so this file *is* the unit of time of
the benchmark.  Its sha256 is printed with every run and pinned by
``tests/test_harness.py``; changing a byte rebases every number ever
recorded with it.

The kernel is shaped like the simulator's per-cycle instruction mix
rather than like a tight arithmetic loop, so that whatever slows the
interpreter on a shared host (frequency, a busy SMT sibling, stolen
time) slows the candle by a similar factor: ``__slots__`` objects
holding a deque and a dict each, attribute-heavy pointer chasing between
them, and a handful of small-array numpy operations per step.

It is deliberately *small*: 256 slots, a few hundred KiB, resident in L2
wherever the allocator happens to put them.  Sized like the simulator's
working set (thousands of slots, several MiB) the same kernel ran up to
16 % faster or slower from one process to the next for the life of that
process — page-colouring luck — which put that much noise on every
number of a run; at 256 slots the process-to-process spread is under
3 %.  The price is that a neighbour thrashing L3 slows the simulator and
not the candle; repetitions, not the candle, average that out.

The slots form one permutation cycle, and a step moves one token out of
every visited slot into its peer.  A full pass therefore takes one token
from and gives one token to every slot: queue lengths return to their
starting value, every slice performs the same operations, and nothing is
allocated net of what is freed — all stored integers are below 256,
which CPython interns.

A workload whose jobs persist files (the sweep service writes its queue
entry three times per job) is slowed by the filesystem as much as by the
processor: on the ext4 this was sized on, write-a-temp-file-and-rename
cost 60-600 us of kernel time depending on what the journal had just
been through, and moved a warm service job by 20 % from one minute to
the next.  For such a workload the slice is given a directory and ends
with a fixed number of such persists, in the same shape as the
program's (``json`` to a temp file, ``os.replace`` over the entry), so
that the reference slows when the filesystem does.
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from time import perf_counter

import numpy as np

#: seconds one slice takes on the reference host when it is quiet; the
#: harness multiplies by this so normalised seconds read like real ones.
CANDLE_REF_S = 0.0100

N_SLOTS = 256
#: slots visited per step (one numpy-selected batch, like the vector
#: engine's per-cycle candidate set).
BATCH = 32
#: full passes over the slots per slice.
PASSES_PER_SLICE = 112

#: the persisting variant (``Candle(persist_dir=...)``): half the passes,
#: then this many entries rewritten — about a fifth of the slice on a
#: quiet filesystem.  Sized on measurement: with twelve persists a warm
#: service job's time moved half as much as the slice's did.
PERSIST_PASSES = 56
PERSISTS_PER_SLICE = 6
#: reference seconds of one persisting slice.
PERSIST_REF_S = 0.0061
_PERSIST_ENTRIES = 4
_PERSIST_PAYLOAD = {"key": "candle", "fill": "x" * 1000}


class _Slot:
    __slots__ = ("sid", "queue", "table", "credits", "peer", "hops", "last")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.queue = deque((sid + k) & 255 for k in range(4))
        self.table = {key: 0 for key in range(8)}
        self.credits = 4
        self.peer = self
        self.hops = 0
        self.last = 0


class Candle:
    """The reference kernel; :meth:`slice` runs and times one slice."""

    def __init__(self, persist_dir=None) -> None:
        #: seconds a slice takes on the quiet reference host.
        self.ref_s = CANDLE_REF_S if persist_dir is None else PERSIST_REF_S
        self.passes = PASSES_PER_SLICE if persist_dir is None else PERSIST_PASSES
        self.entries = []
        if persist_dir is not None:
            os.makedirs(persist_dir, exist_ok=True)
            self.entries = [
                os.path.join(persist_dir, f"entry{index}.json")
                for index in range(_PERSIST_ENTRIES)
            ]
        self._persisted = 0
        rng = random.Random(20220402)
        self.slots = [_Slot(sid) for sid in range(N_SLOTS)]
        order = list(range(N_SLOTS))
        rng.shuffle(order)
        # one cycle through every slot: peer is a permutation without
        # fixed points, so a pass gives and takes one token everywhere
        self.peer_of = np.zeros(N_SLOTS, dtype=np.int64)
        for here, there in zip(order, order[1:] + order[:1]):
            self.slots[here].peer = self.slots[there]
            self.peer_of[here] = there
        self.rows = np.array(order, dtype=np.int64).reshape(-1, BATCH)
        self.occupancy = np.full(N_SLOTS, 4, dtype=np.int64)
        self.due = np.zeros(N_SLOTS, dtype=np.int64)
        self.cycle = 0

    def _step(self, batch: np.ndarray) -> None:
        cycle = self.cycle
        occupancy = self.occupancy
        due = self.due
        ready = batch[(due[batch] <= cycle) & (occupancy[batch] > 0)]
        slots = self.slots
        stamp = cycle & 255
        for sid in ready.tolist():
            slot = slots[sid]
            peer = slot.peer
            queue = slot.queue
            if peer.credits >= 0 and queue:
                token = queue.popleft()
                peer.queue.append(token)
                key = token & 7
                table = peer.table
                table[key] = (table[key] + 1) & 255
                slot.hops = (slot.hops + 1) & 255
                slot.last = stamp
                peer.credits = (peer.credits + 1) & 7
        targets = self.peer_of[ready]
        occupancy[ready] -= 1
        occupancy[targets] += 1
        due[ready] = cycle
        self.cycle = cycle + 1

    def _persist(self) -> None:
        path = self.entries[self._persisted % len(self.entries)]
        self._persisted += 1
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(_PERSIST_PAYLOAD, handle, sort_keys=True)
        os.replace(path + ".tmp", path)

    def slice(self) -> float:
        """Run one slice; returns the host seconds it took."""
        rows = self.rows
        step = self._step
        start = perf_counter()
        for _ in range(self.passes):
            for row in rows:
                step(row)
        if self.entries:
            for _ in range(PERSISTS_PER_SLICE):
                self._persist()
        return perf_counter() - start

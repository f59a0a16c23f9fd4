"""Synthetic traffic patterns (Table II): uniform random, bit complement,
bit rotation and transpose, with a mix of 1-flit control and 5-flit data
packets.

Patterns are defined over the *logical index space* of the chiplet nodes
(the 64 cores of the baseline system), matching how Garnet's synthetic
traffic addresses a flat node list.  Injection is open-loop Bernoulli: a
node injects a packet with probability ``rate / E[packet size]`` per
cycle so that the offered load equals ``rate`` flits/cycle/node.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import List

from repro.noc.ni import NEVER, Endpoint

#: vnet assignment mirroring MESI message classes: control packets travel
#: as requests (VNet 0), data packets as responses (VNet 2).
CONTROL_VNET = 0
DATA_VNET = 2


def uniform_random(index: int, n: int, rng: random.Random) -> int:
    """Uniform destination over all nodes except the source."""
    dst = rng.randrange(n - 1)
    return dst if dst < index else dst + 1


def bit_complement(index: int, n: int, rng: random.Random) -> int:
    """Destination = bitwise complement of the source index."""
    return ~index & (n - 1)


def bit_rotation(index: int, n: int, rng: random.Random) -> int:
    """Destination = source index rotated right by one bit."""
    bits = n.bit_length() - 1
    return (index >> 1) | ((index & 1) << (bits - 1))


def transpose(index: int, n: int, rng: random.Random) -> int:
    """Destination = matrix-transposed (row, col) of the source."""
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError(f"transpose needs a square node count, got {n}")
    row, col = divmod(index, side)
    return col * side + row


#: fraction of hotspot-pattern packets aimed at a hot node.
HOTSPOT_FRACTION = 0.3
#: number of hot nodes (spread evenly over the logical index space).
HOTSPOT_COUNT = 4


def hotspot(index: int, n: int, rng: random.Random) -> int:
    """Uniform random background with :data:`HOTSPOT_FRACTION` of packets
    concentrated on :data:`HOTSPOT_COUNT` evenly spaced hot nodes — the
    classic memory-controller-contention pattern.  Hot destinations
    saturate their ejection bandwidth long before uniform traffic would,
    producing deep tree-shaped congestion (the regime the vectorized
    datapath core targets)."""
    if rng.random() < HOTSPOT_FRACTION:
        k = min(HOTSPOT_COUNT, n)
        hot = (rng.randrange(k) * n) // k
        if hot != index:
            return hot
        # a hot node never targets itself; fall through to background
    return uniform_random(index, n, rng)


PATTERNS: dict = {
    "uniform_random": uniform_random,
    "bit_complement": bit_complement,
    "bit_rotation": bit_rotation,
    "transpose": transpose,
    "hotspot": hotspot,
}


def _require_power_of_two(n: int, pattern: str) -> None:
    if n & (n - 1):
        raise ValueError(f"pattern {pattern!r} needs a power-of-two node count")


class SyntheticEndpoint(Endpoint):
    """Open-loop Bernoulli injector for one chiplet node.

    Generated packets wait in an unbounded source queue when the NI
    injection queue is full, so queueing latency is measured from message
    creation exactly as gem5/Garnet does.
    """

    def __init__(
        self,
        index: int,
        nodes: List[int],
        pattern: str,
        rate: float,
        rng: random.Random,
        data_fraction: float = 0.5,
        data_size: int = 5,
        control_size: int = 1,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"injection rate {rate} out of range")
        if pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {pattern!r}")
        if pattern not in ("uniform_random", "hotspot"):
            _require_power_of_two(len(nodes), pattern)
        self.index = index
        self.nodes = nodes
        self.pattern = pattern
        self.pattern_fn = PATTERNS[pattern]
        self.rng = rng
        self.data_fraction = data_fraction
        self.data_size = data_size
        self.control_size = control_size
        mean_size = data_fraction * data_size + (1 - data_fraction) * control_size
        #: packet-injection probability per cycle for the target flit rate.
        self.packet_rate = rate / mean_size
        self._enabled = True
        self._backlog: deque = deque()
        self.generated = 0
        #: cycle of the next Bernoulli success (geometric skip-ahead).
        self._fire_cycle = -1

    @property
    def enabled(self) -> bool:
        """Whether new packets are generated (drains switch it off)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        # the NI may be asleep on the old schedule: wake it so it re-reads
        # ``next_event`` (re-enabling re-arms from the current cycle)
        self._enabled = value
        ni = getattr(self, "ni", None)
        if ni is not None:
            ni._wake()

    def _arm(self, base: int) -> None:
        """Draw per-cycle Bernoulli trials forward until the next success.

        The RNG is private to this endpoint and the original model drew
        exactly one ``random()`` per cycle, so consuming the failure run
        up front yields a bit-identical stream and fire schedule while
        letting the NI sleep until :attr:`_fire_cycle`.
        """
        rng_random = self.rng.random
        rate = self.packet_rate
        cycle = base
        while rng_random() >= rate:
            cycle += 1
        self._fire_cycle = cycle

    def step(self, cycle: int) -> None:
        """Bernoulli generation plus backlog flush into the NI."""
        if self._enabled and self.packet_rate > 0.0:
            if self._fire_cycle < cycle:
                self._arm(cycle)
            if self._fire_cycle == cycle:
                dst_index = self.pattern_fn(self.index, len(self.nodes), self.rng)
                if dst_index != self.index:
                    if self.rng.random() < self.data_fraction:
                        size, vnet = self.data_size, DATA_VNET
                    else:
                        size, vnet = self.control_size, CONTROL_VNET
                    self._backlog.append((self.nodes[dst_index], vnet, size, cycle))
                    self.generated += 1
                self._arm(cycle + 1)
        while self._backlog:
            dst, vnet, size, created = self._backlog[0]
            packet = self.ni.send_message(dst, vnet, size, created)
            if packet is None:
                break
            self._backlog.popleft()

    def next_event(self, cycle: int):
        """The pre-drawn fire cycle: between fires this endpoint is pure
        state, so its NI may sleep until then.  A disabled or zero-rate
        injector only flushes its backlog: it is polled while one is left
        and never acts again once it is empty (flipping ``enabled`` wakes
        the NI)."""
        if not self._enabled or self.packet_rate <= 0.0:
            return None if self._backlog else NEVER
        return self._fire_cycle if self._fire_cycle > cycle else None

    @property
    def backlog_flits(self) -> int:
        """Flits generated but not yet accepted by the NI."""
        return sum(size for _dst, _vnet, size, _c in self._backlog)


def install_synthetic_traffic(
    network,
    pattern: str,
    rate: float,
    data_fraction: float = 0.5,
) -> List[SyntheticEndpoint]:
    """Attach a synthetic injector to every chiplet node of a network."""
    nodes = network.topo.chiplet_nodes
    endpoints = []
    cfg = network.cfg
    for index, node in enumerate(nodes):
        endpoint = SyntheticEndpoint(
            index,
            nodes,
            pattern,
            rate,
            random.Random(network.cfg.seed * 100003 + node),
            data_fraction=data_fraction,
            data_size=cfg.data_packet_size,
            control_size=cfg.control_packet_size,
        )
        network.nis[node].set_endpoint(endpoint)
    # interposer NIs stay pure sinks (default Endpoint consume policy)
    for node in network.topo.interposer_routers:
        network.nis[node].set_endpoint(Endpoint())
    for index, node in enumerate(nodes):
        endpoints.append(network.nis[node].endpoint)
    return endpoints

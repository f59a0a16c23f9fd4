"""Latency / throughput statistics collection.

Mirrors the paper's reporting: *network latency* (injection into the
network to ejection), *queueing latency* (message creation to injection)
and *throughput* in flits/cycle/node over the measurement window.
Measurement starts after warmup: only packets created at or after
``window_start`` contribute to latency, and only flits ejected inside the
window contribute to throughput.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class LatencyAccumulator:
    """Streaming mean/max plus a power-of-two histogram for percentiles.

    The histogram buckets value ``v`` into ``floor(log2(v)) + 1`` (bucket
    0 holds zeros), so percentile estimates carry at most 2x relative
    error — plenty for tail-latency shape comparisons — at O(1) memory.
    """

    __slots__ = ("count", "total", "maximum", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.maximum = 0
        self._buckets = [0] * 32

    def add(self, value: int) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value
        index = value.bit_length() if value > 0 else 0
        self._buckets[min(index, 31)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Approximate percentile (upper bucket bound), e.g. 0.99."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction {fraction} out of (0, 1]")
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        seen = 0
        for index, bucket in enumerate(self._buckets):
            seen += bucket
            if seen >= target:
                return float(min((1 << index) - 1, self.maximum)) if index else 0.0
        return float(self.maximum)


class SimulationStats:
    """Per-run collector, installed as every NI's ``on_eject`` callback."""

    def __init__(self, n_vnets: int, n_nodes: int):
        self.n_vnets = n_vnets
        self.n_nodes = n_nodes
        self.window_start = 0
        self.window_end: Optional[int] = None
        self.network_latency = LatencyAccumulator()
        self.queueing_latency = LatencyAccumulator()
        self.total_latency = LatencyAccumulator()
        self.per_vnet_latency: List[LatencyAccumulator] = [
            LatencyAccumulator() for _ in range(n_vnets)
        ]
        self.ejected_packets = 0
        self.ejected_flits_in_window = 0
        self.total_ejected_flits = 0
        self.hops = LatencyAccumulator()
        self.popup_packets = 0

    def begin_window(self, cycle: int) -> None:
        """Start measuring: discard warmup statistics."""
        self.window_start = cycle
        self.network_latency = LatencyAccumulator()
        self.queueing_latency = LatencyAccumulator()
        self.total_latency = LatencyAccumulator()
        self.per_vnet_latency = [LatencyAccumulator() for _ in range(self.n_vnets)]
        self.hops = LatencyAccumulator()
        self.ejected_packets = 0
        self.ejected_flits_in_window = 0
        self.popup_packets = 0

    def end_window(self, cycle: int) -> None:
        """Stop measuring: later ejections no longer count."""
        self.window_end = cycle

    def on_eject(self, packet) -> None:
        """NI ejection callback: fold one delivered packet in."""
        self.total_ejected_flits += packet.size
        in_window = self.window_end is None or packet.ejected_cycle < self.window_end
        if in_window and packet.ejected_cycle >= self.window_start:
            self.ejected_flits_in_window += packet.size
        if packet.created_cycle < self.window_start:
            return
        if self.window_end is not None and packet.ejected_cycle >= self.window_end:
            return
        self.ejected_packets += 1
        self.network_latency.add(packet.network_latency)
        self.queueing_latency.add(packet.queueing_latency)
        self.total_latency.add(packet.total_latency)
        self.per_vnet_latency[packet.vnet].add(packet.total_latency)
        self.hops.add(packet.hops)
        if packet.popup_count:
            self.popup_packets += 1

    # ------------------------------------------------------------------ #

    def throughput(self, cycles: int) -> float:
        """Accepted traffic in flits/cycle/node over the window."""
        if cycles <= 0:
            return 0.0
        return self.ejected_flits_in_window / (cycles * self.n_nodes)

    def summary(self, cycles: int) -> Dict[str, float]:
        """The headline metrics of a run over a window of ``cycles``."""
        return {
            "packets": self.ejected_packets,
            "avg_network_latency": self.network_latency.mean,
            "avg_queueing_latency": self.queueing_latency.mean,
            "avg_total_latency": self.total_latency.mean,
            "p99_total_latency": self.total_latency.percentile(0.99),
            "max_total_latency": self.total_latency.maximum,
            "avg_hops": self.hops.mean,
            "throughput": self.throughput(cycles),
            "popup_packets": self.popup_packets,
        }


def result_fingerprint(result) -> Dict[str, object]:
    """A canonical identity for one :class:`SimulationResult`.

    Two runs are bit-identical when their fingerprints are equal: the
    fingerprint folds in every summary metric, the deadlock outcome and
    the scheme's own counters.  The determinism regression tests compare
    them across engines to prove optimisations preserve results.
    """
    return {
        "cycles": result.cycles,
        "summary": {k: result.summary[k] for k in sorted(result.summary)},
        "deadlocked": result.deadlocked,
        "deadlock_cycle": result.deadlock_cycle,
        "scheme_stats": {
            k: result.scheme_stats[k] for k in sorted(result.scheme_stats)
        },
    }


def install_stats(network) -> SimulationStats:
    """Create a collector and hook it into every NI's ejection path."""
    stats = SimulationStats(network.cfg.n_vnets, len(network.topo.chiplet_nodes))
    for ni in network.nis.values():
        ni.on_eject = stats.on_eject
    return stats

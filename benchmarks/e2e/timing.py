"""Candle-normalised timing and the small statistics the harness reports.

Raw host time on the shared 2-vCPU host this benchmark was sized on
swings by tens of percent within minutes for identical work.  Every
timed *unit* (<= ~30 ms of in-process work, one campaign, or three
service jobs) is therefore bracketed by slices of the frozen candle
kernel and contributes ``raw * candle.ref_s / mean(candle_before,
candle_after)``: the time the unit would have taken had the host run the
candle at its reference speed throughout.  Adjacent units share the
slice between them.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Callable, List, Optional, Sequence

from candle import Candle


class NormClock:
    """Times units of work between candle slices.

    ``open()`` starts a unit (after an opening slice, unless the previous
    unit's closing slice is still adjacent) and ``close()`` ends it with
    a slice and returns its normalised seconds; ``unit(fn, ...)`` does
    both around one call.  Call :meth:`gap` after untimed work so the
    next unit takes a fresh opening slice.

    With ``prime`` set every slice is preceded by a discarded one.  A
    unit that leaves this process idle (it waits for a pool worker)
    hands the core back clocked down and cache-cold: the first slice
    after it took 16-24 ms where the second took 11-13, and it is the
    steadier second one that says how fast the host is.
    """

    def __init__(self, candle: Candle, prime: bool = False) -> None:
        self.candle = candle
        self.prime = prime
        self._prev: Optional[float] = None
        self._start = 0.0
        self.slices: List[float] = []
        self.raw_s = 0.0
        self.norm_s = 0.0
        #: seconds spent in discarded priming slices.
        self.primed_s = 0.0
        self._lap = (0.0, 0.0)
        #: ``normalised / raw`` of the unit closed last.
        self.factor = 1.0

    def _slice(self) -> float:
        if self.prime:
            self.primed_s += self.candle.slice()
        seconds = self.candle.slice()
        self.slices.append(seconds)
        return seconds

    def gap(self) -> None:
        self._prev = None

    def lap(self):
        """``(normalised, raw)`` seconds of the units closed since the
        previous lap: a repetition's set-up, then its timed phase."""
        lap = self.norm_s - self._lap[0], self.raw_s - self._lap[1]
        self._lap = self.norm_s, self.raw_s
        return lap

    def open(self) -> None:
        if self._prev is None:
            self._prev = self._slice()
        self._start = perf_counter()

    def close(self) -> float:
        raw = perf_counter() - self._start
        before = self._prev
        after = self._slice()
        self._prev = after
        self.factor = self.candle.ref_s / ((before + after) / 2.0)
        self.raw_s += raw
        self.norm_s += raw * self.factor
        return raw * self.factor

    def unit(self, fn: Callable, *args, **kwargs):
        """``(fn(*args, **kwargs), normalised seconds it took)``."""
        self.open()
        result = fn(*args, **kwargs)
        return result, self.close()

    # -- the benchmark's own health ----------------------------------- #

    @property
    def candle_s(self) -> float:
        return sum(self.slices)

    def slowdown(self) -> float:
        """Median candle slice over its reference: 1.0 on a quiet
        reference host, 2.0 when the host runs everything at half speed."""
        return statistics.median(self.slices) / self.candle.ref_s

    def candle_share(self) -> float:
        """Share of bracketed time spent in the candle."""
        candle_s = self.candle_s + self.primed_s
        return candle_s / (candle_s + self.raw_s)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than ten samples
    beyond it (a p90 of 50 samples is five numbers' worth of evidence)."""
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile {pct} out of (0, 100)")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has only {beyond} beyond it; need 10"
        )
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and the two spreads the acceptance rules use."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / q2,
        "range_over_median": (max(values) - min(values)) / q2,
    }

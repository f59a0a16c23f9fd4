"""In-memory span tracer used by the ``--trace`` run.

Spans are recorded from the harness's side of each layer boundary — the
harness wraps the public callables it (or the program on its behalf)
invokes; nothing inside ``src/`` knows about tracing.  A span has a name,
start, end, the span that caused it (its parent on the same thread's
stack), the thread it ran on and a request identifier shared by all
spans of one campaign or service job.  Spans are kept in memory and
written out when the benchmark ends.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover; :class:`Tracer` maintains it
incrementally per name, so calls made a hundred thousand times a
repetition (endpoint ``step``) can be aggregated (:meth:`Tracer.leaf`)
without one record each.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    """One recorded span; ``parent`` indexes :attr:`Tracer.spans`."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    thread: int


@dataclass
class Layer:
    """Per-name aggregate: call count, total and self seconds."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("index", "child_s", "leaf_mark", "nested_leaf_s")

    def __init__(self, index: Optional[int], leaf_mark: float) -> None:
        self.index = index
        #: seconds of recorded child spans (their leaves included).
        self.child_s = 0.0
        #: the thread's leaf seconds when this span opened.
        self.leaf_mark = leaf_mark
        #: leaf seconds that fell inside recorded child spans.
        self.nested_leaf_s = 0.0


class Tracer:
    """Span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.layers: Dict[str, Layer] = {}
        self._local = threading.local()
        #: request id stamped on spans opened from now on.
        self.request: Optional[str] = None
        #: spans already handled by :meth:`attribute_foreign`.
        self._attributed = 0

    def _stack(self) -> List[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _leaf_seconds(self) -> List[float]:
        """One-element list: seconds spent in leaf spans on this thread."""
        try:
            return self._local.leaf
        except AttributeError:
            self._local.leaf = [0.0]
            return self._local.leaf

    def layer(self, name: str) -> Layer:
        try:
            return self.layers[name]
        except KeyError:
            return self.layers.setdefault(name, Layer())

    def wrap(self, name, fn: Callable, keep: bool = True) -> Callable:
        """``fn`` wrapped in a recorded span.  ``name`` is a string, or a
        callable mapping the call's result to one (a cache ``get`` is a
        hit or a miss only once it has returned).  ``keep=False``
        aggregates into the layer without a record per call (a
        simulated cycle); such a span may still have children."""
        if not keep:
            return self._wrap_aggregate(name, fn)
        spans = self.spans
        get_stack = self._stack
        get_leaf = self._leaf_seconds
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            stack = get_stack()
            leaf = get_leaf()
            index = len(spans)
            parent = stack[-1].index if stack else None
            span = Span(fixed or "?", 0.0, 0.0, parent, self.request,
                        threading.get_ident())
            spans.append(span)
            frame = _Frame(index, leaf[0])
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                span.start, span.end = start, end
                if fixed is None:
                    span.name = name(result)
                duration = end - start
                leaf_s = leaf[0] - frame.leaf_mark
                layer = self.layer(span.name)
                layer.count += 1
                layer.total_s += duration
                layer.self_s += (
                    duration - frame.child_s - (leaf_s - frame.nested_leaf_s)
                )
                if stack:
                    stack[-1].child_s += duration
                    stack[-1].nested_leaf_s += leaf_s

        traced.__wrapped__ = fn
        return traced

    def _wrap_aggregate(self, name: str, fn: Callable) -> Callable:
        layer = self.layer(name)
        stack = self._stack()
        leaf = self._leaf_seconds()

        def traced(*args):
            frame = _Frame(None, leaf[0])
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                stack.pop()
                leaf_s = leaf[0] - frame.leaf_mark
                layer.count += 1
                layer.total_s += duration
                layer.self_s += (
                    duration - frame.child_s - (leaf_s - frame.nested_leaf_s)
                )
                if stack:
                    stack[-1].child_s += duration
                    stack[-1].nested_leaf_s += leaf_s

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        """A cheap aggregate-only wrapper for a call made too often to
        record: no span record, no children, bound to the thread that
        creates it (the simulator is single-threaded).  The enclosing
        recorded span learns of it through the thread's leaf-seconds
        counter.  A call that raises is not counted."""
        layer = self.layer(name)
        leaf = self._leaf_seconds()

        def traced(*args):
            start = perf_counter()
            result = fn(*args)
            duration = perf_counter() - start
            layer.count += 1
            layer.self_s += duration
            leaf[0] += duration
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a recorded span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def add(self, name: str, count: int, total_s: float, self_s: float) -> None:
        """Fold in a layer measured elsewhere (a worker process's side
        file); its total becomes child time of the calling thread's open
        span when ``name`` is that worker's outermost span."""
        layer = self.layer(name)
        layer.count += count
        layer.total_s += total_s
        layer.self_s += self_s

    def add_child_time(self, seconds: float) -> None:
        """Charge ``seconds`` of out-of-process work to the open span."""
        stack = self._stack()
        if stack:
            stack[-1].child_s += seconds

    def attribute_foreign(self, home_thread: int) -> None:
        """Closed loop, one busy thread at a time: a span on another
        thread ran while a ``home_thread`` span was blocked waiting for
        it.  Subtract each top-level foreign span from the self time of
        the innermost home span that contains its start, as if it had
        been that span's child.  Handles the spans recorded since the
        previous call."""
        fresh = self.spans[self._attributed:]
        self._attributed = len(self.spans)
        home = sorted(
            (s for s in fresh if s.thread == home_thread),
            key=lambda s: (s.start, -s.end),
        )
        starts = [s.start for s in home]
        for span in fresh:
            if span.thread == home_thread or span.parent is not None:
                continue
            at = bisect.bisect_right(starts, span.start) - 1
            while at >= 0 and home[at].end < span.start:
                at -= 1
            if at >= 0:
                self.layer(home[at].name).self_s -= span.end - span.start

    def dump(self) -> dict:
        """JSON-able form written to ``--out`` at exit."""
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.request, s.thread]
                for s in self.spans
            ],
            "layers": {
                # a leaf layer accrues self seconds only: it has no children
                name: {"count": v.count, "total_s": max(v.total_s, v.self_s),
                       "self_s": v.self_s}
                for name, v in sorted(self.layers.items())
            },
        }

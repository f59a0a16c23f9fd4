"""Process-parallel experiment orchestrator.

:class:`ExperimentRunner` executes a list of task specs
(:mod:`repro.exp.tasks`) and returns their results in submission order.
It layers four things over a bare loop:

* **fan-out** — ``jobs > 1`` distributes points over a
  ``concurrent.futures`` process pool (points are embarrassingly
  parallel: every one builds a fresh seeded network, so parallel results
  are bit-identical to serial by construction).  Before a ``fork`` pool
  starts, the runner imports the per-cycle engine, so workers inherit it
  instead of each importing it in its first network build;
* **content-addressed caching** — with a
  :class:`~repro.exp.backends.CacheBackend` attached (sharded-dir
  :class:`~repro.exp.cache.ResultCache`, in-memory, or tiered),
  previously executed points are replayed from the cache and only
  misses are simulated.  Because an on-disk cache persists across processes,
  an interrupted campaign is *resumable*: re-running the same spec list
  skips every completed point and continues where it died;
* **retry on worker crash** — a worker process dying (OOM kill, signal)
  breaks the pool; affected points are resubmitted to a fresh pool up to
  ``retries`` times.  Deterministic task exceptions (a workload timeout,
  a :class:`DeadlockError`) are *not* retried — rerunning a
  deterministic failure can only waste CPU — and propagate to the caller;
* **structured progress** — an optional ``progress(done, total, label,
  source)`` callback fires once per completed point with ``source`` in
  ``{"cache", "run"}``.

``stop_after(result)`` reproduces the serial sweeps' early-stop
semantics (stop once latency saturates): the serial path stops executing
at the first stop point; the parallel path executes everything and
truncates the returned series at the same index, so both return
identical series.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.exp.backends import CacheBackend
from repro.exp.cache import cache_key, spec_summary
from repro.exp.tasks import execute_spec


class WorkerCrashError(RuntimeError):
    """A point kept crashing its worker process after every retry."""


@dataclass
class RunnerStats:
    """What one :meth:`ExperimentRunner.run` campaign actually did."""

    submitted: int = 0
    #: points simulated (inline or in a worker) this campaign.
    executed: int = 0
    #: points replayed from the result cache.
    cached: int = 0
    #: worker-crash resubmissions.
    retried: int = 0
    #: points skipped because a serial sweep stopped early.
    skipped: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


ProgressFn = Callable[[int, int, str, str], None]


class ExperimentRunner:
    """Executes task specs serially or across worker processes."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[CacheBackend] = None,
        retries: int = 2,
        execute: Optional[Callable[[Mapping], Dict[str, object]]] = None,
        mp_context: Optional[str] = None,
        progress: Optional[ProgressFn] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.retries = retries
        #: the point executor; module-level (picklable) so workers can
        #: receive it.  Overridable for tests.
        self.execute = execute if execute is not None else execute_spec
        self._mp_context = mp_context
        self.progress = progress
        self.stats = RunnerStats()

    # ------------------------------------------------------------------ #

    def run(
        self,
        specs: Sequence[Mapping],
        stop_after: Optional[Callable[[Dict[str, object]], bool]] = None,
    ) -> List[Dict[str, object]]:
        """Execute ``specs``; results come back in submission order.

        With ``stop_after``, the returned list ends at (and includes) the
        first result for which the predicate is true — identical series
        whether points ran serially, in parallel, or from cache.
        """
        specs = list(specs)
        self.stats.submitted += len(specs)
        if not specs:
            return []
        keys = [cache_key(spec) if self.cache else None for spec in specs]
        if self.jobs == 1:
            return self._run_serial(specs, keys, stop_after)
        return self._run_parallel(specs, keys, stop_after)

    # ------------------------------------------------------------------ #

    def _fetch_cached(self, key: Optional[str]) -> Optional[Dict[str, object]]:
        if self.cache is None or key is None:
            return None
        entry = self.cache.get(key)
        return entry["result"] if entry is not None else None

    def _store(self, key: Optional[str], spec: Mapping, result) -> None:
        if self.cache is not None and key is not None:
            self.cache.put(key, spec, result)

    def _report(self, done: int, total: int, spec: Mapping, source: str) -> None:
        if self.progress is not None:
            self.progress(done, total, spec_summary(spec), source)

    def _run_serial(self, specs, keys, stop_after) -> List[Dict[str, object]]:
        results: List[Dict[str, object]] = []
        total = len(specs)
        for index, (spec, key) in enumerate(zip(specs, keys)):
            result = self._fetch_cached(key)
            if result is not None:
                self.stats.cached += 1
                self._report(index + 1, total, spec, "cache")
            else:
                result = self.execute(spec)
                self.stats.executed += 1
                self._store(key, spec, result)
                self._report(index + 1, total, spec, "run")
            results.append(result)
            if stop_after is not None and stop_after(result):
                self.stats.skipped += total - index - 1
                break
        return results

    def _run_parallel(self, specs, keys, stop_after) -> List[Dict[str, object]]:
        total = len(specs)
        results: Dict[int, Dict[str, object]] = {}
        pending: List[int] = []
        for index, key in enumerate(keys):
            cached = self._fetch_cached(key)
            if cached is not None:
                results[index] = cached
                self.stats.cached += 1
                self._report(len(results), total, specs[index], "cache")
            else:
                pending.append(index)
        attempts = {index: 0 for index in pending}
        while pending:
            pending = self._parallel_round(
                specs, keys, pending, attempts, results, total
            )
        ordered = [results[index] for index in range(total)]
        if stop_after is not None:
            for index, result in enumerate(ordered):
                if stop_after(result):
                    return ordered[: index + 1]
        return ordered

    def _parallel_round(
        self, specs, keys, pending, attempts, results, total
    ) -> List[int]:
        """One pool lifetime; returns the indexes needing a retry pool."""
        ctx = self._resolve_context()
        if ctx.get_start_method() == "fork":
            # each worker's first Network would otherwise import (and, with
            # no bytecode cache, compile) the engine and numpy on its own;
            # imported once here, every forked worker inherits them
            import repro.noc.vector  # noqa: F401
        retry: List[int] = []
        executor = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(pending)), mp_context=ctx
        )
        try:
            futures = {
                executor.submit(self.execute, specs[index]): index
                for index in pending
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    attempts[index] += 1
                    if attempts[index] > self.retries:
                        raise WorkerCrashError(
                            f"point {index} "
                            f"({spec_summary(specs[index])}) crashed its "
                            f"worker {attempts[index]} time(s); giving up"
                        ) from None
                    self.stats.retried += 1
                    retry.append(index)
                    continue
                results[index] = result
                self.stats.executed += 1
                self._store(keys[index], specs[index], result)
                self._report(len(results), total, specs[index], "run")
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return retry

    def _resolve_context(self):
        if self._mp_context is not None:
            return multiprocessing.get_context(self._mp_context)
        # fork (where available) keeps worker start cheap and lets tests
        # inject executor functions defined in already-imported modules;
        # spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

"""Tests for the process-parallel experiment runner: ordering, caching,
early-stop semantics, progress reporting, crash retry, and the inline
path a lone point takes (with its young-only collection).

The crash tests inject module-level executor functions (picklable by
reference) and force the ``fork`` start method so workers inherit this
already-imported module; they are skipped where fork is unavailable.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.exp.cache import ResultCache
from repro.exp.runner import ExperimentRunner, WorkerCrashError

SRC = Path(__file__).resolve().parents[2] / "src"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _double(spec):
    return {"i": spec["i"], "value": spec["i"] * 2}


def _crash_once(spec):
    """Kill the worker on the first attempt per point, succeed after."""
    sentinel = Path(spec["crash_dir"]) / f"point{spec['i']}"
    if not sentinel.exists():
        sentinel.write_text("crashed")
        os._exit(13)
    return _double(spec)


def _always_crash(spec):
    os._exit(13)


def _pid(spec):
    return {"i": spec["i"], "pid": os.getpid()}


def _crash_once_when_signalled(spec):
    """Point 0 kills its worker once the caller has recorded every other
    point (so its retry is the only point left), and succeeds after."""
    crash_dir = Path(spec["crash_dir"])
    sentinel = crash_dir / "crashed"
    if spec["i"] == 0 and not sentinel.exists():
        deadline = time.monotonic() + 30
        while not (crash_dir / "recorded").exists():
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        sentinel.write_text("crashed")
        os._exit(13)
    return _pid(spec)


def _fail_deterministically(spec):
    raise ValueError(f"bad spec {spec['i']}")


def specs(n, **extra):
    return [{"kind": "test", "i": i, **extra} for i in range(n)]


class TestSerial:
    def test_results_in_submission_order(self):
        runner = ExperimentRunner(jobs=1, execute=_double)
        assert [r["value"] for r in runner.run(specs(4))] == [0, 2, 4, 6]
        assert runner.stats.executed == 4

    def test_empty_spec_list(self):
        assert ExperimentRunner(jobs=1, execute=_double).run([]) == []

    def test_stop_after_truncates_and_skips(self):
        runner = ExperimentRunner(jobs=1, execute=_double)
        results = runner.run(specs(5), stop_after=lambda r: r["value"] >= 4)
        assert [r["value"] for r in results] == [0, 2, 4]
        assert runner.stats.executed == 3
        assert runner.stats.skipped == 2

    def test_deterministic_exception_propagates(self):
        runner = ExperimentRunner(jobs=1, execute=_fail_deterministically)
        with pytest.raises(ValueError, match="bad spec 0"):
            runner.run(specs(2))

    def test_cache_round_trip(self, tmp_path):
        cold = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path), execute=_double)
        first = cold.run(specs(3))
        assert cold.stats.executed == 3
        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path), execute=_double)
        assert warm.run(specs(3)) == first
        assert warm.stats.executed == 0
        assert warm.stats.cached == 3

    def test_cache_key_distinguishes_specs(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path), execute=_double)
        runner.run(specs(2))
        runner.run(specs(2, variant="other"))
        assert runner.stats.executed == 4

    def test_progress_callback(self):
        seen = []
        runner = ExperimentRunner(
            jobs=1,
            execute=_double,
            progress=lambda done, total, label, source: seen.append(
                (done, total, source)
            ),
        )
        runner.run(specs(2))
        assert seen == [(1, 2, "run"), (2, 2, "run")]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)
        with pytest.raises(ValueError):
            ExperimentRunner(retries=-1)


@needs_fork
class TestParallel:
    def test_results_in_submission_order(self):
        runner = ExperimentRunner(jobs=2, execute=_double, mp_context="fork")
        assert [r["value"] for r in runner.run(specs(5))] == [0, 2, 4, 6, 8]
        assert runner.stats.executed == 5

    def test_stop_after_matches_serial_series(self):
        serial = ExperimentRunner(jobs=1, execute=_double)
        parallel = ExperimentRunner(jobs=2, execute=_double, mp_context="fork")
        predicate = lambda r: r["value"] >= 4  # noqa: E731
        assert serial.run(specs(5), stop_after=predicate) == parallel.run(
            specs(5), stop_after=predicate
        )

    def test_parallel_fills_cache_serial_reads_it(self, tmp_path):
        parallel = ExperimentRunner(
            jobs=2, cache=ResultCache(tmp_path), execute=_double, mp_context="fork"
        )
        first = parallel.run(specs(4))
        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path), execute=_double)
        assert warm.run(specs(4)) == first
        assert warm.stats.executed == 0

    def test_worker_crash_is_retried(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, execute=_crash_once, retries=2, mp_context="fork"
        )
        results = runner.run(specs(2, crash_dir=str(tmp_path)))
        assert [r["value"] for r in results] == [0, 2]
        assert runner.stats.retried >= 1

    def test_worker_crash_exhausts_retries(self, tmp_path):
        # two points: a lone one would run in (and kill) this process;
        # the first pool breaks under both, so each is retried once
        runner = ExperimentRunner(
            jobs=2, execute=_always_crash, retries=1, mp_context="fork"
        )
        with pytest.raises(WorkerCrashError, match="giving up"):
            runner.run(specs(2))
        assert runner.stats.retried == 2

    def test_lone_point_runs_in_the_caller(self, tmp_path):
        seen = []
        runner = ExperimentRunner(
            jobs=2,
            cache=ResultCache(tmp_path),
            execute=_pid,
            mp_context="fork",
            progress=lambda done, total, label, source: seen.append(
                (done, total, source)
            ),
        )
        assert runner.run(specs(1)) == [{"i": 0, "pid": os.getpid()}]
        assert len(ResultCache(tmp_path).entries()) == 1
        assert seen == [(1, 1, "run")]
        assert runner.stats.executed == 1

    def test_lone_point_left_after_cache_runs_in_the_caller(self, tmp_path):
        ExperimentRunner(
            jobs=1, cache=ResultCache(tmp_path), execute=_pid
        ).run(specs(1))
        runner = ExperimentRunner(
            jobs=2, cache=ResultCache(tmp_path), execute=_pid, mp_context="fork"
        )
        results = runner.run(specs(2))
        assert [r["pid"] for r in results] == [os.getpid(), os.getpid()]
        assert (runner.stats.cached, runner.stats.executed) == (1, 1)

    def test_retried_lone_point_runs_in_a_pool(self, tmp_path):
        def recorded(done, total, label, source):
            (tmp_path / "recorded").touch()

        runner = ExperimentRunner(
            jobs=2,
            execute=_crash_once_when_signalled,
            retries=2,
            mp_context="fork",
            progress=recorded,
        )
        results = runner.run(specs(2, crash_dir=str(tmp_path)))
        assert runner.stats.retried == 1
        assert [r["i"] for r in results] == [0, 1]
        assert os.getpid() not in [r["pid"] for r in results]
        assert runner.stats.executed == 2

    def test_isolated_lone_point_runs_in_a_pool(self, tmp_path):
        ExperimentRunner(
            jobs=1, cache=ResultCache(tmp_path), execute=_pid
        ).run(specs(1))
        runner = ExperimentRunner(
            jobs=2, cache=ResultCache(tmp_path), execute=_pid,
            mp_context="fork", isolate=True,
        )
        results = runner.run(specs(2))
        assert results[0]["pid"] == os.getpid()  # replayed from the cache
        assert results[1]["pid"] != os.getpid()
        assert (runner.stats.cached, runner.stats.executed) == (1, 1)

    def test_isolated_lone_crashing_point_breaks_a_worker(self):
        # without isolate this point would run in, and kill, this process
        runner = ExperimentRunner(
            jobs=2, execute=_always_crash, retries=1, mp_context="fork",
            isolate=True,
        )
        with pytest.raises(WorkerCrashError, match="giving up"):
            runner.run(specs(1))
        assert runner.stats.retried == 1

    @staticmethod
    def _submit_breaks(monkeypatch, broken_calls):
        """Make ``ProcessPoolExecutor.submit`` raise BrokenProcessPool on
        the call numbers ``broken_calls`` accepts (1-based), as it does
        when a worker died before the point was handed over."""
        submit = ProcessPoolExecutor.submit
        calls = []

        def flaky_submit(self, fn, *args, **kwargs):
            calls.append(fn)
            if broken_calls(len(calls)):
                raise BrokenProcessPool("a worker died before submission")
            return submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", flaky_submit)

    def test_unsent_points_are_retried(self, monkeypatch):
        self._submit_breaks(monkeypatch, lambda call: call in (2, 3))
        runner = ExperimentRunner(
            jobs=2, execute=_double, retries=1, mp_context="fork"
        )
        assert [r["value"] for r in runner.run(specs(3))] == [0, 2, 4]
        assert runner.stats.retried == 2
        assert runner.stats.executed == 3

    def test_unsent_points_give_up_once_retries_are_spent(self, monkeypatch):
        self._submit_breaks(monkeypatch, lambda call: call >= 2)
        runner = ExperimentRunner(
            jobs=2, execute=_double, retries=2, mp_context="fork"
        )
        with pytest.raises(WorkerCrashError, match="giving up"):
            runner.run(specs(3))
        # points 1 and 2 never reach a worker: two retries each
        assert runner.stats.retried == 4
        assert runner.stats.executed == 1

    def test_deterministic_exception_is_not_retried(self):
        runner = ExperimentRunner(
            jobs=2, execute=_fail_deterministically, retries=2, mp_context="fork"
        )
        with pytest.raises(ValueError, match="bad spec"):
            runner.run(specs(2))
        assert runner.stats.retried == 0

    def test_workers_inherit_the_engine(self):
        """A forked worker finds the per-cycle engine already imported
        when its first spec starts (a fresh interpreter, so nothing else
        has imported it)."""
        probe = textwrap.dedent(
            """
            import sys
            from repro.exp.runner import ExperimentRunner

            def loaded(spec):
                return {"engine": "repro.noc.vector" in sys.modules}

            if __name__ == "__main__":
                assert "repro.noc.vector" not in sys.modules
                runner = ExperimentRunner(jobs=2, execute=loaded, mp_context="fork")
                results = runner.run([{"i": 0}, {"i": 1}])
                sys.exit(0 if all(r["engine"] for r in results) else 1)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=120)
        assert done.returncode == 0


class TestInlineCollection:
    """An inline point's reference cycles are reclaimed by the runner
    itself, scanning only what the point allocated."""

    def test_network_is_reclaimed_without_a_caller_collect(self):
        from repro.api import load_preset
        from repro.exp.tasks import sweep_point_spec
        from repro.noc.network import Network

        preset = load_preset("baseline")
        spec = sweep_point_spec(
            preset.topology, preset.config, "upp", "uniform_random", 0.02,
            warmup=50, measure=150, upp_cfg=preset.upp_config,
        )
        # networks earlier tests left behind stay referenced (and alive)
        # here, so none of them can be mistaken for this run's
        before = [obj for obj in gc.get_objects() if isinstance(obj, Network)]
        ExperimentRunner(jobs=1).run([spec])
        left = [
            obj
            for obj in gc.get_objects()
            if isinstance(obj, Network) and not any(obj is old for old in before)
        ]
        assert not left

    def test_callers_frozen_generation_is_left_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            ExperimentRunner(jobs=1, execute=_double).run(specs(2))
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_gc_is_unfrozen_after_a_failing_point(self):
        assert gc.get_freeze_count() == 0
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=1, execute=_fail_deterministically).run(specs(1))
        assert gc.get_freeze_count() == 0


class TestDefaultRunner:
    """Env configuration lives in repro.api.make_runner, nowhere else."""

    def test_make_runner_reads_env_without_warning(self, monkeypatch, tmp_path):
        import warnings

        from repro import api

        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = api.make_runner()
        assert runner.jobs == 3
        assert runner.cache is not None
        assert runner.cache.root == tmp_path

    def test_env_defaults_to_serial_uncached(self, monkeypatch):
        from repro import api

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        runner = api.make_runner()
        assert runner.jobs == 1
        assert runner.cache is None

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_env_job_count_names_the_variable(self, monkeypatch, value):
        from repro import api

        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match=f"REPRO_JOBS.*'{value}'"):
            api.make_runner()

    def test_library_sweep_path_does_not_warn(self, monkeypatch):
        """run_sweep without runner= reads the env in repro.api and
        warns about nothing."""
        import warnings

        from repro import api

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        built = []
        real_make_runner = api.make_runner

        def make_runner(*args, **kwargs):
            built.append(real_make_runner(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(api, "make_runner", make_runner)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            points = api.run_sweep(
                "baseline", "upp", rates=(0.01,), warmup=10, measure=40
            )
        assert len(points) == 1
        assert [runner.jobs for runner in built] == [1]

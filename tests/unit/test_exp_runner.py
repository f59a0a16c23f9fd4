"""Tests for the process-parallel experiment runner: ordering, caching,
early-stop semantics, progress reporting and crash retry.

The crash tests inject module-level executor functions (picklable by
reference) and force the ``fork`` start method so workers inherit this
already-imported module; they are skipped where fork is unavailable.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
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
        runner = ExperimentRunner(
            jobs=2, execute=_always_crash, retries=1, mp_context="fork"
        )
        with pytest.raises(WorkerCrashError, match="giving up"):
            runner.run(specs(1))
        assert runner.stats.retried == 1

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

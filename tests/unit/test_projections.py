"""The plain-dict projections and file writes a warm service job runs.

``sweep_to_rows`` and ``RunnerStats.as_dict`` read their fields directly
instead of through ``dataclasses.asdict``; ``JobQueue.persist`` and
``ResultCache`` write and read bytes on string paths.  None of it may
change a key, a key order, a value or a byte: the files under
``tests/golden/`` were written by the text-mode writers these replaced,
and must read back unchanged and be rewritten byte for byte.
"""

import dataclasses
import json
import math
import shutil
import types
from pathlib import Path

import pytest

from repro.exp.cache import ResultCache
from repro.exp.runner import RunnerStats
from repro.service.queue import JobQueue
from repro.sim.experiment import SweepPoint, sweep_to_rows

GOLDEN = Path(__file__).parent.parent / "golden"
QUEUE_FILE = GOLDEN / "queue_job.json"
CACHE_FILE = GOLDEN / "cache_entry.json"


def ordered(value) -> str:
    """JSON text that keeps dict key order (no ``sort_keys``)."""
    return json.dumps(value)


class TestRowProjections:
    POINTS = [
        SweepPoint(0.02, 31.25, 27.5, 3.75, 0.1 + 0.2, False, 0),
        SweepPoint(0.04, 1e-7, 123456.789, -0.0, 1 / 3, True, 17),
        SweepPoint(0.5, math.inf, 1e300, 0.0, 0.0, True, 2**40),
    ]

    def test_sweep_rows_are_asdict_in_key_order(self):
        rows = sweep_to_rows(self.POINTS)
        expected = [dataclasses.asdict(p) for p in self.POINTS]
        assert rows == expected
        assert ordered(rows) == ordered(expected)
        assert sweep_to_rows([]) == []

    def test_sweep_rows_are_fresh_dicts(self):
        rows = sweep_to_rows(self.POINTS[:1])
        rows[0]["latency"] = -1.0
        assert self.POINTS[0].latency == 31.25

    @pytest.mark.parametrize("stats", [RunnerStats(), RunnerStats(5, 2, 3, 1, 4)])
    def test_runner_stats_as_dict_is_asdict_in_key_order(self, stats):
        assert ordered(stats.as_dict()) == ordered(dataclasses.asdict(stats))


class TestFileBytes:
    def test_queue_file_reads_back_and_rewrites_identically(self, tmp_path):
        golden = QUEUE_FILE.read_bytes()
        job_id = json.loads(golden)["id"]
        shutil.copy(QUEUE_FILE, tmp_path / f"{job_id}.json")
        queue = JobQueue(tmp_path)
        assert queue.corrupt == 0
        job = queue.get(job_id)
        assert job.to_dict() == json.loads(golden)
        queue.persist(job)
        assert (tmp_path / f"{job_id}.json").read_bytes() == golden
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{job_id}.json"]

    def test_cache_entry_reads_back_and_rewrites_identically(
        self, tmp_path, monkeypatch
    ):
        golden = CACHE_FILE.read_bytes()
        stored = json.loads(golden)
        key = stored["key"]
        cache = ResultCache(tmp_path)
        path = cache.path_for(key)
        path.parent.mkdir()
        shutil.copy(CACHE_FILE, path)
        entry = cache.get(key)
        assert entry == stored
        assert (cache.hits, cache.corrupt) == (1, 0)

        # the same entry, stored again at the moment it was first stored
        monkeypatch.setattr("repro.exp.cache._git_rev_cache", stored["git_rev"])
        monkeypatch.setattr(
            "repro.exp.cache.time",
            types.SimpleNamespace(time=lambda: stored["created_unix"] + 0.9),
        )
        path.unlink()
        assert Path(cache.put(key, entry["spec"], entry["result"])) == path
        assert path.read_bytes() == golden
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

"""Tests for the pluggable cache backends: protocol conformance, tiered
read-fill/write-through flow, and runner/api integration."""

import pytest

from repro.exp import ExperimentRunner
from repro.exp.backends import (
    CacheBackend,
    MemoryBackend,
    TieredBackend,
)
from repro.exp.cache import ResultCache, cache_key

SPEC = {"kind": "sweep_point", "scheme": "upp", "pattern": "uniform_random",
        "rate": 0.05, "topology": "baseline"}


def backends(tmp_path):
    return [
        ResultCache(tmp_path / "dir"),
        MemoryBackend(),
        TieredBackend(ResultCache(tmp_path / "l1"), ResultCache(tmp_path / "l2")),
        TieredBackend(ResultCache(tmp_path / "l1m"), MemoryBackend()),
        TieredBackend(MemoryBackend(), MemoryBackend()),
    ]


class TestProtocolConformance:
    def test_every_backend_satisfies_the_protocol(self, tmp_path):
        for backend in backends(tmp_path):
            assert isinstance(backend, CacheBackend)

    @pytest.mark.parametrize("index", range(5))
    def test_get_put_entries_gc_round_trip(self, tmp_path, index):
        backend = backends(tmp_path)[index]
        key = cache_key(SPEC)
        assert backend.get(key) is None
        backend.put(key, SPEC, {"latency": 31.2})
        entry = backend.get(key)
        assert entry["result"] == {"latency": 31.2}
        assert entry["spec"] == SPEC
        rows = backend.entries()
        assert [row["key"] for row in rows] == [key]
        assert rows[0]["scheme"] == "upp"
        assert rows[0]["kind"] == "sweep_point"
        assert rows[0]["bytes"] > 0
        assert rows[0]["mtime_unix"] > 0
        assert backend.gc(drop_all=True) >= 1
        assert backend.entries() == []

    @pytest.mark.parametrize("index", range(5))
    def test_stats_are_jsonable_and_counted(self, tmp_path, index):
        import json

        backend = backends(tmp_path)[index]
        backend.get(cache_key(SPEC))  # miss
        stats = backend.stats()
        json.dumps(stats)  # must serialise for GET /v1/stats
        assert stats["backend"] in ("dir", "memory", "tiered")


class TestMemoryBackend:
    def test_hit_miss_counters(self):
        backend = MemoryBackend()
        key = cache_key(SPEC)
        backend.get(key)
        backend.put(key, SPEC, {"x": 1})
        backend.get(key)
        assert (backend.hits, backend.misses) == (1, 1)

    @pytest.mark.parametrize("index", range(5))
    def test_entries_are_independent_json_copies(self, tmp_path, index):
        """Every backend behaves like the on-disk one: a caller editing
        what it stored or what it got back never edits the cache, and
        tuples come back as lists."""
        backend = backends(tmp_path)[index]
        key = cache_key(SPEC)
        result = {"runtime": 248, "series": (1, 2)}
        backend.put(key, SPEC, result)
        result["runtime"] = -2
        first = backend.get(key)
        assert first["result"] == {"runtime": 248, "series": [1, 2]}
        first["result"]["runtime"] = -1
        assert backend.get(key)["result"]["runtime"] == 248

    def test_gc_by_age(self):
        backend = MemoryBackend()
        key = cache_key(SPEC)
        backend.put(key, SPEC, {"x": 1})
        assert backend.gc(max_age_days=1) == 0
        backend._entries[key]["created_unix"] = 0  # 1970: ancient
        assert backend.gc(max_age_days=1) == 1


class TestTieredBackend:
    def test_put_writes_through_to_both_tiers(self):
        l1, l2 = MemoryBackend(), MemoryBackend()
        tiered = TieredBackend(l1, l2)
        key = cache_key(SPEC)
        tiered.put(key, SPEC, {"x": 1})
        assert l1.get(key)["result"] == {"x": 1}
        assert l2.get(key)["result"] == {"x": 1}

    def test_l2_hit_fills_l1(self):
        l1, l2 = MemoryBackend(), MemoryBackend()
        tiered = TieredBackend(l1, l2)
        key = cache_key(SPEC)
        l2.put(key, SPEC, {"x": 1})  # only the remote tier has it
        assert tiered.get(key)["result"] == {"x": 1}
        assert tiered.l2_hits == 1
        assert tiered.fills == 1
        # now local: the next read never reaches L2
        assert tiered.get(key)["result"] == {"x": 1}
        assert tiered.l1_hits == 1
        assert l2.hits == 1

    def test_miss_counts_once(self):
        tiered = TieredBackend(MemoryBackend(), MemoryBackend())
        assert tiered.get(cache_key(SPEC)) is None
        assert tiered.stats()["misses"] == 1

    def test_entries_union_prefers_l1(self):
        l1, l2 = MemoryBackend(), MemoryBackend()
        tiered = TieredBackend(l1, l2)
        key_a, key_b = cache_key(SPEC), cache_key({**SPEC, "rate": 0.07})
        tiered.put(key_a, SPEC, {"x": 1})         # in both
        l2.put(key_b, {**SPEC, "rate": 0.07}, 2)  # l2-only
        assert {row["key"] for row in tiered.entries()} == {key_a, key_b}


def _double(spec):
    return {"i": spec["i"], "value": spec["i"] * 2}


def _specs(n):
    return [{"kind": "test", "i": i} for i in range(n)]


class TestRunnerWithBackends:
    def test_memory_backend_warm_run_executes_nothing(self):
        backend = MemoryBackend()
        cold = ExperimentRunner(jobs=1, cache=backend, execute=_double)
        first = cold.run(_specs(3))
        warm = ExperimentRunner(jobs=1, cache=backend, execute=_double)
        assert warm.run(_specs(3)) == first
        assert warm.stats.executed == 0
        assert warm.stats.cached == 3

    def test_tiered_backend_shares_results_via_remote(self, tmp_path):
        """Two 'machines' (separate local dirs) fronting one remote tier:
        the second machine's run simulates nothing."""
        remote = MemoryBackend()
        machine_a = TieredBackend(ResultCache(tmp_path / "a"), remote)
        machine_b = TieredBackend(ResultCache(tmp_path / "b"), remote)
        first = ExperimentRunner(jobs=1, cache=machine_a, execute=_double).run(_specs(3))
        warm = ExperimentRunner(jobs=1, cache=machine_b, execute=_double)
        assert warm.run(_specs(3)) == first
        assert warm.stats.executed == 0
        assert machine_b.l2_hits == 3
        assert machine_b.fills == 3
        # and b's own dir now holds the fills: a third run is all-L1
        again = ExperimentRunner(jobs=1, cache=machine_b, execute=_double)
        again.run(_specs(3))
        assert machine_b.l1_hits == 3


class TestApiCachePlumbing:
    def test_make_runner_accepts_backend_object(self):
        from repro import api

        backend = MemoryBackend()
        runner = api.make_runner(cache=backend)
        assert runner.cache is backend

    def test_make_runner_rejects_cache_and_cache_dir(self, tmp_path):
        from repro import api

        with pytest.raises(ValueError, match="not both"):
            api.make_runner(cache_dir=tmp_path, cache=MemoryBackend())

    def test_run_sweep_rejects_runner_plus_cache(self):
        from repro import api

        with pytest.raises(ValueError, match="not both"):
            api.run_sweep(
                "baseline", rates=(0.01,),
                runner=ExperimentRunner(jobs=1), cache=MemoryBackend(),
            )

    def test_make_cache_shapes(self, tmp_path, monkeypatch):
        from repro import api

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert api.make_cache() is None
        assert isinstance(api.make_cache(tmp_path), ResultCache)
        tiered = api.make_cache(tmp_path, tiered=True)
        assert isinstance(tiered, TieredBackend)
        assert isinstance(tiered.l2, MemoryBackend)

    def test_multi_scheme_comparison_leaves_cached_results_alone(self):
        """Normalising must not rewrite the runner's (here: the cache's)
        result dicts — neither earlier returns nor later single-scheme
        calls may see another call's normalisation."""
        from repro import api

        mem = MemoryBackend()

        def run(schemes):
            return api.run_workload(
                "baseline", "blackscholes", schemes, scale=0.05, cache=mem
            )

        first = run(("composable", "upp"))
        upp_ratio = first["upp"]["normalized_runtime"]
        assert upp_ratio != 1.0
        swapped = run(("upp", "composable"))
        assert swapped["upp"]["normalized_runtime"] == 1.0
        assert first["upp"]["normalized_runtime"] == upp_ratio
        assert "normalized_runtime" not in run("upp")["upp"]

    def test_editing_a_result_does_not_edit_the_memory_cache(self):
        from repro import api

        mem = MemoryBackend()

        def run():
            return api.run_workload(
                "baseline", "blackscholes", "upp", scale=0.05, cache=mem
            )["upp"]

        first = run()
        runtime = first["runtime"]
        first["runtime"] = -1
        assert run()["runtime"] == runtime

    def test_empty_scheme_list_names_schemes(self):
        from repro import api

        with pytest.raises(ValueError, match="schemes"):
            api.run_workload("baseline", "blackscholes", schemes=(), scale=0.05)

"""Tests for the content-addressed result cache and its key derivation."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.exp.cache import CODE_VERSION, ResultCache, cache_key, git_revision

SPEC = {"kind": "sweep_point", "scheme": "upp", "pattern": "uniform_random",
        "rate": 0.05, "topology": "baseline"}


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(SPEC) == cache_key(dict(SPEC))

    def test_key_order_is_irrelevant(self):
        reordered = dict(reversed(list(SPEC.items())))
        assert cache_key(SPEC) == cache_key(reordered)

    def test_sensitive_to_spec_content(self):
        assert cache_key(SPEC) != cache_key({**SPEC, "rate": 0.06})

    def test_embeds_code_identity(self, monkeypatch):
        base = cache_key(SPEC)
        monkeypatch.setattr("repro.exp.cache.CODE_VERSION", CODE_VERSION + "-x")
        assert cache_key(SPEC) != base

    def test_embeds_git_revision(self, monkeypatch):
        base = cache_key(SPEC)
        monkeypatch.setattr("repro.exp.cache._git_rev_cache", "deadbeef")
        assert cache_key(SPEC) != base

    def test_git_revision_shape(self):
        rev = git_revision()
        assert rev == "unknown" or len(rev.split("-")[0]) == 40


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(SPEC)
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, SPEC, {"latency": 31.2})
        entry = cache.get(key)
        assert entry["result"] == {"latency": 31.2}
        assert entry["spec"] == SPEC
        assert cache.hits == 1

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(SPEC)
        path = cache.put(key, SPEC, {"x": 1})
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"

    def test_corrupt_entry_is_a_self_healing_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(SPEC)
        path = cache.put(key, SPEC, {"x": 1})
        path.write_text("{ truncated json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert not path.exists()
        # the slot can be refilled and read back normally
        cache.put(key, SPEC, {"x": 2})
        assert cache.get(key)["result"] == {"x": 2}

    def test_concurrent_puts_of_one_key_both_succeed(self, tmp_path, monkeypatch):
        """Two writers of one key (two service workers, or two processes
        on one cache dir) each rename a temp file of their own.  Sharing
        ``<key>.tmp``, the second writer's rename consumed the file and
        the first raised FileNotFoundError."""
        cache = ResultCache(tmp_path)
        key = cache_key(SPEC)
        at_rename, resume = threading.Event(), threading.Event()
        real_replace = os.replace
        errors = []

        def paused_replace(src, dst):
            if threading.current_thread() is first:
                at_rename.set()
                assert resume.wait(timeout=30)
            real_replace(src, dst)

        def first_writer():
            try:
                cache.put(key, SPEC, {"x": 1})
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        monkeypatch.setattr("repro.exp.cache.os.replace", paused_replace)
        first = threading.Thread(target=first_writer)
        first.start()
        assert at_rename.wait(timeout=30)  # first has written, not yet renamed
        cache.put(key, SPEC, {"x": 2})     # second writes and renames meanwhile
        resume.set()
        first.join(timeout=30)

        assert errors == []
        assert cache.get(key)["result"] == {"x": 1}  # last rename wins, whole
        assert cache.corrupt == 0
        assert [p.name for p in cache.path_for(key).parent.iterdir()] == [
            f"{key}.json"
        ]

    def test_entry_with_wrong_key_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(SPEC)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"key": "not-the-key", "result": {"x": 1}}),
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_entries_listing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key(SPEC), SPEC, {"x": 1})
        other = {**SPEC, "rate": 0.07}
        cache.put(cache_key(other), other, {"x": 2})
        rows = cache.entries()
        assert len(rows) == 2
        assert all(row["kind"] == "sweep_point" for row in rows)
        assert any("0.07" in row["label"] for row in rows)

    def test_gc_drop_all(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key(SPEC), SPEC, {"x": 1})
        assert cache.gc(drop_all=True) == 1
        assert cache.entries() == []
        # empty shard directories are pruned
        assert list(tmp_path.iterdir()) == []

    def test_gc_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(SPEC)
        path = cache.put(key, SPEC, {"x": 1})
        assert cache.gc(max_age_days=1) == 0  # fresh entry survives
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["created_unix"] = 0  # 1970: ancient
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.gc(max_age_days=1) == 1

    def test_gc_collects_temp_files_of_dead_writers_only(self, tmp_path):
        """A writer killed between write and rename leaves
        ``<key>.<pid>-<tid>.tmp``; gc drops it once that pid is gone and
        never touches the temp file of a writer still running."""
        cache = ResultCache(tmp_path)
        path = cache.put(cache_key(SPEC), SPEC, {"x": 1})
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=30)
        dead = path.with_suffix(f".{child.pid}-1.tmp")
        live = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        lone = tmp_path / "zz" / f"{'f' * 64}.{child.pid}-2.tmp"  # a shard of its own
        lone.parent.mkdir()
        for tmp in (dead, live, lone):
            tmp.write_text('{"key": "half-writ', encoding="utf-8")

        assert cache.gc(max_age_days=1) == 0  # entries are counted, temps not
        assert not dead.exists() and not lone.exists()
        assert not lone.parent.exists()  # its shard held nothing else
        assert live.exists() and path.exists()
        assert cache.gc(drop_all=True) == 1
        assert live.exists()  # its writer may still rename it

    def test_gc_removes_corrupt_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(cache_key(SPEC), SPEC, {"x": 1})
        path.write_text("garbage", encoding="utf-8")
        assert cache.gc(max_age_days=10_000) == 1


class TestCacheCli:
    def test_cache_ls_and_gc(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = ResultCache(tmp_path)
        cache.put(cache_key(SPEC), SPEC, {"x": 1})
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entry" in out
        assert "upp/uniform_random@0.05" in out
        assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--all"]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert ResultCache(tmp_path).entries() == []

    def test_cache_requires_a_directory(self, monkeypatch):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["cache", "ls"])

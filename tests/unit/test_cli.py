"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_retired_bench_subcommand_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.scheme == "upp"
        assert args.pattern == "uniform_random"
        assert args.vcs == 1
        assert args.jobs is None
        assert args.cache_dir is None
        assert args.expect_cached is False

    def test_sweep_runner_options(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "4", "--cache-dir", "/tmp/c", "--expect-cached"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.expect_cached is True

    def test_scheme_choices_come_from_registry(self):
        from repro.schemes.registry import scheme_names

        parser = build_parser()
        for name in scheme_names():
            assert parser.parse_args(["sweep", "--scheme", name]).scheme == name
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--scheme", "frobnicate"])

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "ls", "--cache-dir", "/tmp/c"])
        assert args.action == "ls"
        assert args.cache_dir == "/tmp/c"
        args = build_parser().parse_args(
            ["cache", "gc", "--cache-dir", "/tmp/c", "--max-age-days", "7"]
        )
        assert args.action == "gc"
        assert args.max_age_days == 7.0
        assert args.all is False
        args = build_parser().parse_args(["cache", "gc", "--max-age-days", "0"])
        assert args.max_age_days == 0.0

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "frobnicate"])

    def test_cache_ls_json_flag(self):
        args = build_parser().parse_args(
            ["cache", "ls", "--cache-dir", "/tmp/c", "--json"]
        )
        assert args.json is True
        assert build_parser().parse_args(["cache", "ls"]).json is False

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.workers == 2
        assert args.retries == 2
        assert args.tiered is False
        assert args.cache_dir is None

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--queue-dir", "/tmp/q",
             "--cache-dir", "/tmp/c", "--tiered", "--jobs", "4",
             "--workers", "3", "--retries", "5"]
        )
        assert args.port == 9000
        assert args.queue_dir == "/tmp/q"
        assert args.cache_dir == "/tmp/c"
        assert args.tiered is True
        assert args.jobs == 4
        assert args.workers == 3
        assert args.retries == 5

    def test_workload_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "not_a_benchmark"])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.preset == "baseline"
        assert args.scheme == "all"
        assert args.faults == 0
        assert args.seed == 2022
        assert args.witnesses == 0

    def test_check_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--preset", "tiny"])

    def test_check_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--scheme", "magic"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "routers        : 80" in out
        assert "modular/upp" in out

    def test_info_large(self, capsys):
        assert main(["info", "--topology", "large"]) == 0
        assert "routers        : 160" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "135,093" in out
        assert "upp" in out

    def test_sweep_small(self, capsys):
        code = main(["sweep", "--rates", "0.02", "--warmup", "200", "--measure", "600"])
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation throughput" in out

    def test_sweep_at_a_threshold_above_the_default_ack_timeout(self, capsys):
        argv = ["sweep", "--threshold", "1000", "--rates", "0.02",
                "--warmup", "100", "--measure", "300"]
        assert main(argv) == 0
        assert "saturation throughput" in capsys.readouterr().out

    def test_sweep_cold_then_warm_cache(self, capsys, tmp_path):
        argv = ["sweep", "--rates", "0.02", "--warmup", "200", "--measure", "600",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 from cache" in out
        # warm replay: every point must come from the cache
        assert main(argv + ["--expect-cached"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 1 from cache" in out

    def test_cache_ls_json_machine_readable(self, capsys, tmp_path):
        import json

        argv = ["sweep", "--rates", "0.02", "--warmup", "200", "--measure", "600",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["root"] == str(tmp_path)
        (row,) = payload["entries"]
        assert row["kind"] == "sweep_point"
        assert row["scheme"] == "upp"
        assert row["label"] == "upp/uniform_random@0.02 on baseline"
        assert len(row["key"]) == 64  # sha256 fingerprint
        assert row["bytes"] > 0
        assert row["mtime_unix"] > 0

    def test_cache_ls_labels_parameter_topologies(self, capsys, tmp_path):
        """An alias's dict prints as the alias; any other topology as its
        non-default parameters."""
        import json

        from repro.exp.cache import ResultCache
        from repro.exp.tasks import sweep_point_spec
        from repro.noc.config import NocConfig

        cache = ResultCache(tmp_path)
        for key, topology in (("a", {"chiplet_grid": [2, 4], "interposer_shape": [4, 8]}),
                              ("b", {"boundary_per_chiplet": 2}),
                              ("c", {"faults": 5, "fault_seed": 11})):
            spec = sweep_point_spec(topology, NocConfig(), "upp", "transpose", 0.1, 1, 1)
            cache.put(key * 64, spec, {"x": 1})
        assert main(["cache", "ls", "--cache-dir", str(tmp_path), "--json"]) == 0
        labels = {row["key"][0]: row["label"]
                  for row in json.loads(capsys.readouterr().out)["entries"]}
        assert labels == {
            "a": "upp/transpose@0.1 on large",
            "b": "upp/transpose@0.1 on system(boundary_per_chiplet=2)",
            "c": "upp/transpose@0.1 on system(faults=5, fault_seed=11)",
        }

    @pytest.mark.parametrize("topology, argv", [
        ("mc-2x1", ["sweep", "--rates", "0.01"]),
        ("mc-2x2", ["workload", "blackscholes"]),
    ])
    def test_preset_less_topology_rejected_by_argparse(self, capsys, topology, argv):
        """sweep / workload resolve --topology through a Table II preset, so
        only topologies with one are choices (info keeps every alias)."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--topology", topology])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        args = build_parser().parse_args(["info", "--topology", topology])
        assert args.topology == topology

    @pytest.mark.parametrize("age", ["-1", "nan", "inf"])
    def test_cache_gc_rejects_non_finite_or_negative_age(self, capsys, tmp_path, age):
        from repro.exp.cache import ResultCache

        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"kind": "sweep_point", "scheme": "upp"}, {"x": 1})
        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", "--cache-dir", str(tmp_path), "--max-age-days", age])
        assert exc.value.code == 2
        assert "--max-age-days" in capsys.readouterr().err
        assert len(cache.entries()) == 1  # cache untouched

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rates", "1.5"),
            ("--rates", "0"),
            ("--rates", "0.01,abc"),
            ("--rates", "nan"),
            ("--warmup", "-1"),
            ("--measure", "0"),
        ],
    )
    def test_sweep_rejects_out_of_range_window_or_rate(
        self, capsys, tmp_path, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", flag, value, "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.rglob("*.json"))  # nothing cached

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--threshold", "-5"],
            ["sweep", "--threshold", "0"],
            ["sweep", "--jobs", "0"],
            ["workload", "canneal", "--scale", "-1"],
            ["workload", "canneal", "--scale", "0"],
            ["workload", "canneal", "--scale", "nan"],
            ["workload", "canneal", "--scale", "inf"],
            ["workload", "canneal", "--jobs", "-2"],
            ["check", "--faults", "-1"],
            ["check", "--witnesses", "-2"],
            ["serve", "--jobs", "0"],
            ["serve", "--jobs", "-2"],
            ["serve", "--workers", "0"],
            ["serve", "--retries", "-1"],
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
        ],
    )
    def test_out_of_range_option_is_an_argparse_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_option_floors_accepted(self):
        parse = build_parser().parse_args
        assert parse(["sweep", "--threshold", "1", "--jobs", "1"]).threshold == 1
        assert parse(["workload", "canneal", "--scale", "1e-3"]).scale == 1e-3
        check = parse(["check", "--faults", "0", "--witnesses", "0"])
        assert (check.faults, check.witnesses) == (0, 0)
        serve = parse(["serve", "--port", "0", "--retries", "0", "--workers", "1"])
        assert (serve.port, serve.retries, serve.workers) == (0, 0, 1)
        assert parse(["serve", "--port", "65535"]).port == 65535

    def test_sweep_parses_rates_and_windows(self):
        args = build_parser().parse_args(
            ["sweep", "--rates", "0.01,1", "--warmup", "0", "--measure", "1"]
        )
        assert args.rates == [0.01, 1.0]
        assert (args.warmup, args.measure) == (0, 1)

    def test_cache_gc_removes_only_entries_older_than_age(self, capsys, tmp_path):
        import json
        import time

        from repro.exp.cache import ResultCache

        cache = ResultCache(tmp_path)
        old = cache.put("ab" * 32, {"kind": "sweep_point"}, {"x": 1})
        cache.put("cd" * 32, {"kind": "sweep_point"}, {"x": 2})
        entry = json.loads(old.read_text(encoding="utf-8"))
        entry["created_unix"] = int(time.time()) - 3 * 86400
        old.write_text(json.dumps(entry), encoding="utf-8")
        argv = ["cache", "gc", "--cache-dir", str(tmp_path), "--max-age-days", "2"]
        assert main(argv) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert [row["key"] for row in cache.entries()] == ["cd" * 32]

    def test_cache_dir_flag_overrides_env(self, capsys, monkeypatch, tmp_path):
        from repro.exp.cache import ResultCache

        env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
        ResultCache(env_dir).put("ab" * 32, {"kind": "sweep_point"}, {"x": 1})
        ResultCache(flag_dir).put("cd" * 32, {"kind": "sweep_point"}, {"x": 2})
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
        assert main(["cache", "ls", "--cache-dir", str(flag_dir)]) == 0
        out = capsys.readouterr().out
        assert "cdcdcdcdcdcdcdcd" in out
        assert "abababababababab" not in out
        assert f"1 entry in {flag_dir}" in out

    def test_cache_ls_reads_env_cache_dir(self, capsys, monkeypatch, tmp_path):
        from repro.exp.cache import ResultCache

        ResultCache(tmp_path).put("cd" * 32, {"kind": "sweep_point"}, {"x": 1})
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "cdcdcdcdcdcdcdcd" in out
        assert f"1 entry in {tmp_path}" in out

    def test_cache_without_dir_says_so(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit, match="no cache directory"):
            main(["cache", "ls"])

    def test_workload_small(self, capsys):
        code = main(["workload", "blackscholes", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "upp" in out and "composable" in out

    def test_check_witness_and_json_flags(self):
        args = build_parser().parse_args(["check", "--witness", "--json"])
        assert args.witness is True
        assert args.json is True
        args = build_parser().parse_args(["check"])
        assert args.witness is False and args.json is False

    def test_mc_defaults(self):
        args = build_parser().parse_args(["mc"])
        assert args.preset == "all"
        assert args.scheme == "all"
        assert args.max_states == 2_000_000
        assert args.replay is False
        assert args.select is False
        assert args.json is False

    def test_mc_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mc", "--preset", "baseline"])

    def test_mc_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mc", "--scheme", "magic"])


class TestAnalysisCommands:
    def test_check_json_machine_readable(self, capsys):
        import json

        assert main(["check", "--preset", "baseline", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-check/v1"
        assert payload["ok"] is True
        assert {c["scheme"] for c in payload["certificates"]} >= {"upp"}

    def test_mc_single_scheme_json(self, capsys):
        import json

        assert main(["mc", "--preset", "mc-2x1", "--scheme", "upp", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-mc/v1"
        assert payload["ok"] is True
        (row,) = payload["results"]
        assert row["agree"] is True
        assert row["certifier_ok"] is True
        assert row["explored_to_fixpoint"] is True

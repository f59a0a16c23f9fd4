"""Tests for the ``repro-job/v2`` wire schema and its single validator."""

import dataclasses

import pytest

from repro.exp.schemas import JOB_SCHEMA, JobSchemaError, job_kinds, validate_job
from repro.exp.tasks import execute_spec, sweep_point_spec, workload_spec
from repro.noc.config import NocConfig
from repro.traffic.workloads import get_workload


def workload_job(**profile_overrides):
    spec = workload_spec(
        "baseline", NocConfig(vcs_per_vnet=1), "upp",
        get_workload("blackscholes", scale=0.05),
    )
    spec["profile"].update(profile_overrides)
    return spec


def sweep_spec(**overrides):
    spec = sweep_point_spec(
        "baseline", NocConfig(vcs_per_vnet=1), "upp", "uniform_random",
        0.05, 200, 600,
    )
    spec.update(overrides)
    return spec


class TestSweepSpecs:
    """A sweep's specs share one canonicalised config half."""

    def test_hoisted_sweep_specs_equal_per_rate_specs(self):
        """What run_sweep hands the runner is, key for key (and cache
        key for cache key), what building every point on its own gives."""
        from repro import api
        from repro.exp.cache import cache_key
        from repro.exp.runner import ExperimentRunner

        rates = [0.01, 0.03, 0.05]
        seen = []

        def execute(spec):
            seen.append(spec)
            return {"rate": spec["rate"], "latency": 10.0, "network_latency": 8.0,
                    "queueing_latency": 2.0, "throughput": spec["rate"],
                    "deadlocked": False, "upward_packets": 0}

        preset = api.load_preset("baseline-4vc", threshold=100)
        api.run_sweep(preset, "upp", "transpose", rates, warmup=100,
                      measure=300, runner=ExperimentRunner(execute=execute))
        cfg, upp_cfg = preset.config, preset.upp_config
        assert [spec["rate"] for spec in seen] == rates
        for spec, rate in zip(seen, rates):
            alone = sweep_point_spec(
                "baseline", cfg, "upp", "transpose", rate, 100, 300,
                upp_cfg=upp_cfg,
            )
            assert spec == alone
            assert list(spec) == list(alone)
            assert cache_key(spec) == cache_key(alone)
            assert validate_job(spec) == spec
        # ... and what a point's spec has always been, written out
        assert seen[0] == {
            "schema": JOB_SCHEMA, "kind": "sweep_point",
            "topology": {
                "interposer_shape": [4, 4], "chiplet_shape": [4, 4],
                "chiplet_grid": [2, 2], "boundary_per_chiplet": 4,
                "boundary_coords": None, "faults": 0, "fault_seed": 0,
            },
            "cfg": dataclasses.asdict(cfg), "cfg_fingerprint": cfg.fingerprint(),
            "scheme": "upp", "upp_cfg": dataclasses.asdict(upp_cfg),
            "upp_cfg_fingerprint": upp_cfg.fingerprint(), "pattern": "transpose",
            "rate": 0.01, "warmup": 100, "measure": 300, "allow_deadlock": False,
        }

    def test_no_upp_config_stays_null(self):
        spec = sweep_point_spec(
            "baseline", NocConfig(), "none", "uniform_random", 0.02, 10, 20,
            allow_deadlock=True,
        )
        assert spec["upp_cfg"] is None and spec["upp_cfg_fingerprint"] is None
        assert spec["allow_deadlock"] is True


class TestOneKeyPerSimulation:
    """A spec carries the UPP config only for a scheme that reads it, so
    every spelling of one simulation gives one cache key."""

    @pytest.mark.parametrize("build", ["sweep", "workload"])
    def test_upp_default_config_and_none_share_a_key(self, build):
        from repro.core.config import UPPConfig
        from repro.exp.cache import cache_key

        def spec(upp_cfg):
            if build == "sweep":
                return sweep_point_spec(
                    "baseline", NocConfig(), "upp", "uniform_random", 0.05,
                    200, 600, upp_cfg=upp_cfg,
                )
            return workload_spec(
                "baseline", NocConfig(), "upp",
                get_workload("blackscholes", scale=0.05), upp_cfg=upp_cfg,
            )

        assert spec(None) == spec(UPPConfig())
        assert spec(None)["upp_cfg"] == UPPConfig().to_dict()
        assert cache_key(spec(None)) == cache_key(spec(UPPConfig()))
        assert cache_key(spec(None)) != cache_key(
            spec(UPPConfig(detection_threshold=100))
        )

    @pytest.mark.parametrize("scheme", ["composable", "remote_control", "none"])
    @pytest.mark.parametrize("threshold", [None, 20, 100])
    def test_schemes_that_ignore_the_upp_config_store_null(self, scheme, threshold):
        from repro.core.config import UPPConfig
        from repro.exp.cache import cache_key

        upp_cfg = None if threshold is None else UPPConfig(detection_threshold=threshold)
        spec = sweep_point_spec(
            "baseline", NocConfig(), scheme, "uniform_random", 0.02, 10, 20,
            upp_cfg=upp_cfg,
        )
        bare = sweep_point_spec(
            "baseline", NocConfig(), scheme, "uniform_random", 0.02, 10, 20,
        )
        assert spec["upp_cfg"] is None and spec["upp_cfg_fingerprint"] is None
        assert cache_key(spec) == cache_key(bare)

    def test_threshold_variants_of_composable_replay(self):
        """A composable sweep at another UPP threshold is the same
        simulation: the second call replays the first's point."""
        from repro import api
        from repro.exp import ExperimentRunner, MemoryBackend

        runner = ExperimentRunner(cache=MemoryBackend())
        first = api.run_sweep(
            api.load_preset("baseline", threshold=100), "composable",
            rates=(0.01,), warmup=40, measure=200, runner=runner,
        )
        again = api.run_sweep(
            "baseline", "composable", rates=(0.01,), warmup=40, measure=200,
            runner=runner,
        )
        assert again == first
        assert (runner.stats.executed, runner.stats.cached) == (1, 1)


class TestValidateJob:
    def test_real_sweep_spec_passes(self):
        spec = sweep_spec()
        assert spec["schema"] == JOB_SCHEMA
        assert validate_job(spec) == spec

    def test_real_workload_spec_passes(self):
        spec = workload_spec(
            "baseline", NocConfig(vcs_per_vnet=1), "upp",
            get_workload("blackscholes", scale=0.05),
        )
        assert validate_job(spec) == spec

    def test_returns_a_copy(self):
        spec = sweep_spec()
        validated = validate_job(spec)
        validated["rate"] = 0.09
        assert spec["rate"] == 0.05

    def test_non_mapping_rejected(self):
        with pytest.raises(JobSchemaError, match="JSON object"):
            validate_job([1, 2, 3])

    def test_missing_schema_tag_is_actionable(self):
        spec = sweep_spec()
        del spec["schema"]
        with pytest.raises(JobSchemaError, match=r'add "schema": "repro-job/v2"'):
            validate_job(spec)

    @pytest.mark.parametrize("schema", ["repro-job/v1", "repro-job/v99"])
    def test_foreign_schema_rejected(self, schema):
        with pytest.raises(JobSchemaError, match="this build speaks repro-job/v2"):
            validate_job(sweep_spec(schema=schema))

    def test_unknown_kind_suggests_close_match(self):
        with pytest.raises(JobSchemaError, match="did you mean 'sweep_point'"):
            validate_job(sweep_spec(kind="sweep_pont"))

    def test_missing_field_is_named(self):
        spec = sweep_spec()
        del spec["rate"]
        with pytest.raises(JobSchemaError, match="missing required field.*rate"):
            validate_job(spec)

    def test_unknown_field_rejected_with_suggestion(self):
        with pytest.raises(JobSchemaError, match="paterrn.*did you mean 'pattern'"):
            validate_job(sweep_spec(paterrn="uniform_random"))

    def test_unknown_field_lists_accepted_fields(self):
        with pytest.raises(JobSchemaError, match="accepts: .*pattern"):
            validate_job(sweep_spec(bogus=1))

    def test_wrong_type_is_named(self):
        with pytest.raises(JobSchemaError, match="'rate' must be an injection rate"):
            validate_job(sweep_spec(rate="fast"))

    @pytest.mark.parametrize("rate", [float("nan"), 2.0, -0.1, float("inf")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(JobSchemaError, match=r"'rate' must be an injection rate in \[0, 1\]"):
            validate_job(sweep_spec(rate=rate))

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_rate_interval_is_closed(self, rate):
        assert validate_job(sweep_spec(rate=rate))["rate"] == rate

    @pytest.mark.parametrize(
        "window", [{"warmup": -1}, {"measure": 0}, {"measure": -5}]
    )
    def test_sweep_window_outside_service_bounds_rejected(self, window):
        (field,) = window
        with pytest.raises(JobSchemaError, match=rf"'{field}' must be .* >= \d"):
            validate_job(sweep_spec(**window))

    def test_zero_warmup_accepted(self):
        assert validate_job(sweep_spec(warmup=0))["warmup"] == 0

    @pytest.mark.parametrize("max_cycles", [0, -1])
    def test_workload_without_cycle_budget_rejected(self, max_cycles):
        spec = workload_spec(
            "baseline", NocConfig(vcs_per_vnet=1), "upp",
            get_workload("blackscholes", scale=0.05), max_cycles=max_cycles,
        )
        with pytest.raises(JobSchemaError, match="'max_cycles' must be a cycle budget >= 1"):
            validate_job(spec)

    def test_profile_table_is_exactly_the_dataclass(self):
        from repro.exp.schemas import _PROFILE_FIELDS
        from repro.traffic.coherence import WorkloadProfile

        names = [field.name for field in dataclasses.fields(WorkloadProfile)]
        assert list(_PROFILE_FIELDS) == names

    @pytest.mark.parametrize("field, value", [
        ("issue_rate", 0), ("issue_rate", -0.1), ("issue_rate", 1.5),
        ("issue_rate", float("nan")), ("mlp", 0), ("mlp", 2.0),
        ("requests_per_core", 0), ("locality", 2.0), ("locality", -0.5),
        ("directory_fraction", 1.01), ("forward_fraction", float("nan")),
        ("name", 7), ("mlp", True),
    ])
    def test_bad_profile_value_names_the_field(self, field, value):
        with pytest.raises(JobSchemaError, match=rf"'profile\.{field}' must be"):
            validate_job(workload_job(**{field: value}))

    @pytest.mark.parametrize("field, value", [
        ("issue_rate", 1), ("locality", 0), ("forward_fraction", 1.0),
    ])
    def test_profile_interval_edges_accepted(self, field, value):
        spec = workload_job(**{field: value})
        assert validate_job(spec)["profile"][field] == value

    def test_unknown_or_missing_profile_key_rejected(self):
        spec = workload_job()
        spec["profile"]["isue_rate"] = spec["profile"].pop("issue_rate")
        with pytest.raises(
            JobSchemaError,
            match=r"'profile' is missing required field\(s\) issue_rate.*unknown field\(s\) isue_rate",
        ):
            validate_job(spec)

    def test_topology_table_is_exactly_the_parameters(self):
        from repro.exp.schemas import _TOPOLOGY_FIELDS
        from repro.topology.registry import DEFAULT_PARAMS

        assert list(_TOPOLOGY_FIELDS) == list(DEFAULT_PARAMS)

    @pytest.mark.parametrize("field, value", [
        ("interposer_shape", [0, 4]), ("chiplet_shape", [4, -1]),
        ("chiplet_grid", [2]), ("chiplet_grid", (2, 2)),
        ("boundary_per_chiplet", True), ("boundary_per_chiplet", 0),
        ("boundary_coords", [[0, True]]), ("boundary_coords", []),
        ("faults", -1), ("faults", 1.5), ("fault_seed", 1.5), ("fault_seed", "11"),
        ("fault_seed", None),
    ])
    def test_bad_topology_value_names_the_field(self, field, value):
        spec = sweep_spec()
        spec["topology"][field] = value
        with pytest.raises(JobSchemaError, match=rf"'topology\.{field}' must be"):
            validate_job(spec)

    def test_unknown_or_missing_topology_key_rejected(self):
        spec = sweep_spec()
        spec["topology"]["fault_sed"] = spec["topology"].pop("fault_seed")
        with pytest.raises(
            JobSchemaError,
            match=r"missing required field\(s\) fault_seed.*unknown field\(s\) fault_sed.*'fault_seed'",
        ):
            validate_job(spec)

    def test_topology_name_is_not_a_v2_topology(self):
        with pytest.raises(JobSchemaError, match="'topology' must be"):
            validate_job(sweep_spec(topology="baseline"))

    def test_faulty_topology_passes(self):
        spec = sweep_point_spec(
            {"faults": 5, "fault_seed": 11, "boundary_per_chiplet": 2},
            NocConfig(), "upp", "uniform_random", 0.05, 200, 600,
        )
        assert validate_job(spec) == spec

    @pytest.mark.parametrize("topology, field", [
        ({"chiplet_grid": [3, 3]}, "chiplet_grid"),
        ({"interposer_shape": [4, 6], "chiplet_grid": [2, 4]}, "chiplet_grid"),
        ({"faults": 1000}, "faults"),
        ({"faults": 46}, "faults"),  # each 4x4 layer can lose at most 9
        ({"boundary_per_chiplet": 3}, "boundary_per_chiplet"),
        ({"chiplet_shape": [3, 3]}, "chiplet_shape"),  # no canonical placement
        ({"boundary_coords": [[5, 5]]}, "boundary_coords"),
        ({"boundary_coords": [[0, 1], [0, 1]]}, "boundary_coords"),
        ({"interposer_shape": [2, 2], "boundary_per_chiplet": 8}, "boundary_per_chiplet"),
    ])
    def test_topology_that_cannot_build_names_the_field(self, topology, field):
        spec = sweep_point_spec(
            topology, NocConfig(), "upp", "uniform_random", 0.05, 200, 600
        )
        with pytest.raises(JobSchemaError, match=rf"'topology\.{field}' .* cannot build"):
            validate_job(spec)
        with pytest.raises(JobSchemaError, match=rf"'topology\.{field}'"):
            execute_spec(spec)

    def test_most_faults_the_layers_can_lose_pass(self):
        spec = sweep_point_spec(
            {"faults": 45}, NocConfig(), "upp", "uniform_random", 0.05, 200, 600
        )
        assert validate_job(spec) == spec

    def test_bool_does_not_pass_as_integer(self):
        with pytest.raises(JobSchemaError, match="'warmup'"):
            validate_job(sweep_spec(warmup=True))

    def test_kinds_listing(self):
        assert set(job_kinds()) == {"sweep_point", "workload"}


class TestRunnerIntegration:
    def test_execute_spec_validates_first(self):
        with pytest.raises(JobSchemaError, match="schema"):
            execute_spec({"kind": "sweep_point"})

    def test_execute_spec_rejects_unknown_kind(self):
        with pytest.raises(JobSchemaError, match="unknown job kind"):
            execute_spec({"schema": JOB_SCHEMA, "kind": "frobnicate"})

    @pytest.mark.parametrize("topology", [
        lambda: None, ("baseline",), 42,
    ], ids=["callable", "tuple", "int"])
    def test_topology_must_be_an_alias_or_parameter_dict(self, topology):
        """A topology callable cannot be a spec parameter: run_sweep
        names the dict form instead of running it off the runner."""
        from repro import api
        from repro.exp import ExperimentRunner

        preset = dataclasses.replace(api.load_preset("baseline"), topology=topology)
        with pytest.raises(TypeError, match="parameter dict"):
            api.run_sweep(
                preset, "upp", "uniform_random", rates=(0.01,),
                warmup=10, measure=10, runner=ExperimentRunner(jobs=1),
            )

    @pytest.mark.parametrize("topology", ["baseline", {"faults": 2, "fault_seed": 3}])
    def test_parameter_dict_points_pass_the_schema_gate(self, topology):
        from repro import api
        from repro.exp import ExperimentRunner

        preset = dataclasses.replace(api.load_preset("baseline"), topology=topology)
        with pytest.raises(JobSchemaError, match="'warmup' must be"):
            api.run_sweep(
                preset, "upp", "uniform_random", rates=(0.01,),
                warmup=-5, measure=10, runner=ExperimentRunner(jobs=1),
            )

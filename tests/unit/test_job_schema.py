"""Tests for the ``repro-job/v1`` wire schema and its single validator."""

import dataclasses

import pytest

from repro.exp.schemas import JOB_SCHEMA, JobSchemaError, job_kinds, validate_job
from repro.exp.tasks import execute_spec, sweep_point_spec, workload_spec
from repro.noc.config import NocConfig
from repro.traffic.workloads import get_workload


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
        """What latency_sweep hands the runner is, key for key (and cache
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
            "schema": JOB_SCHEMA, "kind": "sweep_point", "topology": "baseline",
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
        with pytest.raises(JobSchemaError, match=r'add "schema": "repro-job/v1"'):
            validate_job(spec)

    def test_foreign_schema_rejected(self):
        with pytest.raises(JobSchemaError, match="repro-job/v1"):
            validate_job(sweep_spec(schema="repro-job/v99"))

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
        with pytest.raises(JobSchemaError, match="'rate' must be injection rate"):
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
        with pytest.raises(JobSchemaError, match="warmup >= 0 and measure > 0"):
            validate_job(sweep_spec(**window))

    def test_zero_warmup_accepted(self):
        assert validate_job(sweep_spec(warmup=0))["warmup"] == 0

    @pytest.mark.parametrize("max_cycles", [0, -1])
    def test_workload_without_cycle_budget_rejected(self, max_cycles):
        spec = workload_spec(
            "baseline", NocConfig(vcs_per_vnet=1), "upp",
            get_workload("blackscholes", scale=0.05), max_cycles=max_cycles,
        )
        with pytest.raises(JobSchemaError, match="'max_cycles' must be positive"):
            validate_job(spec)

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

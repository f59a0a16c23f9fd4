"""Tests for the crash-safe persistent job queue and Job records."""

import dataclasses
import json

import pytest

from repro.service.jobs import QUEUE_JOB_SCHEMA, Job
from repro.service.queue import JobQueue
from repro.service.schemas import (
    job_fingerprint,
    validate_sweep_request,
    validate_workload_request,
)


def make_job(rate=0.01, submitted=None):
    request, fingerprint = job_fingerprint("sweep", {"rates": [rate]})
    job = Job.create("sweep", request, fingerprint)
    if submitted is not None:
        job.submitted_unix = submitted
    return job


class TestJob:
    def test_round_trips_through_dict(self):
        job = make_job()
        job.metrics = {"queue_wait_s": 0.5}
        data = job.to_dict()
        assert data["schema"] == QUEUE_JOB_SCHEMA
        assert Job.from_dict(json.loads(json.dumps(data))) == job

    def test_to_dict_is_asdict_plus_schema_tag(self):
        """to_dict reads the fields directly (no deep copy); the file
        form is still exactly asdict's, for a fresh and a finished job."""
        fresh, done = make_job(), make_job()
        done.state = "done"
        done.attempts = 1
        done.started_unix = done.finished_unix = done.submitted_unix + 1.5
        done.result = {"points": [{"rate": 0.01, "latency": 31.5}],
                       "saturation_throughput": 0.01}
        done.metrics = {"queue_wait_s": 0.0, "executed": 0, "cached": 1,
                        "deduped": False, "retried": 0}
        for job in (fresh, done):
            data = job.to_dict()
            assert data == {**dataclasses.asdict(job), "schema": QUEUE_JOB_SCHEMA}
            assert Job.from_dict(json.loads(json.dumps(data))) == job

    def test_foreign_schema_rejected(self):
        data = make_job().to_dict()
        data["schema"] = "repro-queue-job/v99"
        with pytest.raises(ValueError, match=QUEUE_JOB_SCHEMA):
            Job.from_dict(data)

    def test_unknown_state_rejected(self):
        data = make_job().to_dict()
        data["state"] = "paused"
        with pytest.raises(ValueError, match="unknown state"):
            Job.from_dict(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            Job.create("batch", {}, "f" * 64)

    def test_public_omits_result_body(self):
        job = make_job()
        job.result = {"points": [1, 2, 3]}
        assert "result" not in job.public()
        assert job.public()["state"] == "queued"


class TestQueueBasics:
    def test_submit_claim_fifo(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.submit(make_job(0.01, submitted=1.0))
        second = queue.submit(make_job(0.03, submitted=2.0))
        assert queue.pending() == 2
        assert queue.claim_next().id == first.id
        assert queue.claim_next().id == second.id
        assert queue.claim_next() is None
        assert first.state == "running"

    def test_duplicate_id_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(make_job())
        with pytest.raises(ValueError, match="duplicate"):
            queue.submit(job)

    def test_record_takes_a_finished_job_in_one_persist(self, tmp_path):
        """A job answered on the submit path is persisted once, through
        the instance's ``persist``, and never becomes pending."""
        queue = JobQueue(tmp_path)
        persisted = []
        real_persist = queue.persist
        queue.persist = lambda job: (persisted.append(job.state), real_persist(job))
        job = make_job()
        job.state = "done"
        job.result = {"points": []}
        assert queue.record(job) is job
        assert persisted == ["done"]
        assert queue.get(job.id) is job
        assert queue.pending() == 0 and queue.claim_next() is None
        with pytest.raises(ValueError, match="duplicate"):
            queue.record(job)

        reopened = JobQueue(tmp_path)
        assert reopened.get(job.id) == job
        assert reopened.pending() == 0 and reopened.recovered == 0

    def test_requeue_goes_to_front(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.submit(make_job(0.01, submitted=1.0))
        queue.submit(make_job(0.03, submitted=2.0))
        claimed = queue.claim_next()
        queue.requeue(claimed)
        assert claimed.requeues == 1
        assert claimed.started_unix is None
        assert queue.claim_next().id == first.id  # front, not back

    def test_states_persist_across_reopen(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(make_job())
        claimed = queue.claim_next()
        claimed.state = "done"
        claimed.result = {"points": []}
        queue.persist(claimed)

        reopened = JobQueue(tmp_path)
        again = reopened.get(job.id)
        assert again.state == "done"
        assert again.result == {"points": []}
        assert reopened.pending() == 0
        assert reopened.recovered == 0


class TestCrashRecovery:
    def test_running_job_is_requeued_on_load(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        claimed = queue.claim_next()
        assert claimed.state == "running"
        # simulate the process dying here: reopen from disk only

        recovered = JobQueue(tmp_path)
        assert recovered.recovered == 1
        job = recovered.get(claimed.id)
        assert job.state == "queued"
        assert job.requeues == 1
        assert recovered.claim_next().id == claimed.id

    def test_recovery_is_persisted(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        queue.claim_next()
        JobQueue(tmp_path)  # recovers and persists queued state

        third = JobQueue(tmp_path)
        assert third.recovered == 0  # nothing left mid-flight
        assert third.pending() == 1

    def test_corrupt_file_renamed_aside_not_deleted(self, tmp_path):
        queue = JobQueue(tmp_path)
        kept = queue.submit(make_job())
        (tmp_path / "deadbeef0000.json").write_text("{not json", encoding="utf-8")

        reopened = JobQueue(tmp_path)
        assert reopened.corrupt == 1
        assert reopened.get(kept.id) is not None
        assert (tmp_path / "deadbeef0000.corrupt").exists()
        assert not (tmp_path / "deadbeef0000.json").exists()

    def test_foreign_schema_file_counts_corrupt(self, tmp_path):
        data = make_job().to_dict()
        data["schema"] = "other/v1"
        (tmp_path / "aaaaaaaaaaaa.json").write_text(json.dumps(data), encoding="utf-8")
        queue = JobQueue(tmp_path)
        assert queue.corrupt == 1
        assert queue.jobs() == []


class TestRequestSchemas:
    def test_sweep_defaults_filled(self):
        request = validate_sweep_request({})
        assert request["preset"] == "baseline"
        assert request["scheme"] == "upp"
        assert request["rates"] == [0.01, 0.03, 0.05, 0.07, 0.09]

    def test_unknown_field_suggests(self):
        from repro.exp.schemas import JobSchemaError

        with pytest.raises(JobSchemaError, match="did you mean 'rates'"):
            validate_sweep_request({"ratess": [0.01]})

    def test_unknown_scheme_rejected_against_registry(self):
        from repro.exp.schemas import JobSchemaError

        with pytest.raises(JobSchemaError, match="unknown name 'teleport'"):
            validate_sweep_request({"scheme": "teleport"})

    @pytest.mark.parametrize("rate", [0.0, -0.01, 1.5, 1e308, float("inf")])
    def test_rate_outside_half_open_unit_interval_rejected(self, rate):
        from repro.exp.schemas import JobSchemaError

        with pytest.raises(JobSchemaError, match=r"injection rates in \(0, 1\]"):
            validate_sweep_request({"rates": [0.01, rate]})

    def test_rate_of_one_accepted(self):
        assert validate_sweep_request({"rates": [1]})["rates"] == [1.0]

    @pytest.mark.parametrize("threshold", [0, -5])
    def test_non_positive_threshold_rejected(self, threshold):
        from repro.exp.schemas import JobSchemaError

        with pytest.raises(JobSchemaError, match="'threshold' must be a positive"):
            validate_sweep_request({"threshold": threshold})

    @pytest.mark.parametrize("threshold", [None, 1])
    def test_threshold_floor_and_null_accepted(self, threshold):
        assert validate_sweep_request({"threshold": threshold})["threshold"] == threshold

    @pytest.mark.parametrize("latency", [float("nan"), 0, -1.0])
    def test_saturation_latency_must_be_positive(self, latency):
        from repro.exp.schemas import JobSchemaError

        with pytest.raises(JobSchemaError, match="'saturation_latency' must be positive"):
            validate_sweep_request({"saturation_latency": latency})

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0, -1.0])
    def test_workload_scale_must_be_finite_and_positive(self, scale):
        from repro.exp.schemas import JobSchemaError

        with pytest.raises(JobSchemaError, match="'scale'"):
            validate_workload_request({"scale": scale})

    def test_workload_defaults_filled(self):
        request = validate_workload_request({})
        assert request["workload"] == "canneal"
        assert request["schemes"] == ["composable", "remote_control", "upp"]

    def test_fingerprint_is_stable_under_field_order(self):
        _, fp_a = job_fingerprint("sweep", {"rates": [0.01], "warmup": 2000})
        _, fp_b = job_fingerprint("sweep", {"warmup": 2000, "rates": [0.01]})
        assert fp_a == fp_b

    def test_fingerprint_differs_for_different_requests(self):
        _, fp_a = job_fingerprint("sweep", {"rates": [0.01]})
        _, fp_b = job_fingerprint("sweep", {"rates": [0.03]})
        assert fp_a != fp_b


class TestServiceSettings:
    """Settings under which every job would fail are refused up front."""

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"retries": -1}, "retries must be >= 0"),
            ({"sim_jobs": 0}, "sim_jobs must be >= 1"),
            ({"sim_jobs": -2}, "sim_jobs must be >= 1"),
            ({"workers": 0}, "workers must be >= 1"),
        ],
    )
    def test_unusable_setting_rejected(self, tmp_path, setting, message):
        from repro.service.app import SweepService

        with pytest.raises(ValueError, match=message):
            SweepService(tmp_path / "queue", **setting)
        assert not (tmp_path / "queue").exists()

    def test_floor_settings_accepted(self, tmp_path):
        from repro.service.app import SweepService

        service = SweepService(tmp_path / "queue", retries=0, sim_jobs=1, workers=1)
        assert (service.retries, service.sim_jobs, service.workers) == (0, 1, 1)

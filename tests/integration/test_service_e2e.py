"""End-to-end tests for the sweep service (ISSUE 9 acceptance).

Covers: submit -> stream progress -> result bit-identical to a direct
``repro.api`` call; warm re-submission executing zero simulations via
the tiered backend (with the hit visible in ``GET /v1/stats``);
single-flight dedup of concurrent identical submissions; and
kill-and-restart queue resume.
"""

import threading
import time

import pytest

from repro import api
from repro.client import ServiceClient, ServiceError
from repro.exp.backends import MemoryBackend, TieredBackend
from repro.exp.cache import ResultCache
from repro.service import BackgroundService, Job, JobQueue
from repro.service import schemas as wire
from repro.sim.experiment import sweep_to_rows

RATES = [0.02, 0.04]
SWEEP = {"preset": "baseline", "scheme": "upp", "pattern": "uniform_random",
         "rates": RATES, "warmup": 200, "measure": 600}


def wait_done(client, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.job(job_id)
        if job["state"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {job['state']} after {timeout}s")


class TestServiceEndToEnd:
    def test_submit_stream_result_bit_identical_then_warm(self, tmp_path):
        cache = TieredBackend(ResultCache(tmp_path / "l1"), MemoryBackend())

        # the ground truth: the same request made directly through repro.api
        preset = api.load_preset("baseline", threshold=None)
        direct = api.run_sweep(
            preset, "upp", "uniform_random", RATES,
            warmup=200, measure=600, saturation_latency=200.0,
        )
        expected_rows = sweep_to_rows(direct)

        with BackgroundService(tmp_path / "queue", cache=cache) as svc:
            client = ServiceClient(port=svc.port)
            assert client.health()

            # --- cold: submit, stream progress, fetch the result
            job = client.submit_sweep(**SWEEP)
            assert job["state"] == "queued"
            progress = []
            done = client.wait(job["id"], on_progress=progress.append)
            assert done["state"] == "done"
            assert done["metrics"]["executed"] == len(RATES)
            assert progress, "no progress events streamed"
            assert progress[-1]["done"] == progress[-1]["total"] == len(RATES)
            assert all(p["source"] in ("run", "cache") for p in progress)

            result = client.result(job["id"])["result"]
            assert result["points"] == expected_rows  # bit-identical
            assert result["saturation_throughput"] == pytest.approx(
                api.saturation_throughput(direct)
            )

            # --- warm: same request again executes *zero* simulations
            warm = client.submit_sweep(**SWEEP)
            assert warm["id"] != job["id"]
            warm_done = client.wait(warm["id"])
            assert warm_done["metrics"]["executed"] == 0
            assert warm_done["metrics"]["cached"] == len(RATES)
            assert client.result(warm["id"])["result"]["points"] == expected_rows

            # --- and /v1/stats reports the cache hit
            stats = client.stats()
            assert stats["schema"] == "repro-service-stats/v1"
            assert stats["totals"]["completed"] == 2
            assert stats["totals"]["executed"] == len(RATES)
            assert stats["totals"]["cached"] == len(RATES)
            assert stats["cache"]["backend"] == "tiered"
            assert stats["cache"]["l1_hits"] >= len(RATES)

            # late subscriber: history replays, stream still terminates
            events = [name for name, _ in client.stream(job["id"])]
            assert events[-1] == "done"
            assert "progress" in events

    def test_threshold_above_the_default_ack_timeout_runs(self, tmp_path):
        request = {**SWEEP, "rates": [0.02], "warmup": 100, "measure": 300,
                   "threshold": 1000}
        with BackgroundService(tmp_path / "queue") as svc:
            client = ServiceClient(port=svc.port)
            done = client.wait(client.submit_sweep(**request)["id"])
            assert done["state"] == "done", done
            assert done["metrics"]["executed"] == 1

    def test_bad_request_is_a_400_with_actionable_error(self, tmp_path):
        with BackgroundService(tmp_path / "queue") as svc:
            client = ServiceClient(port=svc.port)
            with pytest.raises(ServiceError) as excinfo:
                client.submit_sweep(ratess=[0.01])
            assert excinfo.value.status == 400
            assert "did you mean 'rates'" in excinfo.value.message
            with pytest.raises(ServiceError) as excinfo:
                client.result("nonexistent0")
            assert excinfo.value.status == 404


def fake_row(spec):
    return {
        "rate": spec["rate"], "latency": 12.0, "network_latency": 9.0,
        "queueing_latency": 3.0, "throughput": spec["rate"],
        "deadlocked": False, "upward_packets": 0,
    }


class TestSingleFlightDedup:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """Two clients, same fingerprint, overlapping in time: one
        simulation execution, two completed jobs (satellite #4)."""
        gate = threading.Event()
        executions = []

        def gated_execute(spec):
            executions.append(spec["rate"])
            gate.wait(timeout=60)
            return fake_row(spec)

        service_kwargs = dict(workers=2, execute=gated_execute)
        with BackgroundService(tmp_path / "queue", **service_kwargs) as svc:
            client = ServiceClient(port=svc.port)
            first = client.submit_sweep(**SWEEP)
            second = client.submit_sweep(**SWEEP)
            assert first["fingerprint"] == second["fingerprint"]
            try:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    states = {j["id"]: j["state"] for j in client.jobs()}
                    if all(s == "running" for s in states.values()):
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError(f"jobs never overlapped: {states}")
            finally:
                gate.set()

            jobs = [wait_done(client, first["id"]), wait_done(client, second["id"])]
            assert [j["state"] for j in jobs] == ["done", "done"]
            assert sorted(executions) == sorted(RATES)  # each point once
            flags = sorted(j["metrics"]["deduped"] for j in jobs)
            assert flags == [False, True]
            leader = next(j for j in jobs if not j["metrics"]["deduped"])
            assert leader["metrics"]["executed"] == len(RATES)
            assert client.stats()["totals"]["deduped"] == 1
            # both results are served, and they match
            assert (
                client.result(first["id"])["result"]
                == client.result(second["id"])["result"]
            )


class TestQueueResume:
    def test_kill_and_restart_resumes_running_job(self, tmp_path):
        """A job left in state ``running`` by a dead process is picked
        up and completed by the next service (satellite #4)."""
        queue_dir = tmp_path / "queue"
        queue = JobQueue(queue_dir)
        request, fingerprint = wire.job_fingerprint("sweep", SWEEP)
        queue.submit(Job.create("sweep", request, fingerprint))
        crashed = queue.claim_next()
        assert crashed.state == "running"
        del queue  # the process "dies" here with the job in flight

        with BackgroundService(queue_dir, execute=fake_row) as svc:
            client = ServiceClient(port=svc.port)
            assert client.stats()["queue"]["recovered"] == 1
            job = wait_done(client, crashed.id)
            assert job["state"] == "done"
            assert job["requeues"] == 1
            rows = client.result(crashed.id)["result"]["points"]
            assert [row["rate"] for row in rows] == RATES

"""The service's warm path and the stream/HTTP fixes that rode with it.

A request whose every point is already cached is replayed on the submit
path: one durable write, one HTTP round trip (the 202 carries the
result, and the client asks for nothing it already has), no queue wait
and no worker thread — through the same ``_run_request`` a worker runs,
so the job record and result are what a queued warm job's were.  Work
is asserted as counts that repeat exactly, never as timings.
"""

import asyncio
import errno
import json
import logging
import socket
import time

import pytest

from repro.client import ServiceClient, ServiceError
from repro.exp.backends import MemoryBackend
from repro.exp.cache import ResultCache
from repro.service import BackgroundService, Job, JobQueue
from repro.service import app
from repro.service import schemas as wire
from repro.service.app import MAX_BODY_BYTES

RATES = [0.02, 0.04]
SWEEP = {"preset": "baseline", "scheme": "upp", "pattern": "uniform_random",
         "rates": RATES, "warmup": 200, "measure": 600}


def fake_row(spec):
    if spec["kind"] == "workload":
        return {"runtime": 1000 + len(spec["scheme"]), "avg_total_latency": 20.0}
    return {
        "rate": spec["rate"], "latency": 12.0, "network_latency": 9.0,
        "queueing_latency": 3.0, "throughput": spec["rate"],
        "deadlocked": False, "upward_packets": 0,
    }


def run_job(client, **request):
    """submit -> wait -> result, as the benchmark's client does."""
    accepted = client.submit_sweep(**request)
    done = client.wait(accepted["id"])
    return accepted, done, client.result(accepted["id"])["result"]


def count_calls(obj, name, log, label=lambda *args: args):
    """Wrap ``obj.name`` on the instance, logging ``label(*args)`` per call."""
    real = getattr(obj, name)

    def counted(*args, **kwargs):
        log.append(label(*args))
        return real(*args, **kwargs)

    setattr(obj, name, counted)


def counted_client(port):
    """A client and the ``(method, path)`` of every request it sends."""
    client, requests = ServiceClient(port=port, timeout=30), []
    count_calls(client, "_open", requests, lambda method, path, *_: (method, path))
    return client, requests


class TestWarmPathWork:
    def test_warm_job_is_one_persist_and_one_request(self, tmp_path, monkeypatch):
        persists, claims, threads = [], [], []
        real_to_thread = asyncio.to_thread

        async def to_thread(func, *args, **kwargs):
            threads.append(func.__name__)
            return await real_to_thread(func, *args, **kwargs)

        monkeypatch.setattr("repro.service.app.asyncio.to_thread", to_thread)
        with BackgroundService(
            tmp_path / "queue", cache=ResultCache(tmp_path / "cache"),
            execute=fake_row,
        ) as svc:
            client, requests = counted_client(svc.port)
            queue = svc.service.queue
            count_calls(queue, "persist", persists, lambda job: job.state)
            count_calls(queue, "claim_next", claims)

            # cold: the recovery states are all still written, and the
            # result comes with the stream's done event
            accepted, done, cold_result = run_job(client, **SWEEP)
            assert requests == [
                ("POST", "/v1/sweeps"),
                ("GET", f"/v1/jobs/{accepted['id']}/events"),
            ]
            assert accepted["state"] == "queued"
            assert done["metrics"]["executed"] == len(RATES)
            assert persists == ["queued", "running", "done"]
            assert threads == ["_run_request"]
            assert claims  # a worker claimed it

            # warm: answered on the submit path
            for log in (persists, requests, claims, threads):
                log.clear()
            accepted, done, warm_result = run_job(client, **SWEEP)
            job_id = accepted["id"]
            assert persists == ["done"]
            assert requests == [("POST", "/v1/sweeps")]
            assert claims == [] and threads == []
            assert accepted["state"] == "done"  # already in the 202
            assert accepted == done == client.job(job_id)
            assert warm_result == cold_result
            assert done["metrics"] == {
                "queue_wait_s": 0.0, "deduped": False,
                "executed": 0, "cached": len(RATES), "retried": 0,
            }

            totals = client.stats()["totals"]
            assert totals["submitted"] == totals["completed"] == 2
            assert totals["executed"] == totals["cached"] == len(RATES)

    def test_record_matches_a_queued_warm_job(self, tmp_path):
        """The same request answered by a worker (pre-seeded in the queue,
        so it never meets the submit path) and on the submit path."""
        cache = ResultCache(tmp_path / "cache")
        with BackgroundService(tmp_path / "q0", cache=cache, execute=fake_row) as svc:
            run_job(ServiceClient(port=svc.port, timeout=30), **SWEEP)  # fill

        request, fingerprint = wire.job_fingerprint("sweep", SWEEP)
        seeded = JobQueue(tmp_path / "q1").submit(
            Job.create("sweep", request, fingerprint)
        )
        with BackgroundService(tmp_path / "q1", cache=cache, execute=fake_row) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            queued = client.wait(seeded.id)
            fast = client.wait(client.submit_sweep(**SWEEP)["id"])
            assert svc.service.queue.get(fast["id"]).result == (
                svc.service.queue.get(seeded.id).result
            )
            assert client.result(fast["id"])["result"] == (
                client.result(seeded.id)["result"]
            )

        assert queued["metrics"]["executed"] == 0  # it was warm too
        assert fast.keys() == queued.keys()
        for name in ("kind", "state", "fingerprint", "request", "attempts",
                     "requeues", "error"):
            assert fast[name] == queued[name], name
        assert fast["state"] == "done" and fast["attempts"] == 1
        assert fast["metrics"].keys() == queued["metrics"].keys()
        for name in ("executed", "cached", "deduped", "retried"):
            assert fast["metrics"][name] == queued["metrics"][name], name
        # the two differences: it never waited, and it ran in no time
        assert fast["metrics"]["queue_wait_s"] == 0.0
        assert queued["metrics"]["queue_wait_s"] > 0.0
        assert fast["started_unix"] == fast["finished_unix"] >= fast["submitted_unix"]

    def test_partly_cached_request_goes_through_the_queue(self, tmp_path):
        executed = []

        def execute(spec):
            executed.append(spec["rate"])
            return fake_row(spec)

        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=execute
        ) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            run_job(client, **{**SWEEP, "rates": RATES[:1]})
            assert executed == RATES[:1]

            accepted = client.submit_sweep(**SWEEP)
            assert accepted["state"] == "queued"
            progress = []
            done = client.wait(accepted["id"], on_progress=progress.append)
            assert executed == RATES  # only the missing point ran
            assert done["metrics"]["executed"] == 1
            assert done["metrics"]["cached"] == 1
            # the submit-path probe's buffered events were dropped, so
            # each point is reported exactly once
            assert [(p["done"], p["source"]) for p in progress] == [
                (1, "cache"), (2, "run"),
            ]
            events = [name for name, _ in client.stream(accepted["id"])]
            assert events == ["state", "state", "progress", "progress", "done"]

    def test_late_subscriber_sees_the_whole_story(self, tmp_path):
        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            run_job(client, **SWEEP)
            warm = client.submit_sweep(**SWEEP)
            events = list(client.stream(warm["id"]))
            assert [name for name, _ in events] == (
                ["state"] + ["progress"] * len(RATES) + ["done"]
            )
            assert [data["done"] for name, data in events if name == "progress"] == [1, 2]
            assert all(data["source"] == "cache"
                       for name, data in events if name == "progress")
            terminal = events[-1][1]
            assert terminal["job"] == client.job(warm["id"])
            assert (terminal["state"], terminal["executed"], terminal["cached"],
                    terminal["deduped"]) == ("done", 0, len(RATES), False)

    def test_workload_requests_take_the_warm_path_too(self, tmp_path):
        request = {"workload": "blackscholes", "schemes": ["composable", "upp"],
                   "scale": 0.05}
        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client, requests = counted_client(svc.port)
            cold = client.submit_workload(**request)
            assert cold["state"] == "queued"
            client.wait(cold["id"])
            cold_result = client.result(cold["id"])["result"]
            assert requests == [
                ("POST", "/v1/workloads"),
                ("GET", f"/v1/jobs/{cold['id']}/events"),
            ]
            requests.clear()
            warm = client.submit_workload(**request)
            assert warm["state"] == "done"
            assert warm["metrics"]["cached"] == 2
            assert client.wait(warm["id"]) == warm
            assert client.result(warm["id"])["result"] == cold_result
            assert requests == [("POST", "/v1/workloads")]

    def test_probe_error_is_left_to_the_worker_to_report(self, tmp_path):
        """Anything but an answer on the submit path means 'enqueue': the
        worker meets the same error and records it as the job's failure."""

        class BrokenCache(MemoryBackend):
            def get(self, key):
                raise OSError("cache volume is gone")

        with BackgroundService(
            tmp_path / "queue", cache=BrokenCache(), execute=fake_row
        ) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            accepted = client.submit_sweep(**SWEEP)
            assert accepted["state"] == "queued"
            with pytest.raises(ServiceError, match="cache volume is gone"):
                client.wait(accepted["id"])
            assert client.job(accepted["id"])["state"] == "failed"


class TestPersistFailure:
    """A job the queue cannot write (a full disk, say) is refused with a
    503: nothing is counted or kept, and the service goes on serving."""

    @pytest.mark.parametrize("leg, state", [("warm", "done"), ("cold", "queued")])
    def test_refused_job_is_not_taken_in(self, tmp_path, caplog, leg, state):
        tried = []

        def full_disk(job):
            tried.append(job.state)
            raise OSError(errno.ENOSPC, "No space left on device")

        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            if leg == "warm":
                run_job(client, **SWEEP)  # fill the cache
            before = client.stats()
            events = set(svc.service._events)
            queue = svc.service.queue
            queue.persist = full_disk
            try:
                with caplog.at_level(logging.ERROR, logger="asyncio"):
                    with pytest.raises(ServiceError) as refused:
                        client.submit_sweep(**SWEEP)
            finally:
                del queue.persist
            # the warm leg failed in _replay's record, the cold one in submit
            assert tried == [state]
            assert refused.value.status == 503
            assert "No space left on device" in refused.value.message
            assert caplog.records == []
            after = client.stats()
            assert after["totals"] == before["totals"]
            assert after["jobs"] == before["jobs"]
            assert set(svc.service._events) == events
            assert client.health()

            accepted = client.submit_sweep(**SWEEP)
            assert accepted["state"] == state
            assert client.wait(accepted["id"])["state"] == "done"
            assert client.stats()["totals"]["submitted"] == (
                before["totals"]["submitted"] + 1
            )


class TestClientSlot:
    """The client keeps the latest answered job — id, record, result —
    and asks the server only for what that slot cannot answer."""

    def test_progress_callback_still_streams(self, tmp_path):
        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client, requests = counted_client(svc.port)
            run_job(client, **SWEEP)
            accepted = client.submit_sweep(**SWEEP)
            requests.clear()
            progress = []
            done = client.wait(accepted["id"], on_progress=progress.append)
            assert requests == [("GET", f"/v1/jobs/{accepted['id']}/events")]
            assert [(p["done"], p["source"]) for p in progress] == [
                (1, "cache"), (2, "cache"),
            ]
            assert done == accepted

    def test_result_is_handed_out_once_then_asked_for(self, tmp_path):
        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client, requests = counted_client(svc.port)
            run_job(client, **SWEEP)
            job_id = client.submit_sweep(**SWEEP)["id"]
            requests.clear()
            first = client.result(job_id)
            assert requests == []
            second = client.result(job_id)
            assert requests == [("GET", f"/v1/jobs/{job_id}/result")]
            assert first == second and first is not second
            assert first["id"] == job_id

    def test_a_displaced_job_is_asked_for(self, tmp_path):
        other = {**SWEEP, "rates": RATES[:1]}
        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client, requests = counted_client(svc.port)
            _, _, result_a = run_job(client, **SWEEP)
            _, _, result_b = run_job(client, **other)
            a = client.submit_sweep(**SWEEP)
            client.submit_sweep(**other)  # B takes the slot
            requests.clear()
            assert client.result(a["id"])["result"] == result_a
            assert client.wait(a["id"]) == a
            assert requests == [
                ("GET", f"/v1/jobs/{a['id']}/result"),
                ("GET", f"/v1/jobs/{a['id']}/events"),
            ]
            # the stream's done event put A, with its result, in the slot
            requests.clear()
            assert client.result(a["id"])["result"] == result_a
            assert client.result(a["id"])["result"] == result_a
            assert requests == [("GET", f"/v1/jobs/{a['id']}/result")]
            assert result_a != result_b

    def test_answers_without_a_result_go_over_the_wire(self, tmp_path, monkeypatch):
        """A server that sends no result (one older than the slot) gets
        the three requests a job always took, with the same answers."""

        def untimed(record):
            kept = {k: v for k, v in record.items()
                    if k != "id" and not k.endswith("_unix")}
            kept["metrics"] = {k: v for k, v in record["metrics"].items()
                               if k != "queue_wait_s"}
            return kept

        with BackgroundService(
            tmp_path / "q0", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            answers = [run_job(client, **SWEEP) for _ in ("cold", "warm")]

        real_event = app._terminal_event

        def event_without_result(job):
            event, data = real_event(job)
            data.pop("result", None)
            return event, data

        monkeypatch.setattr(app, "_terminal_event", event_without_result)
        with BackgroundService(
            tmp_path / "q1", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            real_route = svc.service._route

            def route_without_result(method, path, body):
                answer = real_route(method, path, body)
                if method == "POST":
                    answer[1].pop("result", None)
                return answer

            svc.service._route = route_without_result
            client, requests = counted_client(svc.port)
            for accepted, done, result in answers:
                requests.clear()
                old_accepted, old_done, old_result = run_job(client, **SWEEP)
                job_id = old_accepted["id"]
                assert requests == [
                    ("POST", "/v1/sweeps"),
                    ("GET", f"/v1/jobs/{job_id}/events"),
                    ("GET", f"/v1/jobs/{job_id}/result"),
                ]
                assert untimed(old_accepted) == untimed(accepted)
                assert untimed(old_done) == untimed(done)
                assert old_result == result

    def test_editing_an_answer_changes_no_later_one(self, tmp_path):
        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client, requests = counted_client(svc.port)
            # cold: the record wait() returned, then the streamed result
            cold = client.submit_sweep(**SWEEP)
            done = client.wait(cold["id"])
            record = client.job(cold["id"])
            done["metrics"]["executed"] = -1
            assert client.wait(cold["id"]) == record
            result = client.result(cold["id"])
            expected = client.result(cold["id"])
            result["result"]["points"].clear()
            assert client.result(cold["id"]) == expected

            # warm: the record submit and wait returned, then the result
            accepted = client.submit_sweep(**SWEEP)
            record = client.job(accepted["id"])
            accepted["metrics"]["cached"] = -1
            done = client.wait(accepted["id"])
            assert done == record
            done["state"] = "edited"
            assert client.wait(accepted["id"]) == record
            client.result(accepted["id"])["result"]["points"].clear()
            assert client.result(accepted["id"]) == expected | {"id": accepted["id"]}


class TestRestart:
    def test_fast_path_job_survives_restart(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        queue_dir = tmp_path / "queue"
        with BackgroundService(queue_dir, cache=cache, execute=fake_row) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            _, _, result = run_job(client, **SWEEP)
            warm = client.submit_sweep(**SWEEP)
            # durable before the 202 was written: the file is complete now
            on_disk = json.loads((queue_dir / f"{warm['id']}.json").read_text())
            assert on_disk["state"] == "done"
            assert on_disk["result"] == result

        with BackgroundService(queue_dir, cache=cache, execute=fake_row) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            assert client.stats()["queue"] == {
                "pending": 0, "recovered": 0, "corrupt": 0,
            }
            assert client.job(warm["id"]) == warm
            assert client.result(warm["id"])["result"] == result

    def test_wait_on_a_finished_job_returns_after_restart(self, tmp_path):
        """The event history lives in memory only; a finished job's
        stream must end with its terminal event all the same (wait()
        used to block until the client's socket timeout)."""

        def execute(spec):
            if spec["rate"] > 0.5:
                raise ValueError("rate out of range")
            return fake_row(spec)

        queue_dir = tmp_path / "queue"
        with BackgroundService(queue_dir, execute=execute) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            _, done, _ = run_job(client, **SWEEP)
            failed = client.submit_sweep(**{**SWEEP, "rates": [0.9]})
            with pytest.raises(ServiceError, match="rate out of range"):
                client.wait(failed["id"])

        with BackgroundService(queue_dir, execute=execute) as svc:
            client = ServiceClient(port=svc.port, timeout=5)
            assert client.job(done["id"])["state"] == "done"
            start = time.monotonic()
            assert client.wait(done["id"]) == done
            assert [name for name, _ in client.stream(done["id"])] == ["done"]
            with pytest.raises(ServiceError, match="rate out of range"):
                client.wait(failed["id"])
            assert time.monotonic() - start < 1.0

    def test_subscriber_sets_are_dropped_with_their_last_subscriber(self, tmp_path):
        with BackgroundService(
            tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
        ) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            for _ in range(3):
                run_job(client, **SWEEP)
            deadline = time.monotonic() + 5
            while svc.service._subscribers and time.monotonic() < deadline:
                time.sleep(0.01)
            assert svc.service._subscribers == {}


def raw_exchange(port, head: bytes) -> bytes:
    """Send raw bytes, return everything the server answers until close."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestContentLength:
    """A malformed or oversized Content-Length gets an HTTP answer (the
    handler used to raise into asyncio and close without a byte)."""

    @pytest.mark.parametrize("value", ["abc", "-5", "", "1e3", "+7"])
    def test_malformed_length_is_a_400(self, tmp_path, value):
        with BackgroundService(tmp_path / "queue") as svc:
            answer = raw_exchange(
                svc.port,
                f"POST /v1/sweeps HTTP/1.1\r\nConnection: close\r\n"
                f"Content-Length: {value}\r\n\r\n".encode(),
            )
            assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            error = json.loads(answer.partition(b"\r\n\r\n")[2])["error"]
            assert "Content-Length" in error and repr(value) in error
            assert ServiceClient(port=svc.port).health()

    def test_oversized_length_is_a_413_without_reading_the_body(self, tmp_path):
        with BackgroundService(tmp_path / "queue") as svc:
            # only the head is sent: an answer means the body was not awaited
            answer = raw_exchange(
                svc.port,
                "POST /v1/sweeps HTTP/1.1\r\nConnection: close\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
            )
            assert answer.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")
            assert str(MAX_BODY_BYTES) in json.loads(
                answer.partition(b"\r\n\r\n")[2]
            )["error"]
            assert ServiceClient(port=svc.port).health()

    def test_a_body_at_the_limit_is_read(self, tmp_path):
        with BackgroundService(tmp_path / "queue", execute=fake_row) as svc:
            body = b" " * (MAX_BODY_BYTES - 2) + b"{}"
            answer = raw_exchange(
                svc.port,
                b"POST /v1/sweeps HTTP/1.1\r\nConnection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
            )
            assert answer.startswith(b"HTTP/1.1 202 Accepted\r\n")


class TestRateRange:
    """A rate the traffic generator would reject is refused at submit
    time (it used to be queued and fail later as a 409)."""

    @pytest.mark.parametrize("rates", [b"[1.5]", b"[Infinity]"])
    def test_out_of_range_rate_is_a_400_and_no_job(self, tmp_path, rates):
        with BackgroundService(tmp_path / "queue", execute=fake_row) as svc:
            body = (
                b'{"preset": "baseline", "scheme": "upp", "rates": ' + rates + b"}"
            )
            answer = raw_exchange(
                svc.port,
                b"POST /v1/sweeps HTTP/1.1\r\nConnection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
            )
            assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            error = json.loads(answer.partition(b"\r\n\r\n")[2])["error"]
            assert "(0, 1]" in error
            assert ServiceClient(port=svc.port).jobs() == []


class TestFieldRanges:
    """A threshold, scale or early-stop latency the run would fail on is
    refused at submit time (each used to be queued and fail as a 409)."""

    @pytest.mark.parametrize(
        "path, body, field",
        [
            (b"/v1/sweeps", b'{"rates": [0.01], "threshold": 0}', "threshold"),
            (b"/v1/sweeps", b'{"rates": [0.01], "saturation_latency": NaN}',
             "saturation_latency"),
            (b"/v1/sweeps", b'{"rates": [0.01], "saturation_latency": -1}',
             "saturation_latency"),
            (b"/v1/workloads", b'{"scale": NaN}', "scale"),
            (b"/v1/workloads", b'{"scale": Infinity}', "scale"),
        ],
    )
    def test_out_of_range_field_is_a_400_and_no_job(self, tmp_path, path, body, field):
        with BackgroundService(tmp_path / "queue", execute=fake_row) as svc:
            answer = raw_exchange(
                svc.port,
                b"POST " + path + b" HTTP/1.1\r\nConnection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
            )
            assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            error = json.loads(answer.partition(b"\r\n\r\n")[2])["error"]
            assert field in error
            assert ServiceClient(port=svc.port).jobs() == []

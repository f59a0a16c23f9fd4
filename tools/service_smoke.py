#!/usr/bin/env python3
"""Service smoke check (CI `service-smoke` job).

Boots a real ``python -m repro serve`` subprocess, then drives it with
:class:`repro.client.ServiceClient` the way a user would:

1. submit a tiny sweep and stream its progress over SSE; its ``done``
   event carries the result, so ``result()`` sends no request;
2. re-submit the identical request and assert the warm run executes
   **zero** simulations (tiered cache hit, visible in ``/v1/stats``),
   never waited in the queue, that submit, ``wait()`` and ``result()``
   together sent exactly one request (the 202 carries the result), that
   its ``done`` event carried the job record, and that it opened no TCP
   connection (``totals.connections``): the client reuses the one it
   kept;
3. SIGTERM the server while the client holds that idle connection and
   assert it shuts down gracefully (exit 0) within a few seconds;
4. boot a second server on the same directories and assert ``wait()``
   on the finished cold job returns (its event history died with the
   first process; the terminal event is rendered from the job file).

Run:  PYTHONPATH=src python tools/service_smoke.py
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.client import ServiceClient  # noqa: E402

SWEEP = {"rates": [0.02, 0.04], "warmup": 200, "measure": 600}

#: seconds a SIGTERMed server may take to exit.
SHUTDOWN_S = 5.0


def fail(message: str) -> "None":
    print(f"service-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def boot(tmp: str):
    """Start ``python -m repro serve`` on ``tmp``; returns (proc, client)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--queue-dir", os.path.join(tmp, "queue"),
         "--cache-dir", os.path.join(tmp, "cache"), "--tiered"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    banner = proc.stdout.readline()
    print(banner.rstrip())
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    if not match:
        proc.kill()
        fail(f"could not parse listen address from: {banner!r}")
    client = ServiceClient(
        host=match.group(1), port=int(match.group(2)), timeout=60
    )
    return proc, client


def count_requests(client) -> list:
    """Log the ``(method, path)`` of every request ``client`` sends."""
    sent, real_open = [], client._open

    def counted(method, path, *args, **kwargs):
        sent.append((method, path))
        return real_open(method, path, *args, **kwargs)

    client._open = counted
    return sent


def shut_down(proc) -> None:
    start = time.monotonic()
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    took = time.monotonic() - start
    print(out.rstrip())
    if proc.returncode != 0:
        fail(f"server exited {proc.returncode} on SIGTERM")
    if took > SHUTDOWN_S:
        fail(f"server took {took:.1f}s to exit on SIGTERM")


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="repro-service-smoke-")
    proc, client = boot(tmp)
    try:
        if not client.health():
            fail("healthz did not answer ok")

        # 1. cold submit + SSE progress stream
        sent = count_requests(client)
        job = client.submit_sweep(**SWEEP)
        print(f"submitted job {job['id']} (fingerprint {job['fingerprint'][:12]})")
        seen = []
        done = client.wait(
            job["id"],
            on_progress=lambda p: seen.append(p) or print(
                f"  progress {p['done']}/{p['total']} {p['label']} [{p['source']}]"
            ),
        )
        if not seen:
            fail("no progress events streamed")
        if done["metrics"]["executed"] != len(SWEEP["rates"]):
            fail(f"cold run executed {done['metrics']['executed']}, "
                 f"expected {len(SWEEP['rates'])}")
        sent.clear()
        points = client.result(job["id"])["result"]["points"]
        if sent:
            fail(f"cold result() sent {sent}; expected the done event's result")
        print(f"cold: executed={done['metrics']['executed']} points={len(points)}")

        # 2. warm re-submit: zero simulations, answered on the submit path
        #    in one request, over the connection the cold leg left open
        opened = client.stats()["totals"]["connections"]
        sent.clear()
        warm = client.wait(client.submit_sweep(**SWEEP)["id"])
        warm_points = client.result(warm["id"])["result"]["points"]
        if sent != [("POST", "/v1/sweeps")]:
            fail(f"warm submit, wait and result sent {sent}; expected one POST")
        if warm_points != points:
            fail("warm result differs from the cold one")
        if warm["metrics"]["executed"] != 0:
            fail(f"warm run executed {warm['metrics']['executed']}, expected 0")
        if warm["metrics"]["queue_wait_s"] != 0:
            fail(f"warm run waited {warm['metrics']['queue_wait_s']}s in the queue")
        event, data = list(client.stream(warm["id"]))[-1]
        if event != "done" or data.get("job") != warm:
            fail(f"warm stream ended with {event!r} carrying {data.get('job')!r}, "
                 "expected 'done' carrying the job record")
        stats = client.stats()
        if stats["totals"]["cached"] < len(SWEEP["rates"]):
            fail(f"stats report only {stats['totals']['cached']} cached points")
        if stats["cache"]["l1_hits"] < len(SWEEP["rates"]):
            fail(f"tiered cache reports l1_hits={stats['cache']['l1_hits']}")
        if stats["totals"]["connections"] != opened:
            fail(f"warm leg opened {stats['totals']['connections'] - opened} "
                 "connection(s); expected it to reuse the kept one")
        print(f"warm: executed=0 cached={warm['metrics']['cached']} requests=1 "
              f"l1_hits={stats['cache']['l1_hits']} "
              f"connections={stats['totals']['connections']}")

        # 3. graceful shutdown
        shut_down(proc)

        # 4. a new process: wait() on the finished job must still return
        proc, client = boot(tmp)
        again = client.wait(job["id"])
        if again != done:
            fail(f"after restart wait() returned {again!r}, expected {done!r}")
        print(f"restart: wait({job['id']}) -> {again['state']}")
        shut_down(proc)
        print("service-smoke: OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())

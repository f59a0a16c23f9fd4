"""The async sweep service: HTTP/JSON job API over the experiment runner.

A :class:`SweepService` is a long-running asyncio process that turns
``repro.api`` into a shared, cache-backed endpoint:

* **submission** — ``POST /v1/sweeps`` / ``POST /v1/workloads`` accept
  the versioned request schemas (:mod:`repro.service.schemas`) and
  return a job id immediately (HTTP 202);
* **warm path** — a request whose every point is already in the cache
  is replayed on the submit path and answered ``done`` in that 202: one
  durable write, no queue wait, no worker thread;
* **persistent queue** — jobs land in a crash-safe on-disk
  :class:`~repro.service.queue.JobQueue`; a restarted server resumes
  where the dead one stopped, and completed points replay from the
  content-addressed cache so resumption only simulates the tail;
* **streaming progress** — ``GET /v1/jobs/<id>/events`` is a
  Server-Sent-Events stream fed by the runner's existing
  ``progress(done, total, label, source)`` callbacks (history replays
  first, so a late subscriber misses nothing); the terminal event
  carries the job's public record;
* **single-flight dedup** — two concurrent jobs with the same request
  fingerprint execute **once**; the follower awaits the leader's result
  and completes with ``metrics.deduped = true``.  Sequential
  duplicates are deduped by the cache instead (``executed == 0``);
* **retry with backoff** — a job whose worker pool breaks
  (``BrokenProcessPool``: OOM-killed or signalled workers) is retried
  with exponential backoff; deterministic failures fail the job
  immediately;
* **graceful shutdown** — :meth:`SweepService.stop` stops accepting,
  requeues in-flight jobs (persisted as ``queued``) and lets the next
  process pick them up.

The HTTP layer is stdlib asyncio streams — no framework, no new
dependencies; responses are JSON (or an SSE stream), which every client
including ``curl`` speaks.  A connection serves one request after
another (HTTP/1.1 keep-alive); it closes when the client asks, after a
request that cannot be framed, after a live SSE stream, or when idle
for :data:`KEEPALIVE_IDLE_S`.  Every read is bounded by the module
constants below, none of which is an option.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.exp.backends import CacheBackend
from repro.exp.runner import ExperimentRunner, WorkerCrashError
from repro.exp.schemas import JobSchemaError
from repro.service import schemas as wire
from repro.service.jobs import TERMINAL_STATES, Job
from repro.service.queue import JobQueue

#: service stats wire tag (`GET /v1/stats`).
STATS_SCHEMA = "repro-service-stats/v1"

#: largest request body read; a longer ``Content-Length`` is a 413.
MAX_BODY_BYTES = 1 << 20

#: longest request line or header line read: a 400 or a 431 above it.
MAX_LINE_BYTES = 8192

#: most header lines one request may carry; more is a 431.
MAX_HEADERS = 64

#: seconds a request's line, headers and body may take to arrive once
#: its first byte has; a 408 after that.
REQUEST_TIMEOUT_S = 10.0

#: seconds a kept-alive connection waits for its next request to start;
#: then it is closed without a response.
KEEPALIVE_IDLE_S = 30.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    408: "Request Timeout", 409: "Conflict", 411: "Length Required",
    413: "Payload Too Large", 431: "Request Header Fields Too Large",
}


class _Refused(Exception):
    """A request that cannot be framed: answered with ``status``, after
    which its connection cannot be trusted to carry another request."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _CacheMiss(Exception):
    """The submit-path replay reached a point the cache does not hold."""


def _refuse_to_simulate(spec):
    raise _CacheMiss


class SweepService:
    """Job queue + workers + HTTP front-end over ``repro.api``."""

    def __init__(
        self,
        queue_dir,
        cache: Optional[CacheBackend] = None,
        *,
        sim_jobs: int = 1,
        workers: int = 1,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        execute: Optional[Callable] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if sim_jobs < 1:
            raise ValueError("sim_jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.queue = JobQueue(queue_dir)
        self.cache = cache
        self.sim_jobs = sim_jobs
        self.workers = workers
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: test seam: overrides the per-point executor inside the runner.
        self.execute = execute
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.totals: Dict[str, float] = {
            "submitted": 0, "completed": 0, "failed": 0, "executed": 0,
            "cached": 0, "retried": 0, "deduped": 0, "requeued": 0,
            "queue_wait_s": 0.0, "connections": 0,
        }
        self._events: Dict[str, List[Tuple[str, Dict[str, object]]]] = {}
        self._subscribers: Dict[str, Set[asyncio.Queue]] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._worker_tasks: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        #: one task per open connection, and the connections among them
        #: waiting for their next request (which stop() closes)
        self._handlers: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.StreamWriter] = set()
        self._wake: Optional[asyncio.Event] = None
        self._started_unix = time.time()

    # ------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "SweepService":
        """Bind the HTTP server and start the worker loops.

        ``port=0`` binds an ephemeral port; read it back from ``.port``.
        """
        self._wake = asyncio.Event()
        if self.queue.pending():
            self._wake.set()  # recovered (or pre-seeded) jobs: start now
        self._server = await asyncio.start_server(self._handle_conn, host, port)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"sweep-worker-{i}")
            for i in range(self.workers)
        ]
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, requeue in-flight jobs,
        close connections — idle ones at once, the others once their
        current response is written."""
        if self._server is not None:
            self._server.close()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        # wake any stream subscriber still waiting so its connection closes
        for queues in self._subscribers.values():
            for queue in queues:
                queue.put_nowait(None)
        for writer in list(self._idle):
            writer.close()
        if self._handlers:
            # what Server.wait_closed() waits for since Python 3.12.1 —
            # bounded, since a client that stops reading stalls its handler
            await asyncio.wait(list(self._handlers), timeout=REQUEST_TIMEOUT_S)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- events

    def _log_event(self, job_id: str, event: str, data: Dict[str, object]) -> None:
        """Record one SSE event and fan it out to live subscribers."""
        self._events.setdefault(job_id, []).append((event, data))
        self._publish(job_id, event, data)

    def _publish(self, job_id: str, event: str, data: Dict[str, object]) -> None:
        """Fan one event out to live subscribers without recording it —
        how terminal events travel: every stream renders its own from
        the job record, which, unlike the history, survives a restart."""
        for queue in self._subscribers.get(job_id, ()):
            queue.put_nowait((event, data))

    # ------------------------------------------------------------- submission

    def submit(self, kind: str, body) -> Job:
        """Validate one request body and take the job in; returns the job.

        A request the cache can answer completely is replayed right here
        and recorded already ``done``; any other is enqueued for a worker.
        """
        request, fingerprint = wire.job_fingerprint(kind, body)
        job = Job.create(kind, request, fingerprint)
        self.totals["submitted"] += 1
        if not self._replay(job):
            self.queue.submit(job)
            self._log_event(job.id, "state", {"state": "queued"})
            if self._wake is not None:
                self._wake.set()
        return job

    def _replay(self, job: Job) -> bool:
        """Answer ``job`` from the cache alone, on the calling (loop) thread.

        Runs the same :meth:`_run_request` a worker would, over a serial
        runner whose executor refuses to simulate.  On a miss nothing is
        kept and False is returned.  Otherwise the job is recorded
        ``done`` — its one persist — with the event history a queued run
        would have left, and never waits in the queue.
        """
        if self.cache is None:
            return False
        events = [("state", {"state": "running"})]
        runner = ExperimentRunner(
            cache=self.cache,
            execute=_refuse_to_simulate,
            progress=lambda *point: events.append(_progress_event(*point)),
        )
        try:
            result = self._run_request(job, runner)
        except Exception:
            # a miss — or an error, which the worker will meet again and
            # report as the job's failure
            return False
        job.attempts = 1
        job.metrics.update(queue_wait_s=0.0, deduped=False)
        self._complete(job, result, runner.stats.as_dict())
        job.started_unix = job.finished_unix
        self.queue.record(job)
        self._events[job.id] = events
        return True

    def _complete(self, job: Job, result, stats: Dict[str, object]) -> None:
        """Mark ``job`` done and count it; the caller persists it."""
        job.result = result
        job.metrics.update(
            executed=stats.get("executed", 0),
            cached=stats.get("cached", 0),
            retried=stats.get("retried", 0),
        )
        job.state = "done"
        job.finished_unix = time.time()
        self.totals["completed"] += 1
        self.totals["executed"] += job.metrics["executed"]
        self.totals["cached"] += job.metrics["cached"]

    # ------------------------------------------------------------- workers

    async def _worker_loop(self) -> None:
        assert self._wake is not None
        while True:
            job = self.queue.claim_next()
            if job is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        queue_wait = (job.started_unix or 0.0) - job.submitted_unix
        job.metrics["queue_wait_s"] = queue_wait
        self.totals["queue_wait_s"] += queue_wait
        self._log_event(job.id, "state", {"state": "running"})
        leader_fut = self._inflight.get(job.fingerprint)
        try:
            if leader_fut is not None:
                # single-flight follower: same fingerprint is already
                # executing; share its result instead of re-simulating.
                self._log_event(job.id, "dedup", {"fingerprint": job.fingerprint})
                result, _ = await asyncio.shield(leader_fut)
                stats = {"executed": 0, "cached": 0, "retried": 0}
                job.metrics["deduped"] = True
                self.totals["deduped"] += 1
            else:
                fut = asyncio.get_running_loop().create_future()
                # consume the exception even if no follower awaits it
                fut.add_done_callback(
                    lambda f: f.exception() if not f.cancelled() else None
                )
                self._inflight[job.fingerprint] = fut
                try:
                    result, stats = await self._execute_with_retry(job)
                    if not fut.cancelled():
                        fut.set_result((result, stats))
                except BaseException as exc:
                    if not fut.cancelled():
                        fut.set_exception(exc)
                    raise
                finally:
                    self._inflight.pop(job.fingerprint, None)
                job.metrics["deduped"] = False
        except asyncio.CancelledError:
            # graceful shutdown: put the job back for the next process
            self.queue.requeue(job)
            self.totals["requeued"] += 1
            self._log_event(job.id, "state", {"state": "queued", "requeued": True})
            raise
        except Exception as exc:  # deterministic failure: do not retry
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.finished_unix = time.time()
            self.queue.persist(job)
            self.totals["failed"] += 1
            self._publish(job.id, *_terminal_event(job))
            return
        self._complete(job, result, stats)
        self.queue.persist(job)
        self._publish(job.id, *_terminal_event(job))

    async def _execute_with_retry(self, job: Job):
        """Run the job's request, backing off exponentially when the
        worker pool breaks (a crashed worker process, not a failed
        simulation — deterministic errors propagate unretried)."""
        loop = asyncio.get_running_loop()
        delay = self.backoff_base
        for attempt in range(self.retries + 1):
            job.attempts = attempt + 1

            def progress(*point) -> None:
                loop.call_soon_threadsafe(
                    self._log_event, job.id, *_progress_event(*point)
                )

            runner = ExperimentRunner(
                jobs=self.sim_jobs,
                cache=self.cache,
                retries=0,  # the service owns retry policy (with backoff)
                execute=self.execute,
                progress=progress,
                # a lone point that crashes must break a worker, not the
                # service (and, requeued on restart, crash it again)
                isolate=True,
            )
            try:
                result = await asyncio.to_thread(self._run_request, job, runner)
            except (BrokenProcessPool, WorkerCrashError) as exc:
                if attempt == self.retries:
                    raise WorkerCrashError(
                        f"job {job.id} broke its worker pool "
                        f"{attempt + 1} time(s); giving up"
                    ) from exc
                self.totals["retried"] += 1
                self._log_event(
                    job.id,
                    "retry",
                    {"attempt": attempt + 1, "backoff_s": delay},
                )
                await asyncio.sleep(delay)
                delay = min(delay * 2, self.backoff_cap)
                continue
            return result, runner.stats.as_dict()
        raise AssertionError("unreachable")  # pragma: no cover

    def _run_request(self, job: Job, runner: ExperimentRunner):
        """Blocking request execution (runs in a thread) — routes through
        the exact same ``repro.api`` calls a script would make, so a
        service result is bit-identical to a direct one by construction."""
        from repro import api
        from repro.sim.experiment import sweep_to_rows

        request = job.request
        if job.kind == "sweep":
            preset = api.load_preset(
                request["preset"], threshold=request["threshold"]
            )
            points = api.run_sweep(
                preset,
                request["scheme"],
                request["pattern"],
                request["rates"],
                warmup=request["warmup"],
                measure=request["measure"],
                saturation_latency=request["saturation_latency"],
                runner=runner,
            )
            return {
                "points": sweep_to_rows(points),
                "saturation_throughput": api.saturation_throughput(points),
            }
        results = api.run_workload(
            request["preset"],
            request["workload"],
            schemes=tuple(request["schemes"]),
            scale=request["scale"],
            max_cycles=request["max_cycles"],
            runner=runner,
        )
        return {"schemes": results}

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        """The ``GET /v1/stats`` payload: queue, totals, cache counters."""
        jobs = self.queue.jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        completed = max(1, int(self.totals["completed"]))
        return {
            "schema": STATS_SCHEMA,
            "uptime_s": time.time() - self._started_unix,
            "jobs": {"total": len(jobs), "by_state": by_state},
            "queue": {
                "pending": self.queue.pending(),
                "recovered": self.queue.recovered,
                "corrupt": self.queue.corrupt,
            },
            "totals": dict(self.totals),
            "mean_queue_wait_s": self.totals["queue_wait_s"] / completed,
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    # ------------------------------------------------------------- HTTP

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: its requests, one after another."""
        self.totals["connections"] += 1
        task = asyncio.current_task()
        self._handlers.add(task)
        requests = _RequestReader(reader)
        try:
            while await self._serve_request(requests, writer):
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._handlers.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_request(
        self, requests: "_RequestReader", writer: asyncio.StreamWriter
    ) -> bool:
        """Wait for, read and answer one request; True keeps the connection."""
        if self._server is None or not self._server.is_serving():
            return False  # stopping: this connection is done
        if not requests.buffer:
            # idle: closing — by this timer or by stop() — ends the read
            # with b"".  No 408 here: the client could take it for the
            # answer to the request it is about to send.
            timer = asyncio.get_running_loop().call_later(
                KEEPALIVE_IDLE_S, writer.close
            )
            self._idle.add(writer)
            try:
                arrived = await requests.wait()
            finally:
                self._idle.discard(writer)
                timer.cancel()
            if not arrived:
                return False
        try:
            method, path, keep, body = await requests.request()
        except asyncio.TimeoutError:
            await self._refuse(
                requests.reader, writer, 408,
                f"request not complete within {REQUEST_TIMEOUT_S} s",
            )
            return False
        except _Refused as refused:
            await self._refuse(
                requests.reader, writer, refused.status, str(refused)
            )
            return False
        answer = self._route(method, path, body)
        if isinstance(answer, Job):
            return await self._stream_events(answer, writer, keep)
        await self._respond(writer, *answer, keep=keep)
        return keep

    async def _refuse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        status: int,
        message: str,
    ) -> None:
        """Answer a request that cannot be framed and end the connection.

        What the client still sends is read and dropped for up to
        :data:`REQUEST_TIMEOUT_S` first: closing a socket with unread
        input resets the connection, and the reset can destroy the
        answer before the client reads it.
        """
        await self._respond(writer, status, {"error": message}, keep=False)
        writer.write_eof()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(_read_to_eof(reader), REQUEST_TIMEOUT_S)

    def _route(self, method: str, path: str, body: bytes):
        """A request's answer: ``(status, payload)``, or the :class:`Job`
        whose event stream was asked for."""
        segments = [s for s in path.split("/") if s]
        if method == "POST" and segments in (["v1", "sweeps"], ["v1", "workloads"]):
            kind = "sweep" if segments[1] == "sweeps" else "workload"
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except ValueError:
                return 400, {"error": "request body is not JSON"}
            try:
                job = self.submit(kind, payload)
            except JobSchemaError as exc:
                return 400, {"error": str(exc)}
            return 202, {"job": job.public()}
        if method == "GET" and segments == ["v1", "stats"]:
            return 200, self.stats()
        if method == "GET" and segments == ["v1", "healthz"]:
            return 200, {"ok": True}
        if method == "GET" and segments == ["v1", "jobs"]:
            return 200, {"jobs": [j.public() for j in self.queue.jobs()]}
        if method == "GET" and len(segments) >= 3 and segments[:2] == ["v1", "jobs"]:
            job = self.queue.get(segments[2])
            if job is None:
                return 404, {"error": f"no such job {segments[2]!r}"}
            if len(segments) == 3:
                return 200, {"job": job.public()}
            if segments[3] == "result":
                if job.state != "done":
                    return 409, {"error": f"job {job.id} is {job.state}, not done"}
                return 200, {"id": job.id, "result": job.result}
            if segments[3] == "events":
                return job
        return 404, {"error": f"no route for {method} {path}"}

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload, keep: bool
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        writer.write(_head(status, "application/json", len(body), keep) + body)
        await writer.drain()

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter, keep: bool
    ) -> bool:
        """Serve a job's SSE stream; True keeps the connection.

        History replays first.  A finished job's stream is one sized
        response that ends with its terminal event — whether or not this
        process holds any history for it — and leaves the connection
        open.  A live job's stream runs until its terminal event (or
        shutdown) and then closes the connection, which delimits it.
        """
        history = b"".join(
            _sse(event, data) for event, data in self._events.get(job.id, ())
        )
        if job.state in TERMINAL_STATES:
            body = history + _sse(*_terminal_event(job))
            writer.write(_head(200, "text/event-stream", len(body), keep) + body)
            await writer.drain()
            return keep
        # snapshot + subscribe atomically (no await in between), so every
        # event lands in exactly one of history / live queue
        queue: asyncio.Queue = asyncio.Queue()
        subscribers = self._subscribers.setdefault(job.id, set())
        subscribers.add(queue)
        try:
            # one send for the whole replay
            writer.write(_head(200, "text/event-stream", None, False) + history)
            await writer.drain()
            while True:
                item = await queue.get()
                if item is None:  # service shutting down
                    break
                event, data = item
                writer.write(_sse(event, data))
                await writer.drain()
                if event in TERMINAL_STATES:
                    break
        except ConnectionError:
            pass
        finally:
            subscribers.discard(queue)
            if not subscribers:
                self._subscribers.pop(job.id, None)
        return False


def _head(
    status: int, content_type: str, length: Optional[int], keep: bool
) -> bytes:
    """A response's status line and headers; a body without ``length``
    runs to the close of the connection."""
    lines = [
        f"HTTP/1.1 {status} {_REASONS[status]}",
        f"Content-Type: {content_type}",
        "Cache-Control: no-cache",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    if not keep:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


_READ_BYTES = 1 << 16


class _RequestReader:
    """Frames a connection's requests from the bytes it received.

    A request is parsed from what has already arrived — usually all of
    it, with no wait.  Only a request short of bytes waits for more,
    through ``asyncio.wait_for`` until :data:`REQUEST_TIMEOUT_S` after
    it began.  Bytes past one request stay for the next (pipelining).
    """

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        self.buffer = bytearray()
        self.deadline = 0.0  # loop time by which the current request is in

    async def wait(self) -> bool:
        """Wait, with no deadline, for bytes; False when the peer closed."""
        data = await self.reader.read(_READ_BYTES)
        self.buffer += data
        return bool(data)

    async def request(self) -> Tuple[str, str, bool, bytes]:
        """The next request: ``(method, path, keep_alive, body)``.

        Raises :class:`_Refused` for a request that cannot be framed and
        ``asyncio.TimeoutError`` for one not complete in time.
        """
        self.deadline = asyncio.get_running_loop().time() + REQUEST_TIMEOUT_S
        parts = (await self._line(400, "request line")).decode("latin-1").split()
        if len(parts) < 2:
            raise _Refused(400, "malformed request line")
        method, target = parts[0], parts[1]
        version = parts[2] if len(parts) > 2 else "HTTP/1.0"
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):  # the headers, then the blank line
            line = await self._line(431, "header line")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _Refused(431, f"more than {MAX_HEADERS} header lines")
        if "transfer-encoding" in headers:
            raise _Refused(411, "send the request body with a Content-Length")
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise _Refused(
                400,
                f"Content-Length {declared!r} is not a non-negative integer",
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:  # refused unread
            raise _Refused(
                413,
                f"request body of {length} bytes exceeds the limit of "
                f"{MAX_BODY_BYTES}",
            )
        body = await self._exactly(length)
        keep = (version == "HTTP/1.1"
                and "close" not in headers.get("connection", "").lower())
        return method, target.partition("?")[0], keep, body

    async def _more(self) -> None:
        timeout = self.deadline - asyncio.get_running_loop().time()
        data = await asyncio.wait_for(self.reader.read(_READ_BYTES), timeout)
        if not data:  # the client went away mid-request
            raise asyncio.IncompleteReadError(bytes(self.buffer), None)
        self.buffer += data

    async def _line(self, status: int, what: str) -> bytes:
        """The next line, newline included; one longer than
        :data:`MAX_LINE_BYTES` is refused with ``status``."""
        while True:
            end = self.buffer.find(b"\n", 0, MAX_LINE_BYTES + 1)
            if end >= 0:
                line = bytes(self.buffer[:end + 1])
                del self.buffer[:end + 1]
                return line
            if len(self.buffer) > MAX_LINE_BYTES:
                raise _Refused(status, f"{what} longer than {MAX_LINE_BYTES} bytes")
            await self._more()

    async def _exactly(self, size: int) -> bytes:
        while len(self.buffer) < size:
            await self._more()
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data


async def _read_to_eof(reader: asyncio.StreamReader) -> None:
    while await reader.read(_READ_BYTES):
        pass


def _sse(event: str, data: Dict[str, object]) -> bytes:
    return f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")


def _progress_event(
    done: int, total: int, label: str, source: str
) -> Tuple[str, Dict[str, object]]:
    """The runner's ``progress`` callback arguments as an SSE event."""
    return "progress", {
        "done": done, "total": total, "label": label, "source": source,
    }


def _terminal_event(job: Job) -> Tuple[str, Dict[str, object]]:
    """The event that ends a finished job's stream, named after its state
    and carrying its public record so a client need not ask again."""
    if job.state == "done":
        data = {"state": "done"}
        for name in ("executed", "cached", "deduped"):
            data[name] = job.metrics.get(name)
    else:
        data = {"state": "failed", "error": job.error}
    data["job"] = job.public()
    return job.state, data


# ----------------------------------------------------------------- entrypoints


async def run_service(
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    queue_dir,
    cache: Optional[CacheBackend] = None,
    sim_jobs: int = 1,
    workers: int = 1,
    retries: int = 2,
) -> int:
    """Run a service until SIGINT/SIGTERM; used by ``python -m repro serve``."""
    service = SweepService(
        queue_dir, cache, sim_jobs=sim_jobs, workers=workers, retries=retries
    )
    await service.start(host, port)
    print(
        f"repro service listening on http://{service.host}:{service.port} "
        f"(queue: {service.queue.root}, recovered: {service.queue.recovered})",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("repro service: shutting down (requeueing in-flight jobs)", flush=True)
    await service.stop()
    print(
        f"repro service: stopped ({service.queue.pending()} job(s) left queued)",
        flush=True,
    )
    return 0


class BackgroundService:
    """A service on a daemon thread with its own event loop.

    The harness tests and example scripts use this to run client code
    against a real server in one process::

        with BackgroundService(queue_dir, cache=backend) as svc:
            client = ServiceClient(port=svc.port)
            ...
    """

    def __init__(self, queue_dir, cache: Optional[CacheBackend] = None, **kwargs):
        self._queue_dir = queue_dir
        self._cache = cache
        self._kwargs = kwargs
        self.service: Optional[SweepService] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "BackgroundService":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service did not come up within 30s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    async def _main(self) -> None:
        try:
            self.service = SweepService(self._queue_dir, self._cache, **self._kwargs)
            await self.service.start()
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._error = exc
            self._ready.set()
            return
        self.port = self.service.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)
            if self._thread.is_alive():  # pragma: no cover
                print("warning: service thread did not stop", file=sys.stderr)

    def __enter__(self) -> "BackgroundService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

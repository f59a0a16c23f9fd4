"""repro.client — a small blocking client for the sweep service.

Talks the versioned wire surface of :mod:`repro.service` with nothing
but the stdlib::

    from repro.client import ServiceClient

    client = ServiceClient(port=8787)
    job = client.submit_sweep(rates=[0.01, 0.03], warmup=300, measure=1200)
    done = client.wait(job["id"], on_progress=print)   # streams SSE
    rows = client.result(job["id"])["result"]["points"]

``submit_*`` return the job's public record immediately (the server
answers 202 before simulating anything; a request it can answer from
its cache alone comes back already ``done``, its result in the same
answer).  :meth:`ServiceClient.wait` follows the job's
Server-Sent-Events stream — history replays first and a finished job's
stream always ends with its terminal event, which carries the record
and, for a ``done`` job, the result — so attaching after completion (or
after a server restart) still terminates.  Server-side schema
violations surface as :class:`ServiceError` carrying the server's
actionable message.

A client does not ask for what it has already been told.  It keeps the
latest answered job in one slot: its id, record and result, from the
last ``submit_*`` or ``wait`` whose answer carried a result.
``wait(id)`` without ``on_progress`` returns the slot's record, and
``result(id)`` hands out the slot's result once, without a request.  So
a warm job costs one request (the ``POST``) and a cold one two (the
``POST`` and its event stream).  Any other id, a progress callback, or
an answer without a result (an older server) goes over the wire.  There
is one slot per client, not per thread: a thread whose job another
thread's submit has displaced from the slot asks the server instead.

A client keeps its connections open between requests, so a script that
runs job after job talks over one TCP connection.
"""

from __future__ import annotations

import copy
import http.client
import json
import queue
import threading
import weakref
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.service.schemas import SWEEP_REQUEST_SCHEMA, WORKLOAD_REQUEST_SCHEMA

#: SSE events that end a job stream.
TERMINAL_EVENTS = ("done", "failed")

#: idle connections a client keeps for reuse; any more are closed.
MAX_IDLE_CONNECTIONS = 4

ProgressCb = Callable[[Dict[str, object]], None]


def _close_idle(idle: queue.LifoQueue) -> None:
    while True:
        try:
            idle.get_nowait().close()
        except queue.Empty:
            return


class ServiceError(RuntimeError):
    """A non-2xx response (or a failed job) from the sweep service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Blocking HTTP/JSON + SSE client for one sweep service endpoint.

    Each request borrows an idle kept-alive connection (or opens one)
    and gives it back once its response is read to the end, so a
    half-read :meth:`stream` never shares its socket with another call.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 300.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: queue.LifoQueue = queue.LifoQueue(MAX_IDLE_CONNECTIONS)
        #: the latest answered job: ``(id, record, result payload)``, the
        #: payload None once :meth:`result` has handed it out
        self._slot: Optional[Tuple[str, Dict, Optional[Dict]]] = None
        self._slot_lock = threading.Lock()
        # a client dropped without close() closes its sockets all the same
        weakref.finalize(self, _close_idle, self._idle)

    def close(self) -> None:
        """Close the idle connections; the client stays usable."""
        _close_idle(self._idle)

    # ------------------------------------------------------------------ #

    def _open(self, method: str, path: str, body: Optional[Dict] = None):
        """Send one request; returns ``(conn, response)`` with the
        response's head read — hand both to :meth:`_release` after.

        A request on a reused connection that fails before any answer
        (the server closed the connection while it sat idle) is sent
        once more, on a new connection.
        """
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}

        def send(conn):
            conn.request(method, path, body=payload, headers=headers)
            return conn, conn.getresponse()

        try:
            conn = self._idle.get_nowait()
        except queue.Empty:
            pass
        else:
            try:
                return send(conn)
            except ConnectionError:  # http.client.RemoteDisconnected among them
                conn.close()
        return send(
            http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        )

    def _release(self, conn, response) -> None:
        """Keep ``conn`` for the next request if ``response`` was read to
        its end and the server keeps the connection open; else close it."""
        if response.isclosed() and not response.will_close:
            try:
                self._idle.put_nowait(conn)
                return
            except queue.Full:
                pass
        conn.close()

    def _request(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        conn, response = self._open(method, path, body)
        try:
            data = response.read()
        finally:
            self._release(conn, response)
        payload = json.loads(data.decode("utf-8")) if data else {}
        if response.status >= 400:
            raise ServiceError(
                response.status, payload.get("error", "unexpected error")
            )
        return payload

    # ------------------------------------------------------------------ #

    def _keep(
        self, record: Optional[Dict[str, object]], answer: Dict[str, object]
    ) -> None:
        """Put ``record`` and the result ``answer`` carries in the slot;
        an answer without a result empties it."""
        slot = None
        if "result" in answer:
            job_id = record["id"]
            slot = (job_id, copy.deepcopy(record),
                    {"id": job_id, "result": answer["result"]})
        with self._slot_lock:
            self._slot = slot

    def _submit(self, path: str, request: Dict) -> Dict[str, object]:
        answer = self._request("POST", path, request)
        self._keep(answer["job"], answer)
        return answer["job"]

    def submit_sweep(self, **request) -> Dict[str, object]:
        """``POST /v1/sweeps``; returns the accepted job record.

        A job the server finished on the submit path comes back with its
        result, which the slot keeps for :meth:`wait` and :meth:`result`.
        """
        request.setdefault("schema", SWEEP_REQUEST_SCHEMA)
        return self._submit("/v1/sweeps", request)

    def submit_workload(self, **request) -> Dict[str, object]:
        """``POST /v1/workloads``; returns the accepted job record (and
        keeps a finished job's result, as :meth:`submit_sweep` does)."""
        request.setdefault("schema", WORKLOAD_REQUEST_SCHEMA)
        return self._submit("/v1/workloads", request)

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> list:
        return self._request("GET", "/v1/jobs")["jobs"]

    def result(self, job_id: str) -> Dict[str, object]:
        """The completed job's ``{"id", "result"}`` (409 -> ServiceError
        while running).

        Taken from the slot, without a request, when the latest answer
        was this job's and its result has not been handed out yet; the
        slot gives each result out once, so a second call asks the server.
        """
        with self._slot_lock:
            slot = self._slot
            if slot is not None and slot[0] == job_id and slot[2] is not None:
                self._slot = (slot[0], slot[1], None)
                return slot[2]
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def stats(self) -> Dict[str, object]:
        return self._request("GET", "/v1/stats")

    def health(self) -> bool:
        try:
            return bool(self._request("GET", "/v1/healthz").get("ok"))
        except (OSError, ServiceError):
            return False

    # ------------------------------------------------------------------ #

    def stream(self, job_id: str) -> Iterator[Tuple[str, Dict[str, object]]]:
        """Yield ``(event, data)`` from the job's SSE stream.

        Ends after a terminal event (``done`` / ``failed``) or when the
        server closes the connection (shutdown).
        """
        conn, response = self._open("GET", f"/v1/jobs/{job_id}/events")
        try:
            if response.status >= 400:
                payload = json.loads(response.read().decode("utf-8") or "{}")
                raise ServiceError(
                    response.status, payload.get("error", "unexpected error")
                )
            event: Optional[str] = None
            data: list = []
            while True:
                raw = response.readline()
                if not raw:
                    return
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data.append(line[len("data:"):].strip())
                elif not line and event is not None:
                    payload = json.loads("\n".join(data)) if data else {}
                    if event in TERMINAL_EVENTS and not response.will_close:
                        response.read()  # a finished job's sized response: its end
                    yield event, payload
                    if event in TERMINAL_EVENTS:
                        return
                    event, data = None, []
        finally:
            self._release(conn, response)

    def wait(
        self, job_id: str, on_progress: Optional[ProgressCb] = None
    ) -> Dict[str, object]:
        """Follow the job's stream to completion; returns the final job.

        Without ``on_progress``, a job whose record and result the slot
        holds is answered from it — a copy of the record — with no
        request.  Otherwise the stream is followed: its terminal event
        carries the job's record, and a ``done`` job's result, which the
        slot keeps, so no further request is made.  Raises
        :class:`ServiceError` if the job failed.  If the stream closed
        without a terminal event (server shutdown requeued the job), the
        record is fetched instead and its ``state`` says so — callers
        can resubscribe after the service restarts.
        """
        slot = self._slot
        if on_progress is None and slot is not None and slot[0] == job_id:
            return copy.deepcopy(slot[1])
        job = None
        for event, data in self.stream(job_id):
            if event == "progress" and on_progress is not None:
                on_progress(data)
            elif event in TERMINAL_EVENTS:
                job = data.get("job")
                self._keep(job, data)
        if job is None:
            job = self.job(job_id)
        if job["state"] == "failed":
            raise ServiceError(409, f"job {job_id} failed: {job['error']}")
        return job

"""Kept-alive service connections and the bounds on reading a request.

One ``ServiceClient`` runs job after job over one TCP connection.  The
server answers what it cannot frame — an oversized line, too many
headers, a request that stops arriving — with an HTTP status and hangs
up, and it closes connections left idle.  Timeouts are patched to a
fraction of a second; work is asserted as counts.
"""

import json
import re
import socket
import time

import pytest

from repro.client import ServiceClient
from repro.exp.backends import MemoryBackend
from repro.service import BackgroundService
from repro.service import app

from .test_service_warm_path import SWEEP, fake_row, raw_exchange, run_job


def responses(data: bytes):
    """Split what one connection answered into ``(head, body)`` pairs."""
    pairs = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        pairs.append((head, rest[:length]))
        data = rest[length:]
    return pairs


def read_until_closed(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def warm_service(tmp_path):
    return BackgroundService(
        tmp_path / "queue", cache=MemoryBackend(), execute=fake_row
    )


class TestKeepAlive:
    def test_one_client_runs_twenty_warm_jobs_over_one_connection(self, tmp_path):
        with warm_service(tmp_path) as svc:
            filler = ServiceClient(port=svc.port, timeout=30)
            run_job(filler, **SWEEP)
            before = filler.stats()["totals"]["connections"]

            client = ServiceClient(port=svc.port, timeout=30)
            for _ in range(20):
                accepted, done, _ = run_job(client, **SWEEP)
                assert accepted["state"] == done["state"] == "done"
            assert client.stats()["totals"]["connections"] == before + 1

    def test_request_after_the_server_closed_an_idle_connection(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(app, "KEEPALIVE_IDLE_S", 0.2)
        with warm_service(tmp_path) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            run_job(client, **SWEEP)
            jobs = len(client.jobs())
            before = client.stats()["totals"]["connections"]
            time.sleep(0.6)  # the server closes the kept connection meanwhile

            accepted = client.submit_sweep(**SWEEP)
            assert accepted["state"] == "done"
            assert len(client.jobs()) == jobs + 1  # sent again, taken in once
            assert client.stats()["totals"]["connections"] == before + 1

    def test_stop_closes_an_idle_client_connection_at_once(self, tmp_path):
        svc = BackgroundService(tmp_path / "queue").start()
        client = ServiceClient(port=svc.port, timeout=30)
        try:
            assert client.health()
            held = client._idle.get_nowait()  # the connection it keeps
        finally:
            start = time.monotonic()
            svc.stop()
        assert time.monotonic() - start < 1.0
        assert not svc._thread.is_alive()
        held.sock.settimeout(5)
        assert held.sock.recv(1) == b""  # closed by the server, no answer
        held.close()

    def test_http_1_0_request_closes_after_its_response(self, tmp_path):
        with BackgroundService(tmp_path / "queue") as svc:
            answer = raw_exchange(svc.port, b"GET /v1/healthz HTTP/1.0\r\n\r\n")
        [(head, body)] = responses(answer)
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head
        assert json.loads(body) == {"ok": True}

    def test_requests_in_sequence_on_one_socket_are_all_answered(self, tmp_path):
        with warm_service(tmp_path) as svc:
            client = ServiceClient(port=svc.port, timeout=30)
            run_job(client, **SWEEP)
            warm = client.submit_sweep(**SWEEP)
            # sent in one write: the second request waits in the buffer
            answer = raw_exchange(
                svc.port,
                f"GET /v1/jobs/{warm['id']}/events HTTP/1.1\r\n\r\n"
                "GET /v1/healthz HTTP/1.1\r\n\r\n"
                "GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n".encode(),
            )
        (events_head, events), (health_head, health), (stats_head, stats) = (
            responses(answer)
        )
        # a finished job's stream is one sized response on a kept connection
        assert b"Content-Type: text/event-stream" in events_head
        assert events.startswith(b"event: state\n")
        assert events.endswith(b"\n\n") and b"event: done\n" in events
        assert json.loads(health) == {"ok": True}
        assert json.loads(stats)["totals"]["completed"] == 2
        assert b"Connection: close" not in events_head + health_head
        assert b"Connection: close" in stats_head

    def test_idle_connection_closes_without_a_response(self, tmp_path, monkeypatch):
        monkeypatch.setattr(app, "KEEPALIVE_IDLE_S", 0.2)
        with BackgroundService(tmp_path / "queue") as svc:
            with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                start = time.monotonic()
                answer = read_until_closed(sock)
        assert time.monotonic() - start < 4
        [(head, _)] = responses(answer)  # the one answer, then nothing
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")


class TestRequestBounds:
    """Each bound is answered with a status, then the connection closes
    (before: a 70 KB header line raised into asyncio and the client read
    zero bytes; a half-sent request held its connection forever)."""

    @pytest.mark.parametrize("request_head, status", [
        (b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
         b"431 Request Header Fields Too Large"),
        (b"GET /v1/healthz HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(app.MAX_HEADERS + 1))
         + b"\r\n",
         b"431 Request Header Fields Too Large"),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", b"400 Bad Request"),
        (b"POST /v1/sweeps HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", b"411 Length Required"),
    ], ids=["header-line", "header-count", "request-line", "chunked-body"])
    def test_unframeable_request_is_answered_then_closed(
        self, tmp_path, request_head, status
    ):
        with BackgroundService(tmp_path / "queue") as svc:
            answer = raw_exchange(svc.port, request_head)
            [(head, body)] = responses(answer)
            assert head.startswith(b"HTTP/1.1 " + status + b"\r\n")
            assert b"Connection: close" in head
            assert json.loads(body)["error"]
            assert ServiceClient(port=svc.port).health()

    def test_headers_up_to_the_limit_are_read(self, tmp_path):
        extra = app.MAX_HEADERS - 1  # plus Connection: close
        with BackgroundService(tmp_path / "queue") as svc:
            answer = raw_exchange(
                svc.port,
                b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n"
                + b"".join(b"X-H%d: v\r\n" % i for i in range(extra)) + b"\r\n",
            )
        assert answer.startswith(b"HTTP/1.1 200 OK\r\n")

    @pytest.mark.parametrize("partial", [
        b"GET /v1/heal",
        b"GET /v1/healthz HTTP/1.1\r\nHost: local",
        b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
    ], ids=["request-line", "headers", "body"])
    def test_half_sent_request_is_a_408(self, tmp_path, monkeypatch, partial):
        monkeypatch.setattr(app, "REQUEST_TIMEOUT_S", 0.2)
        with BackgroundService(tmp_path / "queue") as svc:
            start = time.monotonic()
            answer = raw_exchange(svc.port, partial)
            assert time.monotonic() - start < 4
            [(head, body)] = responses(answer)
            assert head.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
            assert "0.2 s" in json.loads(body)["error"]
            assert ServiceClient(port=svc.port).health()

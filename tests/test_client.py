"""repro.client: backoff math, retry semantics, deadlines, keep-alive, counters."""

import asyncio
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.client import (
    AsyncReproClient,
    ReproClient,
    Response,
    RetriesExhausted,
    RetryPolicy,
)
from repro.faults import FaultPlan, FaultSpec, ReproFaults


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Pops one (status, headers, body) per request; 200 b"ok" when empty."""

    def _serve(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0) or 0))
        script = self.server.script  # type: ignore[attr-defined]
        status, headers, body = script.pop(0) if script else (200, {}, b"ok")
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _serve

    def log_message(self, *args):  # keep pytest output clean
        pass


class _KeepAliveHandler(_ScriptedHandler):
    """HTTP/1.1 persistent connections; counts TCP accepts on the server."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connections += 1  # type: ignore[attr-defined]


class _FlakyKeepAliveHandler(_KeepAliveHandler):
    """Advertises keep-alive but hangs up after every response — the
    stale-cached-connection scenario the client must replay through."""

    def _flaky_serve(self):
        self._serve()
        self.close_connection = True

    # Rebind: the parent's do_GET aliases its own _serve directly.
    do_GET = do_POST = _flaky_serve


def _serve_in_thread(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.script = []  # type: ignore[attr-defined]
    server.connections = 0  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture()
def scripted_server():
    server, thread = _serve_in_thread(_ScriptedHandler)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def keepalive_server():
    server, thread = _serve_in_thread(_KeepAliveHandler)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def flaky_keepalive_server():
    server, thread = _serve_in_thread(_FlakyKeepAliveHandler)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _client(server, **policy_kw) -> ReproClient:
    policy_kw.setdefault("base_s", 0.01)
    policy_kw.setdefault("cap_s", 0.05)
    host, port = server.server_address
    return ReproClient(host, port, policy=RetryPolicy(**policy_kw), seed=1)


class TestBackoffMath:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_s=0.1, multiplier=2.0, cap_s=0.5, jitter=0.0)
        assert [policy.backoff_s(a) for a in (1, 2, 3, 4, 5)] == [
            0.1, 0.2, 0.4, 0.5, 0.5,
        ]

    def test_jitter_only_shrinks(self):
        import random

        policy = RetryPolicy(base_s=1.0, jitter=0.5)
        rng = random.Random(0)
        pauses = [policy.backoff_s(1, rng=rng) for _ in range(50)]
        assert all(0.5 <= p <= 1.0 for p in pauses)
        assert len(set(pauses)) > 1  # actually randomized

    def test_retry_after_overrides_when_larger_and_is_capped(self):
        policy = RetryPolicy(base_s=0.1, jitter=0.0, retry_after_cap_s=3.0)
        assert policy.backoff_s(1, retry_after=2.0) == 2.0
        assert policy.backoff_s(1, retry_after=600.0) == 3.0  # capped
        assert policy.backoff_s(5, retry_after=0.001) == pytest.approx(0.1 * 2**4)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)


class TestResponse:
    def test_json_ok_retry_after(self):
        resp = Response(503, {"retry-after": "2.5"}, b'{"k": 1}')
        assert not resp.ok
        assert resp.json() == {"k": 1}
        assert resp.retry_after_s() == 2.5
        assert Response(200, {"retry-after": "soon"}).retry_after_s() is None


class TestSyncRetries:
    def test_retries_503_until_success(self, scripted_server):
        scripted_server.script[:] = [(503, {}, b"drain"), (503, {}, b"drain")]
        client = _client(scripted_server, max_attempts=5)
        resp = client.get("/healthz")
        assert resp.status == 200 and resp.body == b"ok"
        # The scripted server speaks HTTP/1.0 (Connection: close), so every
        # attempt pays a fresh connect — hence conn_opens == attempts.
        assert client.stats == {"requests": 1, "retries": 2, "gave_up": 0, "conn_opens": 3}

    def test_retries_429_too(self, scripted_server):
        scripted_server.script[:] = [(429, {"Retry-After": "0"}, b"busy")]
        resp = _client(scripted_server).get("/compress")
        assert resp.status == 200

    def test_honors_retry_after_pause(self, scripted_server):
        scripted_server.script[:] = [(503, {"Retry-After": "0.3"}, b"")]
        client = _client(scripted_server, jitter=0.0)
        t0 = time.monotonic()
        assert client.get("/x").status == 200
        assert time.monotonic() - t0 >= 0.25

    def test_persistent_503_returns_last_response_and_gives_up(self, scripted_server):
        scripted_server.script[:] = [(503, {}, b"still draining")] * 10
        client = _client(scripted_server, max_attempts=3, jitter=0.0)
        resp = client.get("/stats")
        # No exception: the caller gets the final 503 to record, plus counters.
        assert resp.status == 503 and resp.body == b"still draining"
        assert client.stats == {"requests": 1, "retries": 2, "gave_up": 1, "conn_opens": 3}

    def test_non_retryable_status_returned_immediately(self, scripted_server):
        scripted_server.script[:] = [(404, {}, b"nope"), (200, {}, b"never reached")]
        client = _client(scripted_server)
        assert client.get("/archives/missing").status == 404
        assert client.stats["retries"] == 0

    def test_transport_failure_raises_retries_exhausted(self):
        # Nothing listens on the port: every attempt is a connection refusal.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = ReproClient(
            "127.0.0.1", dead_port, policy=RetryPolicy(max_attempts=2, base_s=0.01), seed=0
        )
        with pytest.raises(RetriesExhausted) as err:
            client.get("/healthz")
        assert err.value.attempts == 2
        assert isinstance(err.value.last_error, OSError)
        assert client.stats["gave_up"] == 1

    def test_deadline_stops_retrying_early(self, scripted_server):
        scripted_server.script[:] = [(503, {"Retry-After": "5"}, b"")] * 10
        client = _client(scripted_server, max_attempts=10, jitter=0.0)
        t0 = time.monotonic()
        resp = client.get("/x", deadline_s=0.2)
        # The 5 s Retry-After pause would cross the 0.2 s deadline, so the
        # loop stops after the first attempt instead of sleeping through it.
        assert resp.status == 503
        assert time.monotonic() - t0 < 1.0
        assert client.stats == {"requests": 1, "retries": 0, "gave_up": 1, "conn_opens": 1}

    def test_injected_conn_reset_is_retried(self, scripted_server):
        plan = FaultPlan([FaultSpec("client.request", "conn-reset", at=1)], seed=3)
        client = _client(scripted_server, max_attempts=3)
        with ReproFaults(plan, env=False):
            resp = client.get("/healthz")
        assert resp.status == 200
        assert client.stats["retries"] == 1


class TestKeepAlive:
    """The satellite regression suite: sequential requests reuse one socket."""

    def test_sequential_requests_reuse_one_connection(self, keepalive_server):
        client = _client(keepalive_server)
        for _ in range(5):
            assert client.get("/healthz").status == 200
        assert client.stats == {"requests": 5, "retries": 0, "gave_up": 0, "conn_opens": 1}
        # Server-side proof: five requests, one TCP accept.
        assert keepalive_server.connections == 1
        client.close()

    def test_close_drops_cached_connection(self, keepalive_server):
        client = _client(keepalive_server)
        with client:
            assert client.get("/x").status == 200
        assert client.get("/y").status == 200  # reopens transparently
        assert client.stats["conn_opens"] == 2
        assert keepalive_server.connections == 2
        client.close()

    def test_http10_server_degrades_to_per_request_connections(self, scripted_server):
        client = _client(scripted_server)
        for _ in range(3):
            assert client.get("/healthz").status == 200
        assert client.stats["conn_opens"] == 3

    def test_stale_cached_connection_is_replayed_not_retried(self, flaky_keepalive_server):
        # The server advertises keep-alive but hangs up after each response;
        # writing to the stale socket must replay on a fresh connection
        # inside the same attempt — no retry, no RetriesExhausted.
        client = _client(flaky_keepalive_server, max_attempts=1)
        for _ in range(4):
            assert client.get("/healthz").status == 200
        assert client.stats["requests"] == 4
        assert client.stats["retries"] == 0
        assert client.stats["conn_opens"] == 4
        client.close()

    def test_retry_counters_still_work_over_keepalive(self, keepalive_server):
        keepalive_server.script[:] = [(503, {}, b"drain")]
        client = _client(keepalive_server, max_attempts=3)
        assert client.get("/stats").status == 200
        assert client.stats == {"requests": 1, "retries": 1, "gave_up": 0, "conn_opens": 1}
        client.close()


class TestAsyncClient:
    def _async_client(self, server, **policy_kw) -> AsyncReproClient:
        policy_kw.setdefault("base_s", 0.01)
        host, port = server.server_address
        return AsyncReproClient(host, port, policy=RetryPolicy(**policy_kw), seed=2)

    def test_roundtrip_and_retry(self, scripted_server):
        scripted_server.script[:] = [(503, {}, b"drain")]
        client = self._async_client(scripted_server, max_attempts=4)
        resp = asyncio.run(client.post("/compress", b"body"))
        assert resp.status == 200 and resp.body == b"ok"
        assert client.stats == {"requests": 1, "retries": 1, "gave_up": 0, "conn_opens": 2}

    def test_transport_failure_raises(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        client = AsyncReproClient(
            "127.0.0.1", dead_port, policy=RetryPolicy(max_attempts=2, base_s=0.01)
        )
        with pytest.raises(RetriesExhausted):
            asyncio.run(client.get("/healthz"))

    def test_headers_lowercased(self, scripted_server):
        scripted_server.script[:] = [(200, {"X-Repro-Codec": "cusz-hi"}, b"")]
        client = self._async_client(scripted_server)
        resp = asyncio.run(client.get("/x"))
        assert resp.headers["x-repro-codec"] == "cusz-hi"

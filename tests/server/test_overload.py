"""Overload and drain guardrails: 429 under saturation, 503 on expired
deadlines, graceful SIGTERM drain with in-flight completion.

The scenarios drive a real server past its admission bound with genuinely
concurrent TCP requests, so the tests prove the guardrails under the same
conditions production sees — not by calling private methods.
"""

from __future__ import annotations

import asyncio
import os
import signal

import numpy as np
import pytest


@pytest.fixture()
def field32():
    """Big enough that one compress takes tens of milliseconds — concurrent
    requests genuinely overlap inside the admission window."""
    rng = np.random.default_rng(11)
    return rng.normal(size=(32, 32, 32)).astype(np.float32)


def _compress_target(field: np.ndarray) -> str:
    return f"/compress?shape={','.join(map(str, field.shape))}&eb=1e-3"


class TestAdmissionControl:
    def test_saturated_queue_gets_429_with_retry_after(self, serve, http, field32):
        """queue_depth=1: of 6 concurrent compresses, the overflow gets 429 +
        a Retry-After estimate while admitted ones still succeed."""

        async def scenario(server):
            responses = await asyncio.gather(
                *[
                    http(server, "POST", _compress_target(field32), field32.tobytes())
                    for _ in range(6)
                ]
            )
            stats = (await http(server, "GET", "/stats")).json()
            return responses, stats

        responses, stats = serve(scenario, queue_depth=1)
        statuses = sorted(r.status for r in responses)
        assert 200 in statuses, "admitted requests must still complete"
        assert 429 in statuses, "overflow must be refused, not queued forever"
        for resp in responses:
            if resp.status == 429:
                retry_after = int(resp.headers["retry-after"])
                assert 1 <= retry_after <= 60
                assert b"error" in resp.body
        assert stats["admission"]["rejected_429"] == statuses.count(429)
        assert stats["responses"]["4xx"] >= statuses.count(429)

    def test_pooled_saturation_gets_429(self, serve, http, field32):
        """The same bound holds when admission is enforced by the pool."""

        async def scenario(server):
            responses = await asyncio.gather(
                *[
                    http(server, "POST", _compress_target(field32), field32.tobytes())
                    for _ in range(8)
                ]
            )
            stats = (await http(server, "GET", "/stats")).json()
            return responses, stats

        responses, stats = serve(scenario, worker_procs=2, queue_depth=2)
        statuses = [r.status for r in responses]
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 2
        assert statuses.count(429) >= 1
        assert stats["pool"]["rejected"] == statuses.count(429)
        for resp in responses:
            if resp.status == 429:
                assert 1 <= int(resp.headers["retry-after"]) <= 60


class TestDeadlines:
    def test_expired_deadline_gets_503_single_process(self, serve, http, field32):
        """deadline_ms=1 cannot cover a real compress: 503, counted."""

        async def scenario(server):
            resp = await http(server, "POST", _compress_target(field32), field32.tobytes())
            stats = (await http(server, "GET", "/stats")).json()
            return resp, stats

        resp, stats = serve(scenario, deadline_ms=1.0)
        assert resp.status == 503
        assert b"deadline" in resp.body
        assert stats["admission"]["expired_503"] == 1

    def test_expired_deadline_gets_503_pooled(self, serve, http, field32):
        """A 1 ms deadline cannot cover a pooled compress: the frontend
        answers 503 at the deadline, and the abandoned task is eventually
        accounted by the pool — ``expired`` if the worker pre-checked it at
        dequeue, ``late_results`` if it computed an answer nobody wanted."""

        async def scenario(server):
            resp = await http(server, "POST", _compress_target(field32), field32.tobytes())
            for _ in range(100):  # the worker's verdict races the 503
                stats = (await http(server, "GET", "/stats")).json()
                if stats["pool"]["expired"] + stats["pool"]["late_results"] >= 1:
                    break
                await asyncio.sleep(0.05)
            return resp, stats

        resp, stats = serve(scenario, worker_procs=2, deadline_ms=1.0)
        assert resp.status == 503
        assert b"deadline" in resp.body
        assert stats["admission"]["expired_503"] == 1
        assert stats["pool"]["expired"] + stats["pool"]["late_results"] == 1
        assert stats["pool"]["completed"] == 0

    def test_pooled_deadline_covers_started_work(self, serve, http):
        """A task a worker *starts* in time but cannot finish in budget still
        gets 503 — the deadline bounds total latency, not just queue wait —
        and the worker's unwanted answer is counted as a late result.

        An injected one-second stall (``repro.faults``) stands in for the
        slow compress, so the timing holds on any hardware: the payload is
        tiny (dequeue happens well inside the deadline, passing the worker's
        pre-check), the stall then burns the whole budget mid-task, and the
        worker's eventual answer arrives after the frontend gave up."""
        from repro.faults import FaultPlan, FaultSpec, ReproFaults

        tiny = np.zeros((8, 8, 8), dtype=np.float32)
        plan = FaultPlan(
            [FaultSpec("pool.worker-task", "stall", at=1, count=1, arg=1.0)], seed=7
        )

        async def scenario(server):
            resp = await http(server, "POST", _compress_target(tiny), tiny.tobytes())
            for _ in range(200):  # wait for the worker to finish the unwanted work
                stats = (await http(server, "GET", "/stats")).json()
                if stats["pool"]["late_results"] >= 1:
                    break
                await asyncio.sleep(0.05)
            return resp, stats

        with ReproFaults(plan):
            resp, stats = serve(scenario, worker_procs=2, deadline_ms=200.0)
        assert resp.status == 503
        assert b"deadline" in resp.body
        assert stats["admission"]["expired_503"] >= 1
        assert stats["pool"]["late_results"] >= 1

    def test_generous_deadline_does_not_reject(self, serve, http, field32):
        async def scenario(server):
            return await http(server, "POST", _compress_target(field32), field32.tobytes())

        assert serve(scenario, deadline_ms=60_000.0).status == 200

    def test_queued_task_past_its_deadline_is_skipped(
        self, serve, http, field32, monkeypatch
    ):
        """Single-process tasks run one at a time: a deadlined compress
        queued behind a slowed one gets 503 at its deadline, and when the
        executor reaches it the expired task is skipped before any compute
        (``pool.expired``) — it never reaches ``_run_task``."""
        import time as time_mod

        from repro.server import pool

        real_run_task = pool._run_task
        started = []

        def spy_run_task(kind, payload, cache):
            started.append(tuple(payload["shape"]))
            if tuple(payload["shape"]) == field32.shape:
                time_mod.sleep(0.8)
            return real_run_task(kind, payload, cache)

        monkeypatch.setattr(pool, "_run_task", spy_run_task)
        tiny = np.zeros((8, 8, 8), dtype=np.float32)

        async def scenario(server):
            slow = asyncio.ensure_future(
                http(server, "POST", _compress_target(field32), field32.tobytes())
            )
            while not started:  # wait until the slow task is running
                await asyncio.sleep(0.01)
            queued = await http(server, "POST", _compress_target(tiny), tiny.tobytes())
            await slow
            for _ in range(100):  # the slowed task's late answer races the scrape
                stats = (await http(server, "GET", "/stats")).json()
                if stats["pool"]["pending"] == 0:
                    break
                await asyncio.sleep(0.05)
            return queued, stats

        queued, stats = serve(scenario, deadline_ms=300.0)
        assert queued.status == 503
        assert b"deadline" in queued.body
        assert started == [field32.shape], "the expired task must not start"
        assert stats["pool"]["expired"] == 1
        assert stats["pool"]["completed"] == 0


class TestSingleProcessChaosHook:
    def test_worker_task_fault_never_fires_in_the_frontend(self, serve, http, field32):
        """``pool.worker-task`` plans target worker processes.  Single-process
        serving runs its tasks in the frontend, where the hook does not
        fire: an armed error plan leaves compress at 200."""
        from repro.faults import FaultPlan, FaultSpec, ReproFaults

        plan = FaultPlan([FaultSpec("pool.worker-task", "error", at=1, count=8)], seed=7)

        async def scenario(server):
            resp = await http(server, "POST", _compress_target(field32), field32.tobytes())
            stats = (await http(server, "GET", "/stats")).json()
            return resp, stats

        with ReproFaults(plan):
            resp, stats = serve(scenario)
        assert resp.status == 200
        assert stats["integrity"]["fault"] == 0


class TestGracefulDrain:
    def test_sigterm_finishes_inflight_and_refuses_new(
        self, serve, http, field32, monkeypatch
    ):
        """SIGTERM mid-request: the in-flight compress completes with 200,
        new work gets 503, probes stay live, then the server stops itself.

        The in-flight compress is artificially slowed (the task body
        :func:`repro.server.pool._run_task` is monkeypatched) so the drain
        window is wide enough to probe deterministically."""
        import time as time_mod

        from repro.server import pool

        real_run_task = pool._run_task

        def slow_run_task(kind, payload, cache):
            time_mod.sleep(0.6)
            return real_run_task(kind, payload, cache)

        monkeypatch.setattr(pool, "_run_task", slow_run_task)

        async def scenario(server):
            server.install_signal_handlers()
            inflight = asyncio.ensure_future(
                http(server, "POST", _compress_target(field32), field32.tobytes())
            )
            await asyncio.sleep(0.05)  # let the request reach the engine
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.sleep(0.05)  # let the drain task take effect

            health = await http(server, "GET", "/healthz")
            assert health.status == 200
            assert health.json()["status"] == "draining"
            refused = await http(server, "POST", _compress_target(field32), field32.tobytes())
            assert refused.status == 503
            assert b"draining" in refused.body
            stats = (await http(server, "GET", "/stats")).json()
            assert stats["draining"] is True
            assert stats["admission"]["draining_503"] >= 1

            completed = await inflight
            assert completed.status == 200, "in-flight request must finish during drain"
            assert server._drain_task is not None
            await server._drain_task
            assert server._server is None, "drain must stop the listener when done"
            return completed

        serve(scenario)

    def test_drain_is_idempotent(self, serve):
        """A second SIGTERM while draining must not start a second drain."""

        async def scenario(server):
            server.install_signal_handlers()
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.sleep(0.02)
            first = server._drain_task
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.sleep(0.02)
            assert server._drain_task is first
            await first
            return True

        assert serve(scenario)

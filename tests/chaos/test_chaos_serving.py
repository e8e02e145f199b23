"""Serving chaos: worker death, socket resets, and corrupt reads over HTTP.

The contract: the server answers every fault with a *typed* retryable
status (503 + ``Retry-After``, never a bare 500), surfaces the damage in
``/healthz``/``/stats``, and :class:`repro.client.AsyncReproClient` rides
the retries to a correct final answer once the fault clears.
"""

import os

import numpy as np
import pytest

from repro import compress, faults
from repro.client import AsyncReproClient, RetryPolicy
from repro.faults import FaultPlan, FaultSpec, ReproFaults
from repro.service import ArchiveStore

#: retry fast in tests: ignore the server's 1 s Retry-After hint, and give
#: up on an attempt after 15 s, so a lost task fails the test instead of
#: holding it for max_attempts x the 60 s default.
_FAST = dict(base_s=0.02, cap_s=0.2, retry_after_cap_s=0.05, attempt_timeout_s=15.0)


def _client(server, seed, **kw) -> AsyncReproClient:
    policy = RetryPolicy(**{**_FAST, **kw})
    return AsyncReproClient(server.host, server.port, policy=policy, seed=seed)


class TestWorkerDeath:
    def test_sigkilled_worker_is_typed_503_then_client_converges(
        self, serve, field16, chaos_seed, chaos_plan
    ):
        """A worker SIGKILLed mid-task must yield 503 (never 500, never a
        hang); after the plan is disarmed the retrying client gets a 200."""
        plan = chaos_plan(
            FaultPlan([FaultSpec("pool.worker-task", "kill", at=1)], seed=chaos_seed)
        )
        body = field16.tobytes()
        target = "/compress?shape=16,16,16&eb=1e-3"
        statuses = []

        async def scenario(server):
            # Attempt 1 hits the armed worker: it dies mid-task.  The pool
            # maps the death to a typed 503 and respawns.
            probe = _client(server, chaos_seed, max_attempts=1)
            first = await probe.post(target, body)
            statuses.append(first.status)
            assert first.status == 503
            assert b"died" in first.body and first.headers.get("retry-after")
            # Disarm: respawned workers from here on are clean.  Workers
            # already spawned under the armed env may each kill once more,
            # so give the client headroom to ride the respawn chain.
            faults.disarm()
            os.environ.pop(faults.ENV_VAR, None)
            retrying = _client(server, chaos_seed, max_attempts=8)
            resp = await retrying.post(target, body)
            statuses.append(resp.status)
            assert resp.status == 200
            # End to end: the surviving blob decompresses within the bound.
            back = await retrying.post("/decompress", resp.body)
            statuses.append(back.status)
            recon = np.frombuffer(back.body, dtype=np.float32).reshape(16, 16, 16)
            eb_abs = float(resp.headers["x-repro-eb-abs"])
            assert np.abs(field16 - recon).max() <= eb_abs
            stats = (await retrying.get("/stats")).json()
            assert stats["integrity"]["worker_death"] >= 1
            return stats

        with ReproFaults(plan):  # env armed -> spawned workers inherit it
            serve(scenario, worker_procs=2)  # >1 engages the process pool
        assert 500 not in statuses


class TestClientTransport:
    def test_injected_conn_reset_is_retried_transparently(
        self, serve, chaos_seed, chaos_plan
    ):
        plan = chaos_plan(
            FaultPlan([FaultSpec("client.request", "conn-reset", at=1)], seed=chaos_seed)
        )

        async def scenario(server):
            client = _client(server, chaos_seed, max_attempts=4)
            with ReproFaults(plan, env=False):
                resp = await client.get("/healthz")
            assert resp.status == 200
            assert client.stats["retries"] == 1 and client.stats["gave_up"] == 0

        serve(scenario)


class TestCorruptReads:
    def test_corrupt_archive_read_is_503_and_degrades_health(
        self, serve, tmp_path, field16, chaos_seed, chaos_plan
    ):
        """Bit rot seen while serving an archived field: typed 503 with
        Retry-After (a replica/repair may fix it), sticky ``degraded`` flag,
        ``integrity.corruption`` counter — and a clean read once the fault
        window passes.  Never a 500, never wrong bytes."""
        with ArchiveStore(str(tmp_path / "corpus.rpza"), mode="w") as arch:
            arch.add_blob("plain", compress(field16, eb=1e-3))
            eb_abs = arch.entry("plain").eb_abs  # eb=1e-3 is range-relative
        plan = chaos_plan(
            FaultPlan([FaultSpec("archive.read", "bit-flip", at=1)], seed=chaos_seed)
        )
        statuses = []

        async def scenario(server):
            assert (await _client(server, chaos_seed).get("/healthz")).json()[
                "degraded"
            ] is False
            probe = _client(server, chaos_seed, max_attempts=1)
            with ReproFaults(plan, env=False):
                resp = await probe.get("/archives/corpus/fields/plain")
                statuses.append(resp.status)
                assert resp.status == 503
                assert resp.headers.get("retry-after")
            client = _client(server, chaos_seed)
            health = (await client.get("/healthz")).json()
            assert health["degraded"] is True  # sticky until an operator looks
            stats = (await client.get("/stats")).json()
            assert stats["integrity"]["corruption"] >= 1
            # The rot was transient (injected on the read path): the retry
            # reads clean bytes and decodes within the bound.
            resp = await client.get("/archives/corpus/fields/plain")
            statuses.append(resp.status)
            assert resp.status == 200
            shape = tuple(int(d) for d in resp.headers["x-repro-shape"].split(","))
            recon = np.frombuffer(resp.body, dtype=np.float32).reshape(shape)
            assert np.abs(field16 - recon).max() <= eb_abs

        serve(scenario, archive_root=str(tmp_path))
        assert 500 not in statuses

    @pytest.mark.parametrize("kind", ["bit-flip", "short-read"])
    def test_pooled_corrupt_read_is_typed_503(
        self, serve, tmp_path, field16, chaos_seed, chaos_plan, kind
    ):
        """Same contract through the worker pool: corruption inside a worker
        crosses the process boundary as a typed 503, not a 500."""
        with ArchiveStore(str(tmp_path / "corpus.rpza"), mode="w") as arch:
            arch.add_blob("plain", compress(field16, eb=1e-3))
        plan = chaos_plan(
            FaultPlan([FaultSpec("archive.read", kind, at=1)], seed=chaos_seed)
        )
        statuses = []

        async def scenario(server):
            probe = _client(server, chaos_seed, max_attempts=1)
            resp = await probe.get("/archives/corpus/fields/plain")
            statuses.append(resp.status)
            assert resp.status == 503
            faults.disarm()
            os.environ.pop(faults.ENV_VAR, None)
            client = _client(server, chaos_seed, max_attempts=6)
            resp = await client.get("/archives/corpus/fields/plain")
            statuses.append(resp.status)
            assert resp.status == 200
            stats = (await client.get("/stats")).json()
            assert stats["integrity"]["corruption"] >= 1

        with ReproFaults(plan):  # workers arm from the environment
            serve(scenario, archive_root=str(tmp_path), worker_procs=2)
        assert 500 not in statuses

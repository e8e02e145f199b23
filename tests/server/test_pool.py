"""Worker-pool tier: pooled serving must be indistinguishable from
single-process serving — same bytes, same headers, same error mapping —
while the work actually happens in spawned processes.

These tests boot real multi-process servers (``worker_procs=2``), so they
exercise spawn, the pipe transport, the dispatcher thread and the
consistent-hash cache shards end to end.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro import api
from repro.server import STATS_SCHEMA, HashRing
from repro.server.pool import InlinePool, PoolTaskError, WorkerPool


class TestHashRing:
    def test_deterministic_and_covers_all_nodes(self):
        ring = HashRing(3)
        keys = [f"corpus.rpza|field-{i}" for i in range(128)]
        homes = [ring.node(k) for k in keys]
        assert homes == [ring.node(k) for k in keys], "routing must be deterministic"
        assert set(homes) == {0, 1, 2}, "128 keys must spread over all 3 workers"

    def test_resize_moves_few_keys(self):
        """Consistent hashing's point: adding a worker re-homes ~1/n of the
        keys, not all of them."""
        keys = [f"archive|f{i}" for i in range(256)]
        before = [HashRing(4).node(k) for k in keys]
        after = [HashRing(5).node(k) for k in keys]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        assert moved < len(keys) // 2, f"{moved}/256 keys moved on a 4 -> 5 resize"

    def test_single_node_and_validation(self):
        assert HashRing(1).node("anything") == 0
        with pytest.raises(ValueError):
            HashRing(0)


class TestPooledServing:
    def test_pooled_results_match_single_process(self, serve, http, field16, seeded_archive):
        """One scenario, every heavy endpoint: the pooled server's compress
        blob, decompress bytes, field/tile reads and /stats pool counters,
        checked against the single-process server's bytes and headers."""
        shape = ",".join(map(str, field16.shape))

        async def scenario(server):
            comp = await http(
                server, "POST", f"/compress?shape={shape}&eb=1e-3", field16.tobytes()
            )
            assert comp.status == 200
            deco = await http(server, "POST", "/decompress", comp.body)
            assert deco.status == 200
            plain = await http(server, "GET", "/archives/corpus/fields/plain")
            assert plain.status == 200
            tile = await http(server, "GET", "/archives/corpus/fields/tiled?tile=3")
            assert tile.status == 200
            again = await http(server, "GET", "/archives/corpus/fields/plain")
            assert again.status == 200
            stats = (await http(server, "GET", "/stats")).json()
            return comp, deco, plain, tile, again, stats

        single = serve(scenario, cache_bytes=1 << 20)
        pooled = serve(scenario, worker_procs=2, cache_bytes=1 << 20)

        for s_resp, p_resp in zip(single[:5], pooled[:5]):
            assert p_resp.status == s_resp.status
            assert p_resp.body == s_resp.body, "pooled responses must be byte-identical"
            assert p_resp.headers == s_resp.headers
        # Second read of the same field lands on the same shard's LRU.
        assert pooled[4].headers["x-repro-source"] == "worker-cache"

        s_stats, p_stats = single[5], pooled[5]
        assert set(s_stats["pool"]) == set(p_stats["pool"])
        assert s_stats["pool"]["workers"] == 1 and s_stats["pool"]["pids"] == [None]
        pool = p_stats["pool"]
        assert pool["workers"] == 2
        assert pool["completed"] >= 5
        assert pool["errors"] == 0 and pool["worker_restarts"] == 0
        assert pool["read_cache_hits"] >= 1
        assert len(pool["pids"]) == 2 and all(isinstance(p, int) for p in pool["pids"])

    def test_pooled_error_mapping(self, serve, http):
        """Worker-side failures map onto the single-process statuses: garbage
        container -> 400, missing archive -> 404 — never a 500."""

        async def scenario(server):
            bad = await http(server, "POST", "/decompress", b"this is not a container")
            missing = await http(server, "GET", "/archives/nope/fields/f")
            return bad, missing

        bad, missing = serve(scenario, worker_procs=2)
        assert bad.status == 400
        assert b"error" in bad.body
        assert missing.status == 404

    def test_stats_schema_is_versioned(self, serve, http, field16):
        """``repro.stats/2``: the counter sections dashboards pin, including
        the per-route latency histograms the guardrails feed."""
        shape = ",".join(map(str, field16.shape))

        async def scenario(server):
            assert (
                await http(server, "POST", f"/compress?shape={shape}&eb=1e-3", field16.tobytes())
            ).status == 200
            assert (await http(server, "GET", "/healthz")).status == 200
            assert (await http(server, "GET", "/stats")).status == 200
            # A request is observed as it completes, so the second scrape is
            # the one that can see "GET /stats" itself.
            return (await http(server, "GET", "/stats")).json()

        stats = serve(scenario)
        assert stats["schema"] == STATS_SCHEMA == "repro.stats/2"
        assert stats["draining"] is False
        admission = stats["admission"]
        assert set(admission) == {
            "queue_depth",
            "deadline_ms",
            "inflight_heavy",
            "rejected_429",
            "expired_503",
            "draining_503",
        }
        assert admission["rejected_429"] == 0 and admission["expired_503"] == 0
        compress_hist = stats["latency"]["POST /compress"]
        assert compress_hist["count"] == 1
        assert 0 < compress_hist["p50_ms"] <= compress_hist["p99_ms"] <= compress_hist["max_ms"]
        assert any(b["count"] for b in compress_hist["buckets"])
        assert stats["latency"]["GET /healthz"]["count"] == 1
        assert stats["latency"]["GET /stats"]["count"] >= 1


def test_route_key_collapses_names():
    from repro.server.app import _Request, _route_key

    cases = {
        "/archives/a.rpza": "GET /archives/{name}",
        "/archives/a/fields/temp": "GET /archives/{name}/fields/{field}",
        "/jobs/j123": "GET /jobs/{id}",
        "/stats": "GET /stats",
    }
    for target, expected in cases.items():
        req = _Request("GET", target, {}, b"")
        assert _route_key(req) == expected


def test_worker_runs_in_separate_process(serve, http):
    """The point of the tier: pooled work executes under different PIDs than
    the frontend."""
    import os

    async def scenario(server):
        stats = (await http(server, "GET", "/stats")).json()
        return stats["pool"]["pids"]

    pids = serve(scenario, worker_procs=2)
    assert os.getpid() not in pids
    assert len(set(pids)) == 2


def _compress_payload(field: np.ndarray) -> dict:
    request = api.build_request(eb=1e-3)
    return {"request": request.to_dict(), "data": field.tobytes(),
            "dtype": field.dtype.name, "shape": field.shape}


def _wavy(n: int) -> np.ndarray:
    return np.fromfunction(
        lambda i, j, k: np.sin(i / 9) * np.cos(j / 7) + k / (2 * n), (n, n, n)
    ).astype(np.float32)


class TestInlinePool:
    """The single-process tier's executor, driven without HTTP."""

    def test_single_task_round_trips(self, field16):
        async def main():
            pool = InlinePool(cache_bytes=0)
            pool.start()
            try:
                blob = await pool.submit("compress", _compress_payload(field16))
                back = await pool.submit("decompress", {"data": blob["payload"]})
                return blob, back, pool.stats()
            finally:
                pool.close()

        blob, back, stats = asyncio.run(main())
        assert blob["payload"] == api.compress(field16, eb=1e-3).to_bytes()
        out = np.frombuffer(back["payload"], dtype=back["dtype"]).reshape(back["shape"])
        assert out.shape == field16.shape
        assert np.max(np.abs(out - field16)) <= blob["eb_abs"] * (1 + 1e-6)
        assert stats["completed"] == 2 and stats["pending"] == 0
        assert stats["pids"] == [None], "the inline tier spawns no process"

    def test_task_submitted_while_one_runs_is_not_starved(self):
        """A task submitted while earlier ones are computing completes
        without any further submissions."""

        async def main():
            pool = InlinePool()
            pool.start()
            try:
                big = _compress_payload(_wavy(48))
                first_wave = [pool.submit("compress", big) for _ in range(2)]
                await asyncio.sleep(0.05)  # the executor thread is busy
                late = pool.submit("compress", _compress_payload(_wavy(16)))
                results = await asyncio.wait_for(
                    asyncio.gather(*first_wave, late), timeout=60
                )
                return results, pool.stats()
            finally:
                pool.close()

        results, stats = asyncio.run(main())
        assert len(results) == 3 and all(r["payload"] for r in results)
        assert stats["dispatched"] == stats["completed"] == 3
        assert stats["errors"] == stats["expired"] == 0

    def test_tasks_run_one_at_a_time_in_arrival_order(self, monkeypatch):
        """One executor thread off the event loop: the smallest task,
        submitted first, runs first (no largest-first reordering)."""
        import threading

        from repro.server import pool as pool_mod

        seen = []
        real = pool_mod._run_task

        def recording(kind, payload, cache):
            seen.append((tuple(payload["shape"]), threading.current_thread().name))
            return real(kind, payload, cache)

        monkeypatch.setattr(pool_mod, "_run_task", recording)
        sizes = [8, 32, 16]

        async def main():
            pool = InlinePool()
            pool.start()
            try:
                futures = [pool.submit("compress", _compress_payload(_wavy(n))) for n in sizes]
                return await asyncio.wait_for(asyncio.gather(*futures), timeout=60)
            finally:
                pool.close()

        asyncio.run(main())
        assert [shape for shape, _ in seen] == [(n, n, n) for n in sizes]
        threads = {name for _, name in seen}
        assert len(threads) == 1
        assert threads.pop().startswith("repro-inline")


def test_no_task_is_lost_when_workers_are_sigkilled(field16):
    """SIGKILL workers while tasks stream in, with more workers than cores:
    every future resolves within the timeout, to a result or to a typed
    worker-death 503, and respawned workers keep serving.  A respawn that
    reused a queue or pipe the dead worker held a lock on, or a task routed
    into a queue being replaced, would leave a future unresolved."""
    blob = api.compress(field16, api.build_request(eb=1e-3)).to_bytes()
    want = api.decompress(blob).tobytes()
    pool = WorkerPool(3, queue_depth=256)
    pool.start()
    try:

        async def stream():
            futures = []
            for i in range(90):
                futures.append(pool.submit("decompress", {"data": blob}))
                if i in (5, 25, 50):
                    os.kill(pool.stats()["pids"][i % 3], signal.SIGKILL)
                await asyncio.sleep(0.005)
            return await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), timeout=90
            )

        results = asyncio.run(stream())
        deaths = [r for r in results if isinstance(r, PoolTaskError)]
        assert all(e.status == 503 and e.kind == "worker-death" for e in deaths)
        served = [r for r in results if isinstance(r, dict)]
        assert len(served) + len(deaths) == len(results)
        assert all(r["payload"] == want for r in served)
        assert pool.stats()["worker_restarts"] >= 1

        async def after():
            return await asyncio.wait_for(pool.submit("decompress", {"data": blob}), timeout=60)

        assert asyncio.run(after())["payload"] == want
    finally:
        pool.close()


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie: the process that adopts an
    orphan (PID 1 in a container) may never reap it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _announced_port(proc: subprocess.Popen, deadline_s: float) -> int:
    """The port in the ``serving ... on http://HOST:PORT`` line."""
    seen = []
    end = time.monotonic() + deadline_s
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while time.monotonic() < end:
            if not sel.select(timeout=max(0.0, end - time.monotonic())):
                continue
            line = proc.stdout.readline()
            if not line:
                break
            seen.append(line)
            match = re.search(r"http://[^\s/]+:(\d+)", line)
            if match:
                return int(match.group(1))
    raise AssertionError("server announced no port: " + "".join(seen)[-2000:])


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states in /proc")
def test_workers_exit_when_the_frontend_is_sigkilled(tmp_path):
    """A SIGKILLed frontend sends its workers no sentinel; they must notice
    their parent is gone and exit instead of living on as orphans."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(tmp_path), "--port", "0",
         "--workers-procs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    pids: list[int] = []
    try:
        port = _announced_port(proc, deadline_s=120)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/stats")
            pids = json.loads(conn.getresponse().read())["pool"]["pids"]
        finally:
            conn.close()
        assert len(pids) == 2 and proc.pid not in pids
        proc.kill()
        proc.wait(timeout=10)
        end = time.monotonic() + 10
        while time.monotonic() < end and not all(_exited(p) for p in pids):
            time.sleep(0.05)
        assert [p for p in pids if not _exited(p)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in pids:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)
        proc.stdout.close()

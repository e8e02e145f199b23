"""Async compression service benchmark (PR 3 acceptance).

Boots a real :class:`repro.server.ReproServer` on localhost, seeds an archive
with a plain and a tiled field, then fires a concurrent mixed workload —
whole-field reads, single-tile reads, compress round-trips and health probes
— over raw TCP connections.  Reports request throughput for the cold pass
and for a hot pass in which every read is served from the byte-budgeted LRU
cache, plus the cache hit rate the ``/stats`` endpoint observed.

There is no speedup assertion (a 1-CPU host still serves concurrency via the
event loop); the benchmark asserts full success of the mixed workload and
that the hot pass actually hit the cache, and writes the ``/stats`` snapshot
into the benchmark-artifacts directory for trajectory tracking.

Run explicitly: ``pytest benchmarks/test_server_throughput.py -s``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np
import pytest

import repro.api as api
from repro.analysis import format_table
from repro.server import ReproServer
from repro.service import ArchiveStore

pytestmark = pytest.mark.benchmarks

SHAPE = (64, 64, 64)
TILES = (32, 32, 32)
EB = 1e-3
ROUNDS = 3  # read passes per measurement


def _artifacts_dir() -> str:
    path = os.environ.get("REPRO_BENCH_ARTIFACTS", "benchmark-artifacts")
    os.makedirs(path, exist_ok=True)
    return path


async def _request(server, method: str, target: str, body: bytes = b""):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    # Read to EOF below, so ask the keep-alive server to hang up.
    head = (
        f"{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    status = int(raw.split(b" ", 2)[1])
    return status, raw.partition(b"\r\n\r\n")[2]


def _mixed_targets() -> list[tuple[str, str]]:
    targets = [("GET", "/archives/corpus/fields/plain")]
    targets += [("GET", f"/archives/corpus/fields/tiled?tile={i}") for i in range(8)]
    targets += [("GET", "/healthz"), ("GET", "/archives/corpus")]
    return targets


def test_served_mixed_workload_throughput(tmp_path, capsys):
    field = np.fromfunction(
        lambda i, j, k: np.sin(i / 17) * np.cos(j / 13) + k / 64, SHAPE
    ).astype(np.float32)
    with ArchiveStore(str(tmp_path / "corpus.rpza"), mode="w") as archive:
        archive.add_blob("plain", api.compress(field, api.build_request(eb=EB)).blob)
        archive.add_blob("tiled", api.compress(field, api.build_request(eb=EB, tiles=TILES)).blob)

    async def bench():
        server = ReproServer(str(tmp_path), port=0)
        await server.start()
        try:
            results = {}
            for label in ("cold", "hot"):
                t0 = time.perf_counter()
                statuses = []
                for _ in range(ROUNDS):
                    batch = await asyncio.gather(
                        *[_request(server, m, t) for m, t in _mixed_targets()]
                    )
                    statuses += [s for s, _ in batch]
                wall = time.perf_counter() - t0
                assert statuses == [200] * len(statuses), "mixed workload had failures"
                results[label] = (len(statuses), wall)
            # Compress round-trips ride on top of the hot read state.
            t0 = time.perf_counter()
            comp = await asyncio.gather(
                *[
                    _request(
                        server,
                        "POST",
                        f"/compress?shape={','.join(map(str, SHAPE))}&eb={EB}",
                        field.tobytes(),
                    )
                    for _ in range(4)
                ]
            )
            results["compress"] = (len(comp), time.perf_counter() - t0)
            assert all(s == 200 for s, _ in comp)
            _, stats_body = await _request(server, "GET", "/stats")
            return results, json.loads(stats_body)
        finally:
            await server.stop()

    results, stats = asyncio.run(bench())
    cache_hits = stats["pool"]["read_cache_hits"]
    assert cache_hits > 0, "hot pass never hit the LRU cache"
    assert stats["responses"].get("5xx", 0) == 0

    rows = [
        [label, str(n), f"{wall:.3f}", f"{n / wall:.1f}"]
        for label, (n, wall) in results.items()
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["phase", "requests", "wall s", "req/s"],
                rows,
                title=f"served mixed workload ({SHAPE[0]}^3 field, tiles {TILES[0]}^3, "
                f"{cache_hits} cache hits)",
            )
        )
    with open(os.path.join(_artifacts_dir(), "server_stats.json"), "w") as fh:
        json.dump({"results": {k: v for k, v in results.items()}, "stats": stats}, fh, indent=1)

"""Server test harness: run scenarios against a real localhost server.

Every test spins up a real :class:`~repro.server.ReproServer` on an
OS-assigned port and talks to it over actual TCP with a minimal asyncio
HTTP/1.1 client — no mocked transports, so the request parser, the response
writer and the event-loop offloading are all exercised for real.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import api
from repro.server import ReproServer
from repro.service import ArchiveStore


class Response:
    """What one HTTP exchange returned (status, lower-cased headers, body)."""

    def __init__(self, status: int, headers: dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    def json(self):
        return json.loads(self.body.decode("utf-8"))

    def array(self, dtype=None) -> np.ndarray:
        dtype = dtype or self.headers.get("x-repro-dtype", "float32")
        shape = tuple(int(d) for d in self.headers["x-repro-shape"].split(","))
        return np.frombuffer(self.body, dtype=dtype).reshape(shape)


async def request(server: ReproServer, method: str, target: str, body: bytes = b"") -> Response:
    """One HTTP/1.1 exchange over a fresh connection."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    head = (
        f"{method} {target} HTTP/1.1\r\nHost: {server.host}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_raw, _, payload = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return Response(status, headers, payload)


async def poll_job(server: ReproServer, job_id: str, timeout_s: float = 30.0) -> dict:
    """Poll ``GET /jobs/{id}`` until the job leaves the queue."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        resp = await request(server, "GET", f"/jobs/{job_id}")
        assert resp.status == 200
        doc = resp.json()
        if doc["status"] in ("done", "failed"):
            return doc
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"job {job_id} still {doc['status']} after {timeout_s}s")
        await asyncio.sleep(0.05)


@pytest.fixture()
def http():
    """The HTTP exchange helper, injected so test modules stay import-free."""
    return request


@pytest.fixture()
def poll():
    return poll_job


@pytest.fixture()
def serve(tmp_path):
    """Run ``scenario(server)`` against a live server rooted at ``tmp_path``."""

    def run_scenario(scenario, **server_kwargs):
        server_kwargs.setdefault("archive_root", str(tmp_path))
        server_kwargs.setdefault("port", 0)

        async def main():
            server = ReproServer(**server_kwargs)
            await server.start()
            try:
                return await scenario(server)
            finally:
                await server.stop()

        return asyncio.run(main())

    return run_scenario


@pytest.fixture()
def field16():
    """Small deterministic field: fast to compress, non-trivial to predict."""
    return np.fromfunction(
        lambda i, j, k: np.sin(i / 5) * np.cos(j / 7) + k / 16, (16, 16, 16)
    ).astype(np.float32)


@pytest.fixture()
def seeded_archive(tmp_path, field16):
    """An archive with one plain entry and one 8-tile entry, pre-written."""
    path = tmp_path / "corpus.rpza"
    with ArchiveStore(str(path), mode="w", backend="file") as archive:
        for name, tiles in (("plain", None), ("tiled", (8, 8, 8))):
            request = api.build_request(eb=1e-3, tiles=tiles)
            archive.add_blob(name, api.compress(field16, request).blob)
    return path

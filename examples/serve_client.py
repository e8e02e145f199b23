#!/usr/bin/env python
"""Drive the async compression service end to end with the retrying client.

Boots a :class:`repro.server.ReproServer` on a free localhost port in a
background thread (point ``REPRO_SERVE_URL`` at an already-running ``repro
serve`` to skip that), then exercises every endpoint with
:class:`repro.client.ReproClient` — the production client: capped
exponential backoff with jitter on 429/503 (honoring ``Retry-After``),
per-request deadlines, and ``retries``/``gave_up`` counters:

1. ``GET  /healthz``                      — liveness;
2. ``POST /compress`` / ``POST /decompress`` — round-trip a field over HTTP;
3. ``POST /jobs`` + ``GET /jobs/{id}``    — run a manifest batch, poll the
   ``repro.batch-report/1`` report;
4. ``GET  /archives/.../fields/...?tile=I`` — partial reads, twice, to watch
   ``X-Repro-Source`` flip from ``store`` to ``worker-cache``;
5. ``GET  /stats``                        — the pool/jobs/integrity counters.

Run:  python examples/serve_client.py
"""

import asyncio
import json
import os
import tempfile
import threading
import time

import numpy as np

from repro.client import ReproClient, RetryPolicy

SHAPE = (32, 32, 32)


def start_background_server() -> tuple[str, int]:
    """Run a ReproServer on a daemon thread; returns (host, port)."""
    from repro.server import ReproServer

    server = ReproServer(tempfile.mkdtemp(prefix="repro-serve-"), port=0)
    started = threading.Event()

    def runner():
        async def main():
            await server.start()
            started.set()
            await asyncio.Event().wait()  # serve until the process exits

        asyncio.run(main())

    threading.Thread(target=runner, daemon=True).start()
    if not started.wait(timeout=10):
        raise RuntimeError("server failed to start")
    return server.host, server.port


url = os.environ.get("REPRO_SERVE_URL")
if url:
    host, port = url.split("//")[-1].split(":")
    port = int(port)
else:
    host, port = start_background_server()
print(f"server: http://{host}:{port}")

# One client for the whole session: 429/503 retried with capped backoff
# (Retry-After honored), 10 s deadline per logical request.
client = ReproClient(host, port, policy=RetryPolicy(max_attempts=5, deadline_s=10.0), seed=42)


def call(host, port, method, target, body=b""):
    resp = client.request(method, target, body)
    return resp.status, resp.headers, resp.body


# 1. Liveness.
status, _, body = call(host, port, "GET", "/healthz")
print(f"healthz: {status} {body.decode().strip()}")

# 2. Compress / decompress round-trip over the wire.
field = np.fromfunction(
    lambda i, j, k: np.sin(i / 9) * np.cos(j / 9) + k / SHAPE[2], SHAPE
).astype(np.float32)
shape_q = ",".join(str(d) for d in SHAPE)
status, headers, blob = call(
    host, port, "POST", f"/compress?shape={shape_q}&eb=1e-3", field.tobytes()
)
print(
    f"compress: {status}  codec={headers['x-repro-codec']}  "
    f"CR={headers['x-repro-cr']}  {field.nbytes} -> {len(blob)} bytes"
)
status, headers, raw = call(host, port, "POST", "/decompress", blob)
recon = np.frombuffer(raw, dtype=headers["x-repro-dtype"]).reshape(
    tuple(int(d) for d in headers["x-repro-shape"].split(","))
)
print(f"decompress: {status}  max|err| = {np.abs(field - recon).max():.3g}")

# 3. Batch job: manifest in, repro.batch-report/1 out.
manifest = {
    "job": {"name": "client-demo", "eb": 1e-3},
    "fields": [
        {"name": "rho", "dataset": "nyx", "shape": list(SHAPE), "tiles": [16, 16, 16]},
        {"name": "vel", "dataset": "miranda", "shape": list(SHAPE)},
    ],
}
status, _, body = call(
    host, port, "POST", "/jobs?archive=demo.rpza", json.dumps(manifest).encode()
)
job = json.loads(body)
print(f"job submitted: {status} id={job['id']}")
while job["status"] not in ("done", "failed"):
    time.sleep(0.1)
    job = json.loads(call(host, port, "GET", f"/jobs/{job['id']}")[2])
report = job["report"]
print(f"job {job['status']}: schema={report['schema']} totals={report['totals']}")

# 4. Partial tile reads — the second one comes from the LRU cache.
for attempt in (1, 2):
    status, headers, tile = call(host, port, "GET", "/archives/demo/fields/rho?tile=0")
    print(
        f"tile read #{attempt}: {status}  shape={headers['x-repro-shape']}  "
        f"origin={headers['x-repro-tile-origin']}  source={headers['x-repro-source']}"
    )

# 5. The observable counters — server side and client side.
stats = json.loads(call(host, port, "GET", "/stats")[2])
print(f"stats.pool:      {stats['pool']}")
print(f"stats.jobs:      {stats['jobs']}")
print(f"stats.integrity: {stats['integrity']}")
print(f"client:          {client.stats}")

"""``serve-mixed``: one closed-loop connection against ``repro serve``.

The server runs as a child process with a pool of two worker processes
and is driven only through ``repro.client.AsyncReproClient``.  Writes
(``POST /compress`` of distinct fields), ``POST /decompress`` of
containers built during set-up, and field and tile reads from an archive
seeded during set-up are interleaved in one seeded op list; with
:data:`CONNECTIONS` connections, connection ``c`` takes ops ``c``,
``c + CONNECTIONS``, ...  The archive is seeded by a
``BatchRunner`` job, which keeps the batch tier (``service.runner``, the
process fan-out and archive appends) on a measured path.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import re
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from metrics import OpLog, percentile

EB_CYCLE = (1e-2, 1e-3, 1e-4)
#: One connection, so one request is in flight.  With two, both pool
#: workers, the frontend and the client were busy at once on a 2-vCPU host
#: whose vCPUs change speed independently.  In five interleaved pairs of
#: runs, the spread (quartile distance over median) of every timing was
#: about twice that of one connection: 0.19-0.26 against 0.09-0.15.
CONNECTIONS = 1
WORKER_PROCS = 2
SETUP_REPEATS = 3
SHAPES = ((32, 32, 32), (64, 64, 64))
DATASETS = ("jhtdb", "miranda", "nyx", "rtm")
#: compress, decompress and read ops in each round of the op mix.  The
#: repo's one documented mix of writes and reads is ``mixed`` in
#: benchmarks/loadgen_smoke.toml (compress 0.5, read 0.3, stats 0.2); its
#: ``stats`` share goes to POST /decompress here, since ``/stats`` is read
#: outside the timed phase.  No traffic trace backs these weights.
ROUND = (5, 2, 3)
ARCHIVE = "seeded"
TILES = (32, 32, 32)


@dataclass
class ServeOp:
    index: int
    kind: str  # compress | decompress | read
    target: str
    body: bytes
    ref: tuple | None  # what the response is checked against


class Server:
    """A ``repro serve`` child on a free port, stopped with SIGTERM."""

    def __init__(self, ctx, root: str):
        self.ctx = ctx
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._drain: threading.Thread | None = None

    def start(self, deadline_s: float = 120.0) -> None:
        env = dict(os.environ, PYTHONPATH=self.ctx.src)
        cmd = [sys.executable, "-m", "repro.cli", "serve", self.root, "--port", "0",
               "--workers-procs", str(WORKER_PROCS)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                     env=env, text=True, cwd=self.ctx.root)
        seen = []
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        end = time.monotonic() + deadline_s
        try:
            while time.monotonic() < end:
                if not sel.select(timeout=max(0.0, end - time.monotonic())):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                seen.append(line)
                match = re.search(r"http://[^\s/]+:(\d+)", line)
                if match:
                    self.port = int(match.group(1))
                    break
        finally:
            sel.close()
        if not self.port:
            self.stop()
            raise RuntimeError("server did not announce a port: " + "".join(seen)[-2000:])
        # Keep the pipe drained so server logging never blocks on it.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def wait_healthy(self, deadline_s: float = 60.0) -> None:
        from repro.client import ReproClient, RetryPolicy

        end = time.monotonic() + deadline_s
        with ReproClient("127.0.0.1", self.port, policy=RetryPolicy(max_attempts=1)) as client:
            while time.monotonic() < end:
                try:
                    if client.get("/healthz").status == 200:
                        return
                except Exception:  # noqa: BLE001 — not accepting yet
                    pass
                time.sleep(0.01)
        raise RuntimeError("server never became healthy")

    def stats(self) -> dict:
        from repro.client import ReproClient

        with ReproClient("127.0.0.1", self.port) as client:
            return client.get("/stats").json()

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        self.proc = None


def _route_p50(before: dict, after: dict) -> float:
    """p50 in ms of the requests a route served between two ``/stats``
    snapshots, interpolated inside its bucket like the server does."""
    from repro.server.metrics import BUCKET_BOUNDS_S

    def counts(snap):
        out = {}
        for b in snap.get("buckets", ()):
            out[b["le_ms"]] = b["count"]
        return out

    b, a = counts(before), counts(after)
    bounds_ms = [round(x * 1000.0, 4) for x in BUCKET_BOUNDS_S] + [None]
    delta = [a.get(k, 0) - b.get(k, 0) for k in bounds_ms]
    total = sum(delta)
    if not total:
        return 0.0
    target, seen = 0.5 * total, 0
    for idx, count in enumerate(delta):
        if count and seen + count >= target:
            lo = bounds_ms[idx - 1] if idx > 0 else 0.0
            hi = bounds_ms[idx] if bounds_ms[idx] is not None else after.get("max_ms", lo)
            return lo + (hi - lo) * (target - seen) / count
        seen += count
    return 0.0


class ServeMixed:
    name = "serve-mixed"
    #: requests per requested second: about two seconds of serving per
    #: second asked for, since a shorter timed phase follows the host's
    #: speed changes more closely
    OPS_PER_SECOND = 40

    def __init__(self, ctx):
        self.ctx = ctx
        self.ops: list[ServeOp] = []
        self.server: Server | None = None
        self.root = os.path.join(ctx.work, "archives")
        self.fields_dir = os.path.join(ctx.work, "fields")
        self.seed_fields: list = []
        self.containers: list = []
        self.warmup: list[ServeOp] = []
        self.layer: dict = {}

    # ------------------------------------------------------------- inputs
    def make_inputs(self) -> None:
        """A fixed mix: each round of ten ops is five compresses, two
        decompresses and three reads (:data:`ROUND`), half of the reads
        whole fields and half single tiles.  Datasets, shapes, bounds,
        containers and read targets are cycled in a fixed order over fixed
        field realisations; the seed shuffles the ops across rounds."""
        from repro import datasets

        fields = random.Random("serve-mixed:fields")
        order = random.Random(f"serve-mixed:{self.ctx.seed}")

        def draw(k: int, shape):
            return datasets.load(DATASETS[k % len(DATASETS)], shape=shape,
                                 seed=fields.randrange(1 << 30))

        # Archive entries: untiled fields plus 64³ ones read tile by tile.
        self.seed_fields = [(f"f{i}", draw(i, SHAPES[i % 2]), False) for i in range(4)]
        self.seed_fields += [(f"t{i}", draw(i, SHAPES[1]), True) for i in range(2)]
        untiled = [e for e in self.seed_fields if not e[2]]
        tiled = [e for e in self.seed_fields if e[2]]
        # Fields whose containers POST /decompress sends (built in set-up):
        # six 32³ and three 64³, so the decompress p50 lies inside the 32³
        # latency cluster instead of on its edge, where it would jump.
        self.container_fields = [(draw(i, SHAPES[i // 6]), EB_CYCLE[i % 3]) for i in range(9)]
        rounds = max(1, round(self.ctx.seconds * self.OPS_PER_SECOND / sum(ROUND)))
        n_comp, n_dec, n_read = (k * rounds for k in ROUND)
        compress = [(draw(j, SHAPES[(j // len(DATASETS)) % 2]), EB_CYCLE[j % 3])
                    for j in range(n_comp)]
        kinds = ([("compress", j) for j in range(n_comp)]
                 + [("decompress", j) for j in range(n_dec)]
                 + [("read", j) for j in range(n_read)])
        order.shuffle(kinds)
        self.plan = []
        for i, (kind, j) in enumerate(kinds):
            if kind == "compress":
                self.plan.append((i, kind, *compress[j]))
            elif kind == "decompress":
                self.plan.append((i, kind, j % len(self.container_fields), None))
            elif j % 2:
                name, field, _ = tiled[(j // 2) % len(tiled)]
                self.plan.append((i, kind, name, (j // 4) % _n_tiles(field.shape)))
            else:
                self.plan.append((i, kind, untiled[(j // 2) % len(untiled)][0], None))
        self.first_compress = compress[0]
        self.warmup_fields = [(draw(k, shape), 3e-3) for k in range(2) for shape in SHAPES]
        self.manifest = self._seed_manifest()

    def _seed_manifest(self):
        """Write the archive's fields as ``.f32`` files and parse the batch
        manifest that compresses them (tiled entries carry ``tiles``)."""
        from repro.datasets.io import write_raw
        from repro.service.manifest import parse_manifest

        os.makedirs(self.fields_dir, exist_ok=True)
        entries = []
        for name, field, tiled in self.seed_fields:
            write_raw(os.path.join(self.fields_dir, f"{name}.f32"), field)
            entry = {"name": name, "path": f"{name}.f32", "shape": list(field.shape)}
            if tiled:
                entry["tiles"] = list(TILES)
            entries.append(entry)
        job = {"name": ARCHIVE, "eb": 1e-3, "executor": "processes",
               "workers": len(os.sched_getaffinity(0))}
        return parse_manifest({"job": job, "fields": entries}, base_dir=self.fields_dir)

    # -------------------------------------------------------------- setup
    def _seed(self) -> None:
        """Write the archive the reads hit with one ``BatchRunner`` job on
        the process executor, verify it (CRCs and index; every read is
        bound-checked later anyway), and build the containers the
        decompress ops send."""
        import repro.api as api
        from repro.service.archive import ArchiveStore
        from repro.service.runner import BatchRunner

        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        path = os.path.join(self.root, ARCHIVE + ".rpza")
        t0 = time.perf_counter()
        with ArchiveStore(path, mode="w") as archive:
            report = BatchRunner(self.manifest, archive).run()
        job_s = time.perf_counter() - t0
        bad = [f"{r.name}: {r.status} {r.error}" for r in report.fields
               if r.status != "ok" or not r.max_err <= r.eb_abs]
        with ArchiveStore(path) as archive:
            t1 = time.perf_counter()
            bad += archive.verify()
            verify_s = time.perf_counter() - t1
            self.entries = {name: (field, archive.entry(name).eb_abs)
                            for name, field, _ in self.seed_fields}
            stored = sum(len(archive.read_bytes(name)) for name in self.entries)
        if bad:
            raise RuntimeError(f"archive seeding failed: {bad}")
        size = os.path.getsize(path)
        self.layer.update({
            "service.archive.bytes_written": size,
            "service.archive.overhead_bytes": size - stored,
            "service.archive.verify_s": verify_s,
            "service.runner.job_s": job_s,
            "service.runner.busy_share":
                sum(r.wall_s for r in report.fields) / (report.workers * job_s),
        })
        self.containers = []
        for field, eb in self.container_fields:
            result = api.compress(field, api.build_request(eb=eb))
            self.containers.append((result.blob.to_bytes(), field, result.error_bound))

    def _build_ops(self) -> None:
        self.ops = []
        for i, kind, a, b in self.plan:
            if kind == "compress":
                shape = ",".join(map(str, a.shape))
                target = f"/compress?shape={shape}&dtype=float32&mode=cr&eb={b!r}"
                self.ops.append(ServeOp(i, kind, target, a.tobytes(), (a, b)))
            elif kind == "decompress":
                payload, field, eb_abs = self.containers[a]
                self.ops.append(ServeOp(i, kind, "/decompress", payload, (field, eb_abs)))
            else:
                field, eb_abs = self.entries[a]
                target = f"/archives/{ARCHIVE}/fields/{a}" + (f"?tile={b}" if b is not None else "")
                self.ops.append(ServeOp(i, kind, target, b"", (field, eb_abs)))
        self.warmup = []
        for j, (field, eb) in enumerate(self.warmup_fields):
            shape = ",".join(map(str, field.shape))
            target = f"/compress?shape={shape}&dtype=float32&mode=cr&eb={eb!r}"
            self.warmup.append(ServeOp(-1 - j, "compress", target, field.tobytes(), None))
        payload = self.containers[0][0]
        self.warmup.append(ServeOp(-99, "decompress", "/decompress", payload, None))

    def _set_up(self) -> None:
        """Seed the archive, build the ops and start a server, spawn to
        ``/healthz`` 200 and its warm-up requests."""
        self._seed()
        self._build_ops()
        server = Server(self.ctx, self.root)
        server.start()
        try:
            server.wait_healthy()
            warm = OpLog()
            asyncio.run(self._drive(server.port, self.warmup, warm, check=False))
            if warm.failed:
                raise RuntimeError(f"warm-up requests failed: {warm.errors}")
        except BaseException:
            server.stop()
            raise
        self.server = server

    def setup(self) -> list[float]:
        """Seconds of each of three whole set-ups, each with a fresh archive
        and a fresh server; the last server serves the timed ops."""
        times = []
        for _ in range(SETUP_REPEATS):
            self.close()
            t0 = time.perf_counter()
            self._set_up()
            times.append(time.perf_counter() - t0)
        return times

    def rearm(self) -> None:
        """Set up afresh, so a second pass sees the same cold read caches
        (and a traced run records the seeding job)."""
        self.close()
        self._set_up()

    # ------------------------------------------------------------- timed
    async def _drive(self, port: int, ops: list[ServeOp], log: OpLog, check: bool,
                     recorder=None) -> dict:
        from repro.client import AsyncReproClient

        clients = [AsyncReproClient("127.0.0.1", port, seed=f"{self.ctx.seed}:{c}")
                   for c in range(CONNECTIONS)]
        self.responses: dict[int, tuple] = {}

        async def loop(c: int) -> None:
            client = clients[c]
            for op in ops[c::CONNECTIONS]:
                t0 = time.perf_counter()
                response = await client.request(
                    "POST" if op.kind != "read" else "GET", op.target, op.body)
                t1 = time.perf_counter()
                if recorder is not None:
                    recorder.add(f"client.{op.kind}", t0, t1, op.index)
                self.responses[op.index] = (op, response.status, response.headers,
                                            response.body, t1 - t0)

        t0 = time.perf_counter()
        await asyncio.gather(*(loop(c) for c in range(CONNECTIONS)))
        wall_s = time.perf_counter() - t0
        for op in ops:
            _, status, headers, body, wall = self.responses[op.index]
            log.attempted += 1
            if status != 200:
                log.fail(f"op {op.index} {op.kind}: HTTP {status} {body[:120]!r}")
                continue
            if op.kind == "compress":
                log.record("compress", wall, len(op.body))
                log.ratio(len(op.body), len(body))
                log.digests.append(hashlib.sha256(body).hexdigest())
            else:
                log.record(op.kind, wall, len(body))
            if check and op.kind != "compress":
                field, eb_abs = op.ref
                origin = headers.get("x-repro-tile-origin")
                shape = tuple(int(d) for d in headers["x-repro-shape"].split(","))
                if origin is not None:
                    start = [int(o) for o in origin.split(",")]
                    field = field[tuple(slice(o, o + s) for o, s in zip(start, shape))]
                recon = np.frombuffer(body, dtype=headers["x-repro-dtype"]).reshape(shape)
                if not log.quality(field, recon, eb_abs):
                    log.fail(f"op {op.index} {op.kind}: bound {eb_abs:g} violated")
        return {
            "wall_s": wall_s,
            "conn_opens": sum(c.stats["conn_opens"] for c in clients),
            "requests": sum(c.stats["requests"] for c in clients),
            "retries": sum(c.stats["retries"] for c in clients),
        }

    def run_pass(self, recorder=None) -> dict:
        log = OpLog()
        before = self.server.stats()
        client = asyncio.run(self._drive(self.server.port, self.ops, log, check=True,
                                         recorder=recorder))
        after = self.server.stats()
        self._check_against_library(log)
        self.layer.update(self._server_layer(before, after, client, log))
        return {"log": log, "timed_s": client["wall_s"]}

    def _check_against_library(self, log: OpLog) -> None:
        """Served containers must equal the library's bytes for the same
        request, and served reconstructions the library's decompress of the
        same container (sha256).  Runs after the timed phase."""
        import repro.api as api

        library = {}
        for op in self.ops:
            _, status, _, body, _ = self.responses[op.index]
            if status != 200 or op.kind == "read":
                continue
            if op.kind == "compress":
                field, eb = op.ref
                want = api.compress(field, api.build_request(mode="cr", eb=eb)).blob.to_bytes()
            else:
                key = hashlib.sha256(op.body).digest()
                if key not in library:
                    library[key] = api.decompress(op.body).tobytes()
                want = library[key]
            if hashlib.sha256(body).digest() != hashlib.sha256(want).digest():
                log.fail(f"op {op.index} {op.kind}: served bytes differ from the library's")

    def _server_layer(self, before: dict, after: dict, client: dict, log: OpLog) -> dict:
        routes = {"compress": "POST /compress", "decompress": "POST /decompress",
                  "read": "GET /archives/{name}/fields/{field}"}
        out = {}
        for key, route in routes.items():
            out[f"server.route_ms_p50.{key}"] = _route_p50(
                before["latency"].get(route, {}), after["latency"].get(route, {}))
        comp = log.samples.get("compress", [])
        if comp:
            out["server.outside_ms"] = (1000.0 * percentile(comp, 50)
                                        - out["server.route_ms_p50.compress"])
        pb, pa = before["pool"], after["pool"]
        per_worker = [a - b for a, b in zip(pa["per_worker_dispatched"],
                                            pb["per_worker_dispatched"])]
        mean = sum(per_worker) / len(per_worker)
        reads = len(log.samples.get("read", []))
        out.update({
            "server.pool.ewma_wall_ms": 1000.0 * pa["ewma_wall_s"],
            "server.pool.depth_high_water": pa["depth_high_water"],
            "server.pool.dispatch_imbalance": (max(per_worker) - min(per_worker)) / mean
            if mean else 0.0,
            "server.pool.read_cache_hit_ratio":
                (pa["read_cache_hits"] - pb["read_cache_hits"]) / reads if reads else 0.0,
            "server.pool.errors": pa["errors"] - pb["errors"],
            "server.pool.rejected": pa["rejected"] - pb["rejected"],
            "server.admission.rejected_429":
                after["admission"]["rejected_429"] - before["admission"]["rejected_429"],
            "client.conn_opens_per_request": client["conn_opens"] / max(1, client["requests"]),
            "client.retries": client["retries"],
        })
        return out

    def first_request(self):
        """The library request behind the first compress op."""
        import repro.api as api

        field, eb = self.first_compress
        return field, api.build_request(mode="cr", eb=eb)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _n_tiles(shape) -> int:
    n = 1
    for d, t in zip(shape, TILES):
        n *= -(-d // t)
    return n

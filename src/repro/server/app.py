"""Async compression service: a stdlib-only HTTP front end over the engine.

``repro serve`` binds this server over an **archive root** directory and
exposes the compute (:func:`repro.compress` / :func:`repro.decompress`), the
storage (:class:`~repro.service.archive.ArchiveStore` random access with
per-tile partial reads) and the batch layer
(:class:`~repro.service.runner.BatchRunner` jobs) as HTTP endpoints:

====== ================================== =======================================
method path                               purpose
====== ================================== =======================================
POST   ``/compress``                      raw field bytes -> ``.rpz`` container
POST   ``/decompress``                    ``.rpz`` container -> raw field bytes
GET    ``/archives``                      list archives under the root
GET    ``/archives/{name}``               list one archive's entries
GET    ``/archives/{name}/fields/{f}``    decompress one entry (``?tile=I``
                                          decodes a single tile)
POST   ``/jobs``                          submit a manifest to the batch runner
GET    ``/jobs/{id}``                     poll a job (report embedded when done)
GET    ``/codecs``                        registry capabilities table
GET    ``/healthz``                       liveness + version/schema report
GET    ``/stats``                         pool/admission/jobs/request counters
====== ================================== =======================================

``POST /compress`` query parameters deserialize into one
:class:`repro.api.CompressionRequest` (the same contract the CLI and the
batch manifests speak), so every registered codec and option is reachable
over HTTP with no per-endpoint plumbing.

Service-scale mechanisms sit between the sockets and the engine:

* every CPU-heavy request (compress, decompress, archive read) is one task
  of the :mod:`repro.server.pool` protocol, run off the event loop, so slow
  decompressions never stall the accept loop or the health probe;
* with ``--workers-procs N`` (N > 1) the tasks leave the frontend process
  entirely: a :class:`~repro.server.pool.WorkerPool` dispatches them to N
  worker processes, with the read cache sharded per worker by consistent
  hashing on ``(archive, field)`` — one multi-second compress no longer
  holds the frontend's GIL (see ``docs/OPERATIONS.md`` for the topology);
* with one process an :class:`~repro.server.pool.InlinePool` runs the same
  tasks, one at a time, on a single frontend thread;
* decompressed tiles/fields land in a byte-budgeted
  :class:`~repro.core.cache.ByteBudgetLRU` beside the task body, so the
  repeated-read hot path (dashboards polling the same slice) skips the
  decode; ``X-Repro-Source`` and the pool's ``read_cache_hits`` show it.

Production guardrails (all observable on ``GET /stats``, schema
``repro.stats/2``):

* **admission control** — once ``--queue-depth`` heavy requests are in
  flight, new ones get ``429`` with a ``Retry-After`` estimate instead of
  growing an unbounded backlog;
* **deadlines** — with ``--deadline-ms`` set, a heavy request that cannot
  finish in time returns ``503`` (and is skipped before any compute if it
  expired while queued);
* **graceful drain** — SIGTERM (via :meth:`ReproServer.install_signal_handlers`)
  stops admissions (new requests get ``503``, ``/healthz``/``/stats`` stay
  live), lets in-flight requests finish, flushes final stats to the log,
  then stops the listener and the worker pool;
* **latency histograms** — every request lands in a per-route log-bucket
  histogram with p50/p99 estimates;
* **integrity** — detected archive corruption, worker death and injected
  faults map to typed, retryable ``503`` responses (never a bare ``500``),
  are counted in the ``integrity`` stats block, and corruption flips the
  ``degraded`` flag on ``/healthz`` until the instance is repaired and
  restarted (see the corruption runbook in ``docs/OPERATIONS.md``).

The HTTP layer is the shared :mod:`repro.http` core: keep-alive HTTP/1.1,
``Content-Length`` bodies only, JSON errors with 4xx for anything malformed
(framing, query, body, unknown route) and 5xx only for genuine server bugs.
See ``docs/API.md`` for request/response examples and
``docs/OPERATIONS.md`` for deployment/tuning guidance.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import sys
import time

from ..core.cache import ByteBudgetLRU, CountedTableCache
from ..defaults import REQUEST_SCHEMA
from ..http import HttpError, HttpServer, Request, json_response
from .jobs import JobManager, check_bare_name
from .metrics import RouteLatencies
from .pool import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_QUEUE_DEPTH,
    DeadlineExceeded,
    PoolSaturated,
    PoolTaskError,
    WorkerPool,
    build_pool,
)

__all__ = ["HttpError", "ReproServer", "DEFAULT_CACHE_BYTES", "STATS_SCHEMA"]

log = logging.getLogger("repro.server")

_MAX_BODY_BYTES = 1024 * 1024 * 1024
_DTYPES = ("float32", "float64")

#: wire-format identifier stamped into the ``GET /stats`` document, so
#: dashboards and tests can pin the counter shape
STATS_SCHEMA = "repro.stats/2"


def _coerce_option(value: str):
    """``opt.*`` query values: numbers become numbers, the rest stay text."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


#: the ``/stats`` blocks of caches nothing in this process has used
_UNUSED_TABLE = CountedTableCache().stats()
_UNUSED_LRU = ByteBudgetLRU(0).stats()


def _cache_stats(module: str, read: str, unused: dict = _UNUSED_TABLE) -> dict:
    """A process-wide cache's ``/stats`` block: ``module.read()`` once this
    process has imported ``module``, else ``unused``.  A pooled frontend
    runs no codec work, so it reports its caches without importing the
    engine that owns them."""
    counters = getattr(sys.modules.get(module), read, None)
    return counters() if counters is not None else dict(unused)


def _safe_name(name: str, what: str) -> str:
    try:
        return check_bare_name(name)
    except ValueError:
        raise HttpError(400, f"invalid {what} {name!r}") from None


def _route_key(req: Request) -> str:
    """The latency-histogram key: path template, not the concrete path.

    Collapses archive/field/job names to placeholders so ``/stats`` shows a
    bounded route set instead of one histogram per archive.
    """
    parts = req.parts
    if len(parts) == 2 and parts[0] == "archives":
        path = "/archives/{name}"
    elif len(parts) == 4 and parts[0] == "archives" and parts[2] == "fields":
        path = "/archives/{name}/fields/{field}"
    elif len(parts) == 2 and parts[0] == "jobs":
        path = "/jobs/{id}"
    else:
        path = "/" + "/".join(parts)
    return f"{req.method} {path}"


class ReproServer:
    """The ``repro serve`` application object (also usable in-process).

    Parameters
    ----------
    archive_root:
        Directory holding the archives served under ``/archives`` and
        receiving job outputs (created if missing).
    host, port:
        Bind address; ``port=0`` picks a free port (read :attr:`port` after
        :meth:`start` — the pattern the test suite uses).
    cache_bytes:
        LRU byte budget for decompressed tiles/fields; ``0`` disables caching.
        In pooled mode the budget is split evenly across the worker shards.
    worker_procs:
        Heavy-work processes behind the frontend.  ``1`` (default) runs the
        tasks on one frontend thread (:class:`~repro.server.pool.InlinePool`);
        ``> 1`` sends them to a :class:`~repro.server.pool.WorkerPool`;
        ``0`` means one worker per usable CPU.
    queue_depth:
        Admission bound: heavy requests in flight beyond this get 429 with
        ``Retry-After``.
    deadline_ms:
        Per-request deadline for heavy work; ``0`` disables.  Expired
        requests get 503.
    drain_grace_s:
        How long :meth:`drain` waits for in-flight work before stopping.
    pool:
        A pool from :func:`~repro.server.pool.build_pool` to serve with,
        in place of the one ``worker_procs``, ``queue_depth`` and
        ``cache_bytes`` would build.  ``repro serve`` passes one whose
        workers it spawned before importing this module.
    """

    def __init__(
        self,
        archive_root: str,
        host: str = "127.0.0.1",
        port: int = 8077,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_body: int = _MAX_BODY_BYTES,
        worker_procs: int = 1,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        deadline_ms: float = 0.0,
        drain_grace_s: float = 30.0,
        pool: WorkerPool | None = None,
    ):
        self.archive_root = os.path.abspath(archive_root)
        self.host = host
        self._requested_port = port
        if pool is None:
            pool = build_pool(worker_procs, queue_depth=queue_depth, cache_bytes=cache_bytes)
        if deadline_ms < 0:
            raise ValueError(f"deadline_ms must be >= 0 (0 = no deadline), got {deadline_ms}")
        self.pool = pool
        self.worker_procs = pool.workers
        self.queue_depth = pool.queue_depth
        self.deadline_ms = float(deadline_ms)
        self.drain_grace_s = float(drain_grace_s)
        self.jobs = JobManager(self.archive_root)
        self.latency = RouteLatencies()
        self._http = HttpServer(self._handle, max_body)
        self._started_s = time.time()
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._inflight_heavy = 0
        self._rejected_429 = 0
        self._expired_503 = 0
        self._draining_503 = 0
        # Storage-integrity counters (the ``integrity`` block of /stats):
        # detected archive corruption, worker deaths, injected faults — all
        # served as typed, retryable 503s rather than bare 500s.
        self._integrity = {"corruption": 0, "worker_death": 0, "fault": 0}

    # -------------------------------------------------------------- lifecycle
    @property
    def degraded(self) -> bool:
        """Whether this server has served corrupt storage since it started.

        Sticky until restart (or until an operator runs ``repro archive
        repair`` and recycles the instance): a corrupt archive does not heal
        by itself, so orchestrators should route around the replica and page
        someone instead of retrying forever.
        """
        return self._integrity["corruption"] > 0

    @property
    def port(self) -> int:
        return self._http.port or self._requested_port

    async def start(self) -> None:
        os.makedirs(self.archive_root, exist_ok=True)
        self._started_s = time.time()
        # spawn + handshake blocks; keep the loop responsive while workers boot
        await asyncio.to_thread(self.pool.start)
        await self._http.start(self.host, self._requested_port)
        log.info(
            "serving %s on http://%s:%d (%d worker process%s)",
            self.archive_root,
            self.host,
            self.port,
            self.worker_procs,
            "" if self.worker_procs == 1 else "es",
        )

    async def stop(self) -> None:
        await self._http.close()
        self.pool.close()
        self.jobs.shutdown()

    async def serve_forever(self) -> None:
        if self._http.port is None:
            await self.start()
        await self._http.serve_forever()

    def install_signal_handlers(self) -> None:
        """Arrange for SIGTERM/SIGINT to trigger a graceful :meth:`drain`.

        Must run inside the event loop that serves requests (the CLI calls
        it right after :meth:`start`).  Safe to call on platforms without
        ``loop.add_signal_handler`` — it degrades to doing nothing.
        """
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._begin_drain, signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                return

    def _begin_drain(self, signum: int) -> None:
        if self._draining:  # a second signal must not restart the sequence
            return
        if self._drain_task is None or self._drain_task.done():
            log.info("received signal %d; draining", signum)
            self._drain_task = asyncio.get_running_loop().create_task(self.drain())

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, flush stats.

        New heavy requests get 503 the moment draining starts (``/healthz``
        and ``/stats`` keep answering so orchestrators can watch the
        landing).  In-flight requests get up to ``drain_grace_s`` seconds
        to finish; then the final stats document is flushed to the log and
        the listener plus worker pool are stopped.
        """
        if self._draining:
            return
        self._draining = True
        deadline = time.monotonic() + self.drain_grace_s
        while time.monotonic() < deadline:
            if self._inflight_heavy + self.pool.pending == 0:
                break
            await asyncio.sleep(0.05)
        log.info("drain complete; final stats: %s", json.dumps(self.stats(), sort_keys=True))
        await self.stop()

    # ------------------------------------------------------------- HTTP layer
    async def _handle(self, request: Request) -> tuple[int, dict, bytes]:
        began = time.perf_counter()
        try:
            return await self._dispatch(request)
        finally:
            self.latency.observe(_route_key(request), time.perf_counter() - began)

    # --------------------------------------------------------------- dispatch
    async def _dispatch(self, req: Request) -> tuple[int, dict, bytes]:
        parts = req.parts
        if parts == ["healthz"]:
            self._require(req, "GET")
            from .. import __version__

            return json_response(
                {
                    "status": "draining" if self._draining else "ok",
                    "degraded": self.degraded,
                    "archive_root": self.archive_root,
                    "version": __version__,
                    "request_schema": REQUEST_SCHEMA,
                }
            )
        if parts == ["codecs"]:
            self._require(req, "GET")
            table = await self._pool_call("codecs", {})
            return json_response({"request_schema": REQUEST_SCHEMA, **table})
        if parts == ["stats"]:
            self._require(req, "GET")
            return json_response(self.stats())
        if self._draining:
            # probes above stay live so orchestrators can watch the landing;
            # everything else is refused while in-flight work finishes
            self._draining_503 += 1
            raise HttpError(503, "server is draining; no new work accepted")
        if parts == ["compress"]:
            self._require(req, "POST")
            return await self._handle_compress(req)
        if parts == ["decompress"]:
            self._require(req, "POST")
            return await self._handle_decompress(req)
        if parts == ["archives"]:
            self._require(req, "GET")
            return self._handle_archive_list()
        if len(parts) == 2 and parts[0] == "archives":
            self._require(req, "GET")
            return await self._handle_archive_entries(parts[1])
        if len(parts) == 4 and parts[0] == "archives" and parts[2] == "fields":
            self._require(req, "GET")
            return await self._handle_field_read(req, parts[1], parts[3])
        if parts == ["jobs"]:
            self._require(req, "POST")
            return self._handle_job_submit(req)
        if len(parts) == 2 and parts[0] == "jobs":
            self._require(req, "GET")
            return self._handle_job_poll(parts[1])
        raise HttpError(404, f"no route for {req.path!r}")

    @staticmethod
    def _require(req: Request, method: str) -> None:
        if req.method != method:
            raise HttpError(405, f"{req.path} only supports {method}")

    # ------------------------------------------------- admission and deadlines
    def _deadline_ts(self) -> float | None:
        """Absolute wall-clock expiry for a request arriving now (or None).

        Wall clock (not monotonic) because the timestamp crosses process
        boundaries: workers compare it against their own ``time.time()``.
        """
        if self.deadline_ms <= 0:
            return None
        return time.time() + self.deadline_ms / 1000.0

    def _corruption_503(self, exc: Exception) -> HttpError:
        """Detected storage corruption (``ArchiveCorruption``): a typed,
        retryable 503 (a replica or ``repro archive repair`` may heal it),
        counted and flipping ``/healthz`` to degraded — never a bare 500."""
        self._integrity["corruption"] += 1
        return HttpError(503, str(exc), headers={"Retry-After": "1"})

    async def _pool_call(self, kind: str, payload: dict, key: str | None = None) -> dict:
        """Run one heavy task through the pool, mapping its admission
        refusals, deadlines and task failures onto HTTP statuses."""
        deadline = self._deadline_ts()
        self._inflight_heavy += 1
        try:
            future = self.pool.submit(kind, payload, key=key, deadline_ts=deadline)
            if deadline is None:
                return await future
            try:
                # The task body also pre-checks expiry at dequeue (fast 503
                # for a backlog); this wait_for covers tasks that *started*
                # in time but cannot finish in budget.
                return await asyncio.wait_for(future, timeout=max(0.0, deadline - time.time()))
            except asyncio.TimeoutError:  # noqa: UP041 — distinct class on py3.10
                self.pool.abandon(future)
                self._expired_503 += 1
                raise HttpError(503, f"deadline of {self.deadline_ms:g} ms exceeded") from None
        except PoolSaturated as exc:
            self._rejected_429 += 1
            raise HttpError(
                429, str(exc), headers={"Retry-After": str(exc.retry_after_s)}
            ) from None
        except DeadlineExceeded:
            self._expired_503 += 1
            raise HttpError(503, f"deadline of {self.deadline_ms:g} ms exceeded") from None
        except PoolTaskError as exc:
            if exc.status == 500:
                log.error("%s task failed: %s", kind, exc.message)
            headers = {}
            if exc.kind in ("corruption", "worker-death", "fault"):
                self._integrity[exc.kind.replace("-", "_")] += 1
                if exc.status == 503:
                    # Transient (worker death, injected fault) or maybe
                    # healed by a replica/repair (corruption): worth a
                    # client-side retry after a beat.
                    headers["Retry-After"] = "1"
            raise HttpError(exc.status, exc.message, headers or None) from None
        finally:
            self._inflight_heavy -= 1

    # ---------------------------------------------------------------- compute
    @staticmethod
    def _compress_query(req: Request) -> dict:
        """Parse ``POST /compress`` query parameters into the keywords of
        :func:`repro.api.build_request`, which the task runs: all eb/codec/
        tiling/pipeline defaulting and validation lives in ``repro.api``,
        and its errors come back as 400s with their messages.

        Codec-specific options ride as ``opt.<key>=<value>`` query
        parameters (numbers coerced), e.g. ``codec=cuzfp&opt.rate=8`` —
        so every registered codec, including fixed-rate ones, is reachable
        over HTTP."""
        codec = req.query.get("codec")
        options = {}
        for key, value in req.query.items():
            if key.startswith("opt."):
                options[key[4:]] = _coerce_option(value)
        return {
            "codec": codec,
            "mode": None if codec is not None else req.query.get("mode"),
            "eb": req.query_float("eb"),
            "eb_mode": req.query.get("eb_mode"),
            "tiles": req.query_dims("tiles"),
            "workers": req.query_int("workers"),
            "executor": req.query.get("executor"),
            "pipeline": req.query.get("pipeline"),
            "options": options or None,
        }

    async def _handle_compress(self, req: Request) -> tuple[int, dict, bytes]:
        shape = req.query_dims("shape")
        if shape is None:
            raise HttpError(400, "POST /compress needs ?shape=D0,D1,... matching the body")
        dtype = req.query.get("dtype", "float32")
        if dtype not in _DTYPES:
            raise HttpError(400, f"dtype must be one of {_DTYPES}, got {dtype!r}")
        query = self._compress_query(req)
        result = await self._pool_call(
            "compress", {"query": query, "data": req.body, "dtype": dtype, "shape": shape}
        )
        payload = result["payload"]
        headers = {
            "X-Repro-Codec": result["codec"],
            "X-Repro-CR": f"{result['raw_nbytes'] / max(1, len(payload)):.4f}",
            "X-Repro-Eb-Abs": f"{result['eb_abs']:.8g}",
        }
        return 200, headers, payload

    async def _handle_decompress(self, req: Request) -> tuple[int, dict, bytes]:
        if not req.body:
            raise HttpError(400, "POST /decompress needs a .rpz container body")
        result = await self._pool_call("decompress", {"data": req.body})
        headers = {
            "X-Repro-Shape": ",".join(str(d) for d in result["shape"]),
            "X-Repro-Dtype": result["dtype"],
        }
        return 200, headers, result["payload"]

    # ---------------------------------------------------------------- storage
    def _archive_path(self, name: str) -> str:
        _safe_name(name, "archive name")
        path = os.path.join(self.archive_root, name)
        if os.path.exists(path):
            return path
        if not name.endswith(".rpza") and os.path.exists(path + ".rpza"):
            return path + ".rpza"
        raise HttpError(404, f"archive {name!r} not found under the archive root")

    def _handle_archive_list(self) -> tuple[int, dict, bytes]:
        names = [
            entry
            for entry in sorted(os.listdir(self.archive_root))
            if entry.endswith(".rpza") and os.path.isfile(os.path.join(self.archive_root, entry))
        ]
        return json_response({"archives": names})

    async def _handle_archive_entries(self, name: str) -> tuple[int, dict, bytes]:
        from ..service import ArchiveCorruption, ArchiveError, ArchiveStore

        path = self._archive_path(name)

        def _list() -> list[dict]:
            with ArchiveStore(path, mode="r") as archive:
                return [e.to_json() for e in archive.entries()]

        try:
            entries = await asyncio.to_thread(_list)
        except ArchiveCorruption as exc:
            raise self._corruption_503(exc) from None
        except ArchiveError as exc:
            raise HttpError(400, str(exc)) from None
        return json_response({"archive": name, "entries": entries})

    async def _handle_field_read(
        self, req: Request, name: str, field: str
    ) -> tuple[int, dict, bytes]:
        path = self._archive_path(name)
        tile = req.query_int("tile")
        # Shard on (archive, field) — tiles of one field share a worker
        # cache, so repeated tile reads hit that worker's LRU.
        result = await self._pool_call(
            "read",
            {"path": path, "field": field, "tile": tile},
            key=f"{os.path.basename(path)}|{field}",
        )
        headers = {
            "X-Repro-Shape": ",".join(str(d) for d in result["shape"]),
            "X-Repro-Dtype": result["dtype"],
            "X-Repro-Source": result["source"],
        }
        if result["origin"] is not None:
            headers["X-Repro-Tile-Origin"] = ",".join(str(o) for o in result["origin"])
        return 200, headers, result["payload"]

    # ------------------------------------------------------------------- jobs
    def _handle_job_submit(self, req: Request) -> tuple[int, dict, bytes]:
        try:
            doc = json.loads(req.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"POST /jobs needs a JSON manifest body: {exc}") from None
        archive = req.query.get("archive")
        try:
            snapshot = self.jobs.submit(doc, archive=archive)
        except ValueError as exc:  # ManifestError, or a bad archive name
            raise HttpError(400, str(exc)) from None
        return json_response(snapshot, status=202)

    def _handle_job_poll(self, job_id: str) -> tuple[int, dict, bytes]:
        snapshot = self.jobs.get(job_id)
        if snapshot is None:
            raise HttpError(404, f"no job {job_id!r}")
        return json_response(snapshot)

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Everything ``GET /stats`` reports, as one JSON-ready document.

        ``codec_tables`` exposes the memoized coding-table counters (Huffman
        code/LUT tables, rANS tables, interpolation pass plans): requests
        with identical histograms must show ``huffman.hits`` growing instead
        of rebuilding tables — the counters make that provable from the
        outside (in single-process mode; pooled, the tables live in the
        workers).  ``archive_blob_cache`` is the parsed-frame cache behind
        per-tile archive reads.

        ``schema`` pins the document shape (``repro.stats/2``); ``admission``
        tracks the 429/503 guardrails, ``integrity`` the corruption/worker-
        death/fault 503s (plus the sticky ``degraded`` flag), ``latency``
        holds the per-route histograms, and ``pool`` is the task-pool
        counter block (``workers`` is 1 and ``pids`` is ``[None]`` in
        single-process mode, where the tasks run in the frontend).
        """
        return {
            "schema": STATS_SCHEMA,
            "uptime_s": round(time.time() - self._started_s, 3),
            "archive_root": self.archive_root,
            "draining": self._draining,
            "requests": self._http.requests,
            "responses": dict(self._http.responses),
            "admission": {
                "queue_depth": self.queue_depth,
                "deadline_ms": self.deadline_ms,
                "inflight_heavy": self._inflight_heavy,
                "rejected_429": self._rejected_429,
                "expired_503": self._expired_503,
                "draining_503": self._draining_503,
            },
            "integrity": {**self._integrity, "degraded": self.degraded},
            "latency": self.latency.snapshot(),
            "pool": self.pool.stats(),
            "jobs": self.jobs.counts(),
            "codec_tables": {
                "huffman": _cache_stats("repro.encoders.huffman", "table_cache_stats"),
                "ans": _cache_stats("repro.encoders.ans", "table_cache_stats"),
                "interp_plans": _cache_stats("repro.predictor.interpolation", "level_plan_stats"),
            },
            "archive_blob_cache": _cache_stats(
                "repro.service.archive", "blob_cache_stats", _UNUSED_LRU
            ),
        }


async def run_server(server: ReproServer) -> None:
    """Start ``server`` and serve until cancelled (the CLI entry point)."""
    await server.start()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()

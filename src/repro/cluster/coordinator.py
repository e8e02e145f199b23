"""Cluster coordinator: an asyncio HTTP control plane over a lease board.

``repro cluster coordinator`` binds this server over one parsed manifest.
It is the control plane only — field payloads never pass through it.
Workers pull leases, compress locally into their own shard, and ack with
metrics; the coordinator's job is ordering (cost-model LPT, largest field
first), liveness (heartbeat-renewed lease TTLs, an expiry sweeper that
requeues a dead worker's fields exactly once) and the final
``repro.cluster-report/1`` accounting.

====== ================ ====================================================
method path             purpose
====== ================ ====================================================
GET    ``/manifest``    the job document workers compress (+ ``base_dir``)
POST   ``/lease``       pull the next field (``granted``/``wait``/``drained``)
POST   ``/ack``         report one field done (idempotent; late acks count)
POST   ``/heartbeat``   renew every lease the calling worker holds
GET    ``/cluster``     live status: queue depths, workers, reassignments
GET    ``/report``      the ``repro.cluster-report/1`` document so far
====== ================ ====================================================

Like :class:`repro.server.app.ReproServer`, this server speaks HTTP/1.1
keep-alive through the shared :mod:`repro.http` core: worker poll loops
issue thousands of tiny JSON exchanges, and the keep-alive support in
:class:`repro.client.ReproClient` makes each one a single socket write
instead of a fresh TCP handshake.

Chaos hooks: ``cluster.lease-grant`` and ``cluster.ack`` fire inside the
respective handlers; an injected ``error`` maps to a retryable 503 (the
worker's client backs off and retries), never a bare 500.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time

from ..faults import FaultInjected, fire
from ..http import HttpError, HttpServer, Request, json_response
from ..service.manifest import JobSpec, jobspec_to_doc
from ..service.runner import estimate_field_cost
from .leases import LeaseBoard

__all__ = ["REPORT_SCHEMA", "STATUS_SCHEMA", "ClusterCoordinator", "CoordinatorThread"]

log = logging.getLogger("repro.cluster")

REPORT_SCHEMA = "repro.cluster-report/1"
STATUS_SCHEMA = "repro.cluster-status/1"

_MAX_BODY = 4 * 1024 * 1024


class ClusterCoordinator:
    """One job's control plane: lease board + worker registry + HTTP front.

    ``lease_ttl_s`` is the liveness window: a worker that neither acks nor
    heartbeats for this long forfeits its leases (see ``docs/OPERATIONS.md``
    for tuning — the TTL must exceed the heartbeat interval by a comfortable
    multiple, and the slowest single field should either fit inside it or
    rely on heartbeats to keep its lease alive).
    """

    def __init__(
        self,
        spec: JobSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl_s: float = 15.0,
        sweep_interval_s: float | None = None,
    ):
        self.spec = spec
        self.host = host
        self._requested_port = int(port)
        self.board = LeaseBoard(
            [(f.name, estimate_field_cost(spec, f)) for f in spec.fields],
            ttl_s=lease_ttl_s,
        )
        #: worker name -> registry row (first/last seen, shard, ack tallies)
        self.workers: dict[str, dict] = {}
        self.sweep_interval_s = sweep_interval_s or max(0.05, lease_ttl_s / 4.0)
        self.started_s = time.monotonic()
        self.drained_event = asyncio.Event()
        self._http = HttpServer(self._handle, _MAX_BODY)
        self._sweeper: asyncio.Task | None = None

    # -------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        return self._http.port or self._requested_port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        await self._http.start(self.host, self._requested_port)
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_loop())
        log.info(
            "coordinating job %r (%d fields) on http://%s", self.spec.name,
            len(self.spec.fields), self.address,
        )

    async def stop(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        await self._http.close()

    async def run_until_drained(self, timeout_s: float | None = None) -> dict:
        """Serve until every field is acked; returns the final report."""
        if self._http.port is None:
            await self.start()
        try:
            await asyncio.wait_for(self.drained_event.wait(), timeout_s)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"job {self.spec.name!r} did not drain within {timeout_s}s"
            ) from None
        return self.report()

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval_s)
            now = time.monotonic()
            for lease in self.board.expire(now):
                log.warning(
                    "lease %s (field %r, worker %r) expired after %.1fs — requeued",
                    lease.lease_id, lease.field, lease.worker, now - lease.granted_at,
                )
            self._check_drained()

    def _check_drained(self) -> None:
        if self.board.drained:
            self.drained_event.set()

    # ----------------------------------------------------------------- status
    def _worker(self, name: str, shard: str | None = None) -> dict:
        row = self.workers.setdefault(
            name,
            {
                "shard": shard,
                "first_seen_s": time.monotonic(),
                "last_seen_s": time.monotonic(),
                "fields": [],
                "ok": 0,
                "failed": 0,
                "raw_nbytes": 0,
                "nbytes": 0,
                "compute_s": 0.0,
                "resumed": 0,
            },
        )
        row["last_seen_s"] = time.monotonic()
        if shard:
            row["shard"] = shard
        return row

    def status(self) -> dict:
        now = time.monotonic()
        return {
            "schema": STATUS_SCHEMA,
            "job": self.spec.name,
            "counts": self.board.counts(),
            "drained": self.board.drained,
            "lease_ttl_s": self.board.ttl_s,
            "uptime_s": round(now - self.started_s, 3),
            "requests": self._http.requests,
            "pending": self.board.pending,
            "leased": [
                {"lease_id": lse.lease_id, "field": lse.field, "worker": lse.worker,
                 "expires_in_s": round(lse.expires_at - now, 3), "attempt": lse.attempt}
                for lse in self.board.leased
            ],
            "workers": {
                name: {**row, "idle_s": round(now - row["last_seen_s"], 3)}
                for name, row in self.workers.items()
            },
        }

    def report(self) -> dict:
        """The ``repro.cluster-report/1`` document (final once drained)."""
        elapsed = time.monotonic() - self.started_s
        workers = {}
        for name, row in self.workers.items():
            compute = row["compute_s"]
            workers[name] = {
                "shard": row["shard"],
                "fields": list(row["fields"]),
                "ok": row["ok"],
                "failed": row["failed"],
                "resumed": row["resumed"],
                "raw_nbytes": row["raw_nbytes"],
                "nbytes": row["nbytes"],
                "compute_s": round(compute, 4),
                "throughput_mbs": round(row["raw_nbytes"] / max(compute, 1e-9) / 1e6, 3),
            }
        counts = self.board.counts()
        return {
            "schema": REPORT_SCHEMA,
            "job": self.spec.name,
            "drained": self.board.drained,
            "fields": counts["fields"],
            "ok": counts["ok"],
            "failed": counts["failed"],
            "elapsed_s": round(elapsed, 4),
            "reassignments": list(self.board.reassignments),
            "duplicate_acks": self.board.duplicate_acks,
            "field_status": {
                name: rec.status for name, rec in sorted(self.board.done.items())
            },
            "workers": workers,
            "replicas": {},  # filled by `repro cluster run` after placement
        }

    # -------------------------------------------------------------- HTTP layer
    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        return doc

    async def _handle(self, request: Request) -> tuple[int, dict, bytes]:
        routes = {
            ("GET", "/manifest"): self._handle_manifest,
            ("POST", "/lease"): self._handle_lease,
            ("POST", "/ack"): self._handle_ack,
            ("POST", "/heartbeat"): self._handle_heartbeat,
            ("GET", "/cluster"): lambda _b: (200, self.status()),
            ("GET", "/report"): lambda _b: (200, self.report()),
            ("GET", "/healthz"): lambda _b: (200, {"status": "ok", "job": self.spec.name}),
        }
        method, path = request.method, request.path
        handler = routes.get((method, path))
        if handler is None:
            if any(p == path for m, p in routes):
                raise HttpError(405, f"{method} not allowed on {path}")
            raise HttpError(404, f"no route {path!r}")
        status, doc = handler(request.body)
        return json_response(doc, status)

    # --------------------------------------------------------------- handlers
    def _handle_manifest(self, _body: bytes):
        return 200, {
            "schema": "repro.cluster-manifest/1",
            "manifest": jobspec_to_doc(self.spec),
            "base_dir": self.spec.base_dir,
            "lease_ttl_s": self.board.ttl_s,
        }

    def _handle_lease(self, body: bytes):
        doc = self._json_body(body)
        worker = str(doc.get("worker") or "") or None
        if worker is None:
            raise HttpError(400, "lease request needs a 'worker' name")
        self._worker(worker, doc.get("shard"))
        now = time.monotonic()
        try:
            fire("cluster.lease-grant", worker=worker)
        except FaultInjected as exc:
            raise HttpError(503, str(exc)) from None
        # An active worker asking for work proves liveness for everything it
        # already holds — renew so multi-field workers never self-expire.
        self.board.heartbeat(worker, now)
        lease = self.board.lease(worker, now)
        if lease is not None:
            return 200, {
                "status": "granted",
                "lease_id": lease.lease_id,
                "field": lease.field,
                "attempt": lease.attempt,
                "ttl_s": self.board.ttl_s,
            }
        self._check_drained()
        if self.board.drained:
            return 200, {"status": "drained"}
        # Cap the advertised poll interval: the sweep may be many seconds on
        # long TTLs, but an idle worker re-asking is one cheap keep-alive
        # exchange, and a fast poll is what bounds the drain tail latency.
        return 200, {"status": "wait", "retry_after_s": round(min(self.sweep_interval_s, 1.0), 3)}

    def _handle_ack(self, body: bytes):
        doc = self._json_body(body)
        lease_id = str(doc.get("lease_id") or "")
        worker = str(doc.get("worker") or "")
        if not lease_id or not worker:
            raise HttpError(400, "ack needs 'lease_id' and 'worker'")
        status = doc.get("status", "ok")
        if status not in ("ok", "failed"):
            raise HttpError(400, f"ack status must be 'ok' or 'failed', got {status!r}")
        try:
            fire("cluster.ack", worker=worker, lease_id=lease_id)
        except FaultInjected as exc:
            raise HttpError(503, str(exc)) from None
        result = doc.get("result") or {}
        if not isinstance(result, dict):
            raise HttpError(400, "ack 'result' must be a JSON object")
        now = time.monotonic()
        disposition = self.board.ack(lease_id, now, status=status, info=result)
        if disposition in ("ok", "late"):
            row = self._worker(worker, doc.get("shard"))
            field = next(
                (f for f, r in self.board.done.items() if r.lease_id == lease_id), None
            )
            if field is not None:
                row["fields"].append(field)
            row["ok" if status == "ok" else "failed"] += 1
            row["raw_nbytes"] += int(result.get("raw_nbytes", 0) or 0)
            row["nbytes"] += int(result.get("nbytes", 0) or 0)
            row["compute_s"] += float(result.get("wall_s", 0.0) or 0.0)
            row["resumed"] += 1 if result.get("resumed") else 0
            self.board.heartbeat(worker, now)
        self._check_drained()
        return 200, {"status": disposition, "drained": self.board.drained}

    def _handle_heartbeat(self, body: bytes):
        doc = self._json_body(body)
        worker = str(doc.get("worker") or "")
        if not worker:
            raise HttpError(400, "heartbeat needs a 'worker' name")
        self._worker(worker)
        renewed = self.board.heartbeat(worker, time.monotonic())
        return 200, {"status": "ok", "renewed": renewed}


class CoordinatorThread:
    """A coordinator on a daemon thread with its own event loop.

    ``repro cluster run`` (and the tests) need the coordinator alive while
    the same process spawns and babysits worker subprocesses; this wrapper
    owns the loop, exposes the bound address after :meth:`start` (port 0 is
    resolved by then), and joins cleanly on :meth:`stop`.
    """

    def __init__(self, spec: JobSpec, **kwargs):
        self.coordinator = ClusterCoordinator(spec, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None

    @property
    def address(self) -> str:
        return self.coordinator.address

    def start(self, timeout_s: float = 10.0) -> "CoordinatorThread":
        self._thread = threading.Thread(target=self._main, name="repro-coordinator", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("coordinator failed to start within the timeout")
        return self

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.coordinator.start()
        self._ready.set()
        try:
            await self._stop.wait()  # parked until stop() fires the event
        finally:
            await self.coordinator.stop()

    def wait_drained(self, timeout_s: float | None = None) -> bool:
        """Block the calling thread until every field is acked."""
        assert self._loop is not None
        fut = asyncio.run_coroutine_threadsafe(
            self.coordinator.drained_event.wait(), self._loop
        )
        try:
            fut.result(timeout_s)
            return True
        except TimeoutError:
            fut.cancel()
            return False

    def stop(self) -> None:
        if self._thread is None or self._loop is None or self._stop is None:
            return
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)
        self._thread = None

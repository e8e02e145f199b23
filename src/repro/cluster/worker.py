"""Cluster worker: pull leases, compress locally, append to an owned shard.

One worker owns one ``.rpza`` shard and one identity.  Its loop is the
simplest thing that survives every failure mode the coordinator models:

1. ``GET /manifest`` once — the job document plus the coordinator's
   ``base_dir`` round-trips through :func:`~repro.service.manifest.
   parse_manifest`, so a worker validates exactly what the CLI would.
2. ``POST /lease`` until the coordinator answers ``drained``.  Every
   request rides the keep-alive :class:`~repro.client.ReproClient` (capped
   full-jitter retries, deadlines) — a coordinator hiccup or an injected
   503 is the client's problem, not the loop's.
3. For each granted field: if the shard already holds it, this process is
   a restart of a crashed worker — ack ``resumed`` without recomputing
   (the footer-flip commit protocol guarantees the entry is whole).
   Otherwise compress through the same :func:`~repro.service.runner.
   _run_field_job` path the batch runner uses, append to the shard
   (``cluster.shard-append`` chaos point fires first — a ``kill`` spec
   here is the canonical SIGKILLed-worker scenario), and ack with metrics.
4. Heartbeat from a daemon thread on its own connection (the sync client
   is deliberately not thread-safe once a keep-alive socket is cached), so
   a long compress never lets the lease lapse.

Failed fields are acked ``failed``: a deterministically broken manifest
row must converge to a failed report line, not ping-pong between workers
until someone notices.
"""

from __future__ import annotations

import logging
import os
import threading
import time

from ..client import ClientError, ReproClient, RetryPolicy
from ..faults import FaultInjected, fire
from ..service.archive import ArchiveStore
from ..service.manifest import JobSpec, ManifestError, parse_manifest
from ..service.runner import _run_field_job, append_field

__all__ = ["ClusterWorker", "WorkerError"]

log = logging.getLogger("repro.cluster")

#: consecutive coordinator failures (transport or non-2xx) before giving up —
#: each one already carries a full retry budget inside the client.
_MAX_CONSECUTIVE_FAILURES = 5


class WorkerError(RuntimeError):
    """The worker cannot make progress (unreachable/nonsensical coordinator)."""


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise WorkerError(f"coordinator address must be host:port, got {address!r}")
    return host, int(port)


class ClusterWorker:
    """One pull-loop worker bound to a coordinator and a shard path."""

    def __init__(
        self,
        coordinator: str,
        shard_path: str,
        name: str | None = None,
        policy: RetryPolicy | None = None,
        seed: int | str = 0,
        poll_interval_s: float = 0.2,
    ):
        self.host, self.port = _parse_address(coordinator)
        self.shard_path = os.fspath(shard_path)
        self.name = name or f"w{os.getpid()}"
        self.policy = policy or RetryPolicy(deadline_s=30.0)
        self.seed = seed
        self.poll_interval_s = poll_interval_s
        self.client = ReproClient(self.host, self.port, policy=self.policy, seed=seed)
        self.summary = {
            "worker": self.name,
            "shard": self.shard_path,
            "fields": [],
            "ok": 0,
            "failed": 0,
            "resumed": 0,
        }
        self._stop_heartbeat = threading.Event()

    # ------------------------------------------------------------- transport
    def _call(self, method: str, target: str, doc: dict | None = None) -> dict:
        import json

        body = json.dumps(doc, sort_keys=True).encode("utf-8") if doc is not None else b""
        response = self.client.request(method, target, body)
        if not response.ok:
            raise WorkerError(
                f"{method} {target} -> {response.status}: "
                f"{response.body.decode('utf-8', 'replace').strip()}"
            )
        try:
            return response.json()
        except ValueError as exc:
            raise WorkerError(f"{method} {target}: non-JSON response: {exc}") from None

    # ------------------------------------------------------------- heartbeat
    def _heartbeat_loop(self, interval_s: float) -> None:
        # Own client: its keep-alive connection must not interleave with the
        # main loop's on one socket.
        client = ReproClient(
            self.host, self.port, policy=self.policy, seed=f"{self.seed}:hb"
        )
        import json

        body = json.dumps({"worker": self.name}).encode("utf-8")
        while not self._stop_heartbeat.wait(interval_s):
            try:
                client.post("/heartbeat", body)
            except ClientError:
                pass  # lease renewal is best-effort; the lease loop will see it
        client.close()

    # ------------------------------------------------------------------ run
    def run(self) -> dict:
        """Pull and compress until the coordinator drains; returns a summary."""
        manifest_doc = self._call("GET", "/manifest")
        try:
            spec = parse_manifest(
                manifest_doc["manifest"], base_dir=manifest_doc.get("base_dir", ".")
            )
        except (KeyError, ManifestError) as exc:
            raise WorkerError(f"coordinator shipped an unusable manifest: {exc}") from None
        by_name = {f.name: f for f in spec.fields}
        ttl_s = float(manifest_doc.get("lease_ttl_s", 15.0))

        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(max(0.05, ttl_s / 3.0),),
            name=f"repro-heartbeat-{self.name}",
            daemon=True,
        )
        heartbeat.start()
        failures = 0
        try:
            with ArchiveStore(self.shard_path, mode="a") as shard:
                while True:
                    try:
                        grant = self._call(
                            "POST", "/lease", {"worker": self.name, "shard": self.shard_path}
                        )
                        failures = 0
                    except (ClientError, WorkerError) as exc:
                        failures += 1
                        if failures >= _MAX_CONSECUTIVE_FAILURES:
                            raise WorkerError(
                                f"worker {self.name}: coordinator unreachable "
                                f"({failures} consecutive failures): {exc}"
                            ) from exc
                        time.sleep(self.poll_interval_s)
                        continue
                    status = grant.get("status")
                    if status == "drained":
                        break
                    if status == "wait":
                        time.sleep(float(grant.get("retry_after_s", self.poll_interval_s)))
                        continue
                    if status != "granted":
                        raise WorkerError(f"unexpected lease response: {grant!r}")
                    self._work_one(shard, spec, by_name, grant)
        finally:
            self._stop_heartbeat.set()
            heartbeat.join(timeout=5.0)
            self.client.close()
        self.summary["client"] = dict(self.client.stats)
        return dict(self.summary)

    def _work_one(self, shard: ArchiveStore, spec: JobSpec, by_name, grant: dict) -> None:
        field = grant["field"]
        lease_id = grant["lease_id"]
        fspec = by_name.get(field)
        if fspec is None:
            self._ack(lease_id, "failed", {"error": f"unknown field {field!r}"})
            return
        if field in shard:
            # Crash resume: a previous life of this worker committed the
            # entry (footer-flip semantics — it is whole or absent).
            entry = shard.entry(field)
            log.info("worker %s: %r already in shard — resumed, not recomputed", self.name, field)
            self._record(field, "ok", resumed=True)
            self._ack(
                lease_id,
                "ok",
                {
                    "resumed": True,
                    "nbytes": entry.nbytes,
                    "raw_nbytes": entry.raw_nbytes,
                    "wall_s": 0.0,
                },
            )
            return
        result, payload, stream_info = _run_field_job(spec, fspec, ("serial", 1))
        if result.status == "ok":
            try:
                # Chaos point: `kill` here is the SIGKILL-mid-append scenario
                # (lease expires, the field is reassigned); `error` models a
                # full disk — the field is acked failed, not retried forever.
                fire("cluster.shard-append", worker=self.name, field=field)
                meta = {"job": spec.name, "worker": self.name}
                append_field(shard, field, payload, stream_info, meta)
            except (FaultInjected, OSError, ValueError) as exc:
                result.status = "failed"
                result.error = f"{type(exc).__name__}: {exc}"
        ack_result = {
            "nbytes": result.nbytes,
            "raw_nbytes": result.raw_nbytes,
            "wall_s": result.wall_s,
            "cr": result.cr,
            "psnr": result.psnr,
        }
        if result.error:
            ack_result["error"] = result.error
        self._record(field, result.status)
        self._ack(lease_id, result.status, ack_result)

    def _record(self, field: str, status: str, resumed: bool = False) -> None:
        self.summary["fields"].append(field)
        self.summary["ok" if status == "ok" else "failed"] += 1
        if resumed:
            self.summary["resumed"] += 1

    def _ack(self, lease_id: str, status: str, result: dict) -> None:
        doc = {
            "lease_id": lease_id,
            "worker": self.name,
            "shard": self.shard_path,
            "status": status,
            "result": result,
        }
        try:
            answer = self._call("POST", "/ack", doc)
        except (ClientError, WorkerError) as exc:
            # The lease will expire and the field will be reassigned; the
            # next owner (possibly a restart of us) resumes from the shard.
            log.warning("worker %s: ack for %s failed: %s", self.name, lease_id, exc)
            return
        if answer.get("status") == "duplicate":
            log.warning(
                "worker %s: field already acked elsewhere (lease %s) — duplicate compute",
                self.name,
                lease_id,
            )

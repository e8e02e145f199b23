"""Background job manager: run manifest batches behind ``POST /jobs``.

A job is one :class:`~repro.service.manifest.JobSpec` manifest executed by
:class:`~repro.service.runner.BatchRunner` into an archive under the server's
archive root.  Jobs run one at a time on a worker thread so the event loop
keeps serving reads while a corpus compresses; clients poll ``GET /jobs/{id}``
until the state is ``done`` (the response then embeds the full
``repro.batch-report/1`` report) or ``failed`` (the response carries the
error).  Manifest *validation* errors surface synchronously at submit time —
they are the caller's bug, not the job's.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..service import ArchiveStore, BatchRunner, parse_manifest
from ..service.manifest import JobSpec

__all__ = ["JobManager", "JobState", "check_bare_name"]


def check_bare_name(name: str) -> str:
    """Validate a client-supplied archive name: one path component, no
    traversal.  The single sanitizer both the job submit path and the HTTP
    read path use, so the two cannot drift apart."""
    if not name or name != os.path.basename(name) or name in (".", ".."):
        raise ValueError(f"archive name {name!r} must be a bare file name")
    return name


class JobState:
    """One submitted job's lifecycle record (thread-safe snapshots only)."""

    def __init__(self, job_id: str, spec: JobSpec, archive_path: str):
        self.id = job_id
        self.spec = spec
        self.archive_path = archive_path
        self.status = "queued"  # queued | running | done | failed
        self.error: str | None = None
        self.report: dict | None = None
        self.submitted_s = time.time()
        self.wall_s: float | None = None

    def snapshot(self) -> dict:
        doc = {
            "id": self.id,
            "job": self.spec.name,
            "archive": os.path.basename(self.archive_path),
            "fields": len(self.spec.fields),
            "status": self.status,
        }
        if self.wall_s is not None:
            doc["wall_s"] = round(self.wall_s, 4)
        if self.error is not None:
            doc["error"] = self.error
        if self.report is not None:
            doc["report"] = self.report
        return doc


class JobManager:
    """Submit/poll façade over a worker pool running :class:`BatchRunner`.

    Jobs deliberately run one at a time with ``executor="serial",
    workers=1`` regardless of what the manifest asks for: the server is
    already fanning out across requests, so letting one job spawn its own
    pool would oversubscribe the cores every other endpoint is being served
    on.
    """

    def __init__(self, archive_root: str):
        self.archive_root = archive_root
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-job")
        self._jobs: dict[str, JobState] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ----------------------------------------------------------------- submit
    def submit(self, doc: dict, archive: str | None = None) -> dict:
        """Validate ``doc`` as a manifest and queue it; returns a snapshot.

        Raises :class:`~repro.service.manifest.ManifestError` on an invalid
        manifest and :class:`ValueError` on a bad archive name — both are
        HTTP 4xx material, reported before a job id is ever allocated.
        """
        spec = parse_manifest(doc, base_dir=self.archive_root)
        with self._lock:
            job_id = f"job-{next(self._ids)}"
        name = check_bare_name(archive or f"{job_id}.rpza")
        state = JobState(job_id, spec, os.path.join(self.archive_root, name))
        with self._lock:
            self._jobs[job_id] = state
        self._pool.submit(self._run, state)
        return state.snapshot()

    def _run(self, state: JobState) -> None:
        state.status = "running"
        t0 = time.perf_counter()
        try:
            with ArchiveStore(state.archive_path, mode="a", backend="file") as archive:
                runner = BatchRunner(state.spec, archive, executor="serial", workers=1)
                report = runner.run()
            state.report = report.to_json()
            state.status = "done"
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            state.error = f"{type(exc).__name__}: {exc}"
            state.status = "failed"
        finally:
            state.wall_s = time.perf_counter() - t0

    # ------------------------------------------------------------------- poll
    def get(self, job_id: str) -> dict | None:
        with self._lock:
            state = self._jobs.get(job_id)
        return state.snapshot() if state is not None else None

    def counts(self) -> dict:
        """Job-state tally (the ``jobs`` block of ``GET /stats``)."""
        out = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        with self._lock:
            states = list(self._jobs.values())
        for s in states:
            out[s.status] = out.get(s.status, 0) + 1
        out["total"] = len(states)
        return out

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

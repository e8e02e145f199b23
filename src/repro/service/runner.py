"""Batch runner: schedule a manifest's fields across executors into an archive.

The runner is the orchestration layer between a :class:`~repro.service.
manifest.JobSpec` and an :class:`~repro.service.archive.ArchiveStore`.  Its
executor path is :func:`run_units`, which the eval orchestrator shares:

* **LPT scheduling** — fields are submitted largest-first
  (:func:`repro.gpu.costmodel.lpt_order` over per-field element counts), so a
  greedy worker pool approximates the minimal makespan instead of letting one
  big trailing field serialize the run;
* **failure isolation** — each field compresses inside its own try/except,
  and a worker crash or failed append fails only its own unit, so a missing
  raw file or a poisoned worker marks that one field ``failed`` in the report
  and the rest of the corpus still lands in the archive;
* **resumability** — fields whose names are already present in the archive
  are reported ``skipped`` without being scheduled, so re-running a manifest
  after a crash (or appending fields to it) only pays for the missing work;
* **machine-readable report** — :class:`BatchReport` serializes per-field
  CR / bitrate / PSNR / max-error / wall time plus corpus totals as JSON
  (schema id ``repro.batch-report/1``), the artifact CI tracks per-PR.

Process-executor note: the field is the unit of parallelism here, so worker
processes force any per-field *tile* executor down to ``serial`` — nesting
pools would oversubscribe the same cores they are scheduled on.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from ..api import codec_name
from ..api.request import check_count
from ..core.streaming import StreamWriter
from ..core.tiling import executor_pool, resolve_workers, runs_serially, tile_fanout
from ..datasets.io import read_raw
from ..datasets.registry import get_info, load
from ..gpu.costmodel import lpt_order
from ..metrics.error import max_abs_error, psnr
from .archive import ArchiveStore
from .manifest import FieldSpec, JobSpec, resolve_field_path

__all__ = [
    "BatchRunner",
    "BatchReport",
    "FieldResult",
    "REPORT_SCHEMA",
    "append_field",
    "estimate_field_cost",
    "run_units",
]

REPORT_SCHEMA = "repro.batch-report/1"


@dataclass
class FieldResult:
    """Everything the report records about one manifest field."""

    name: str
    status: str  # "ok" | "skipped" | "failed"
    error: str | None = None
    codec: str | None = None
    shape: tuple[int, ...] | None = None
    dtype: str | None = None
    timesteps: int = 1
    eb_abs: float | None = None
    raw_nbytes: int = 0
    nbytes: int = 0
    cr: float | None = None
    bitrate: float | None = None
    psnr: float | None = None
    max_err: float | None = None
    wall_s: float = 0.0


@dataclass
class BatchReport:
    """JSON-serializable job report (per-field metrics + corpus totals)."""

    job: str
    archive: str
    executor: str
    workers: int
    fields: list[FieldResult] = field(default_factory=list)
    wall_s: float = 0.0
    lpt_makespan_elements: float = 0.0

    @property
    def counts(self) -> dict[str, int]:
        out = {"ok": 0, "skipped": 0, "failed": 0}
        for r in self.fields:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_json(self) -> dict:
        ok = [r for r in self.fields if r.status == "ok"]
        raw = sum(r.raw_nbytes for r in ok)
        packed = sum(r.nbytes for r in ok)
        return {
            "schema": REPORT_SCHEMA,
            "job": self.job,
            "archive": self.archive,
            "executor": self.executor,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "scheduler": {
                "policy": "lpt",
                "modeled_makespan_elements": self.lpt_makespan_elements,
            },
            "totals": {
                "fields": len(self.fields),
                **self.counts,
                "raw_nbytes": raw,
                "compressed_nbytes": packed,
                "cr": raw / packed if packed else None,
            },
            "fields": [asdict(r) for r in self.fields],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @property
    def ok(self) -> bool:
        return self.counts["failed"] == 0


# --------------------------------------------------------------------------
# The one work-unit executor: batch fields and eval cells both run here.
# --------------------------------------------------------------------------


def run_workers(override: int | None, default: int) -> int:
    """The worker count of a run: the caller's ``override`` if given,
    checked like a manifest's ``job.workers``, else the spec's ``default``;
    0 auto-sizes to the CPU count."""
    if override is not None:
        check_count(
            override, f"workers override must be an integer >= 0 (0 = auto), got {override!r}"
        )
    return resolve_workers(default if override is None else override)


def run_units(units, cost, job, store, resume, executor, workers, *, blank, present, append):
    """Run ``job`` over the units ``store`` lacks, archiving each as it lands.

    ``units`` maps each unit's archive entry name to the unit (a manifest
    field, a matrix cell), in report order.

    * **Resume** — with ``resume`` set, a unit already in ``store`` does not
      run; ``present(key)`` builds its row.
    * **LPT scheduling** — the rest are submitted largest-``cost``-first
      to ``job(unit, inner)``, a module-level function so the processes
      executor can pickle it.  ``inner`` is the ``(executor, workers)`` pair
      a unit may fan its tiles out on: units are the unit of parallelism, so
      never a nested process pool, and no tile threads on the lanes process
      workers run on.
    * **Streaming archive** — ``job`` returns ``(row, *payload)``.  Units
      land in submission order: each as soon as it and every unit
      submitted before it are done, when this thread archives an ``ok`` row
      with ``append(key, row, *payload)``.  A crashed run loses at most the
      unlanded units, payloads are dropped as they land, and the archive's
      bytes do not depend on the executor or on scheduling.
    * **Failure isolation** — a job that raises or a worker that dies
      reports ``blank(unit)`` (the unit's row before it ran) with ``error``
      set; an append that raises turns its row ``failed``.  The other units
      still land.

    Returns ``(rows, executed, makespan)``: one row per unit in input
    order, the keys that ran this time in input order, and the modeled LPT
    makespan of those units in ``cost`` units.
    """
    rows, executed = {}, []
    for key in units:
        if resume and key in store:
            rows[key] = present(key)
        else:
            executed.append(key)
    order, makespan = lpt_order([cost(units[key]) for key in executed], workers)
    submitted = [executed[i] for i in order]
    inner = ("serial" if executor == "processes" else "threads", 1 if executor != "serial" else 0)

    def land(key, outcome) -> None:
        try:
            row, *payload = outcome()
        except Exception as exc:  # noqa: BLE001 — a raising job or dead worker fails one unit
            row = blank(units[key])
            row.error = f"{type(exc).__name__}: {exc}"
        else:
            if row.status == "ok":
                try:
                    append(key, row, *payload)
                except Exception as exc:  # noqa: BLE001 — isolation boundary
                    row.status = "failed"
                    row.error = f"{type(exc).__name__}: {exc}"
        rows[key] = row

    if runs_serially(executor, workers, len(submitted)):
        for key in submitted:
            land(key, partial(job, units[key], inner))
    else:
        with executor_pool(executor, min(workers, len(submitted))) as pool:
            futures = [pool.submit(job, units[key], inner) for key in submitted]
            for key, future in zip(submitted, futures):
                land(key, future.result)
    return [rows[key] for key in units], executed, makespan


def append_field(store: ArchiveStore, name, payload, stream_info, meta, replace=False):
    """Archive one compressed manifest field: a snapshot stream when the job
    returned ``stream_info`` (its geometry), a single blob otherwise."""
    if stream_info is not None:
        return store.add_stream(name, payload, **stream_info, meta=meta, replace=replace)
    return store.add_blob(name, payload, meta=meta, replace=replace)


# --------------------------------------------------------------------------
# Per-field job, module-level so the "processes" executor can pickle it.
# Returns (FieldResult, payload, stream_info) — the parent owns the archive.
# --------------------------------------------------------------------------


def estimate_field_cost(job: JobSpec, spec: FieldSpec) -> float:
    """Per-field work estimate in elements — the LPT scheduling weight.

    Shared by :class:`BatchRunner` and the cluster coordinator so single-node
    and distributed runs hand out the same largest-first order.
    """
    shape = spec.shape
    if shape is None and spec.dataset is not None:
        shape = get_info(spec.dataset).default_shape
    if shape is not None:
        return float(np.prod(shape)) * spec.timesteps
    try:
        return os.path.getsize(job.resolve_path(spec)) / 4.0
    except OSError:
        return 0.0


def _load_field(spec: FieldSpec, base_dir: str, seed_offset: int = 0) -> np.ndarray:
    if spec.dataset is not None:
        return load(spec.dataset, shape=spec.shape, seed=spec.seed + seed_offset)
    path = resolve_field_path(base_dir, spec)
    data = read_raw(path, shape=spec.shape)
    if data.ndim == 1 and spec.shape is None:
        raise ValueError(f"{path}: pass 'shape' in the manifest (or encode dims in the name)")
    return data


def _field_row(spec: FieldSpec) -> FieldResult:
    return FieldResult(name=spec.name, status="failed", timesteps=spec.timesteps)


def _run_field_job(
    job: JobSpec, spec: FieldSpec, inner: tuple[str, int]
) -> tuple[FieldResult, bytes | None, dict | None]:
    # Deferred: keeps this module import-light for the "processes" executor.
    from ..api import compress as _compress, decompress as _decompress

    t0 = time.perf_counter()
    result = _field_row(spec)
    try:
        # The field's canonical request (resolved against the job-level one
        # in FieldSpec.request); its tiles fan out on ``inner``.
        request = spec.request(job)
        if spec.is_stream:
            with tile_fanout(*inner):
                payload, info = _compress_stream(spec, job.base_dir, request)
            first = info["first_snapshot"]
            result.shape = tuple(first.shape)
            result.dtype = first.dtype.name
            result.codec = "stream"
            result.eb_abs = info["eb_abs"]
            result.raw_nbytes = info["raw_nbytes"]
            result.psnr = info["psnr"]
            result.max_err = info["max_err"]
            stream_info = {
                "shape": tuple(first.shape),
                "dtype": first.dtype.name,
                "eb_abs": info["eb_abs"],
                "timesteps": spec.timesteps,
            }
        else:
            data = _load_field(spec, job.base_dir)
            with tile_fanout(*inner):
                compressed = _compress(data, request)
                blob = compressed.blob
                recon = _decompress(blob)
            payload = blob.to_bytes()
            stream_info = None
            result.shape = tuple(data.shape)
            result.dtype = data.dtype.name
            result.codec = codec_name(blob.codec)
            result.eb_abs = compressed.error_bound
            result.raw_nbytes = int(data.nbytes)
            result.psnr = psnr(data, recon)
            result.max_err = max_abs_error(data, recon)
        result.nbytes = len(payload)
        result.cr = result.raw_nbytes / max(1, result.nbytes)
        n_elements = result.raw_nbytes // np.dtype(result.dtype).itemsize
        result.bitrate = 8.0 * result.nbytes / max(1, n_elements)
        result.status = "ok"
        result.wall_s = time.perf_counter() - t0
        return result, payload, stream_info
    except Exception as exc:  # noqa: BLE001 — per-field isolation boundary
        result.error = f"{type(exc).__name__}: {exc}"
        result.wall_s = time.perf_counter() - t0
        return result, None, None


def _compress_stream(spec, base_dir, request):
    from dataclasses import replace

    from ..api import DEFAULT_CODEC, kernel_for

    snapshots = [_load_field(spec, base_dir, seed_offset=t) for t in range(spec.timesteps)]
    kwargs = {}
    if request.tiling is not None:
        kwargs.update(
            tile_shape=request.tiling.tiles,
            workers=request.tiling.workers,
            executor=request.tiling.executor or "threads",
        )
    if request.codec == DEFAULT_CODEC and not kwargs and request.pipeline is None:
        compressor = None  # the StreamWriter default engine, constructed once
    else:
        # The writer owns tiled-frame handling, so hand it the untiled kernel.
        compressor = kernel_for(replace(request, tiling=None))
    writer = StreamWriter(
        compressor=compressor,
        eb=request.error_bound.value,
        temporal=spec.temporal,
        **kwargs,
    )
    for snap in snapshots:
        writer.append(snap)
    payload = writer.getvalue()
    from ..core.streaming import StreamReader

    recons = StreamReader(payload).read_all()
    stack, rstack = np.stack(snapshots), np.stack(recons)
    return payload, {
        "first_snapshot": snapshots[0],
        "eb_abs": float(writer._abs_eb),
        "raw_nbytes": int(stack.nbytes),
        "psnr": psnr(stack, rstack),
        "max_err": max_abs_error(stack, rstack),
    }


class BatchRunner:
    """Run one manifest into one archive under the configured executor."""

    def __init__(
        self,
        spec: JobSpec,
        archive: ArchiveStore | str,
        executor: str | None = None,
        workers: int | None = None,
        resume: bool = True,
    ):
        self.spec = spec
        self.executor = executor or spec.executor
        self.workers = run_workers(workers, spec.workers)  # checked before the archive opens
        self.resume = resume
        self._owns_archive = not isinstance(archive, ArchiveStore)
        self.archive = (
            archive if isinstance(archive, ArchiveStore) else ArchiveStore(archive, mode="a")
        )

    def run(self) -> BatchReport:
        """Run the job; closes the archive afterwards if this runner opened it
        from a path (callers passing an ArchiveStore keep ownership)."""
        t0 = time.perf_counter()
        meta = {"job": self.spec.name}
        try:
            rows, _, makespan = run_units(
                {f.name: f for f in self.spec.fields},
                partial(estimate_field_cost, self.spec),
                partial(_run_field_job, self.spec),
                self.archive,
                self.resume,
                self.executor,
                self.workers,
                blank=_field_row,
                present=lambda name: FieldResult(name=name, status="skipped"),
                append=lambda name, _row, payload, stream_info: append_field(
                    self.archive, name, payload, stream_info, meta, replace=not self.resume
                ),
            )
            return BatchReport(
                job=self.spec.name,
                archive=self.archive.path,
                executor=self.executor,
                workers=self.workers,
                fields=rows,
                wall_s=time.perf_counter() - t0,
                lpt_makespan_elements=makespan,
            )
        finally:
            if self._owns_archive:
                self.archive.close()

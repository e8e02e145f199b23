"""Experiment-matrix runner: execute a config's cells into an archive.

Runs on the batch runner's executor path,
:func:`repro.service.runner.run_units`, and shares its guarantees:

* **LPT scheduling** — cells are submitted largest-first over per-cell
  element counts (:func:`repro.gpu.costmodel.lpt_order`), so one big
  trailing dataset does not serialize the sweep;
* **failure isolation** — a failing cell (or its dead worker) marks itself
  ``failed`` in the report and the rest of the matrix still lands;
* **resume** — every finished cell is flushed to the archive (footer-flip
  index semantics) *with its metrics in the entry's ``meta``*, so a rerun
  with resume enabled rebuilds finished cells from the index without
  recomputing anything; a crashed run loses at most the in-flight cells;
* **paper-parity numerics** — cells execute through the harness kernel
  path (``kernel_for(request).compress(data, eb)``), the same construction
  as :func:`repro.analysis.run_case` / ``run_fixed_rate_case``, so the
  orchestrator's CR/PSNR numbers match the legacy benchmarks exactly.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from ..api import build_request, kernel_for
from ..core.tiling import resolve_workers
from ..datasets.registry import get_info, load
from ..faults import fire as _fault_fire
from ..metrics import max_abs_error, psnr
from ..service.archive import ArchiveStore
from ..service.runner import run_units
from .config import EvalConfig
from .matrix import EvalCell, expand

__all__ = ["CellResult", "EvalRun", "cell_request", "run_eval"]

#: archive-entry meta key holding the cell's serialized metrics (the resume
#: substrate: rebuilding a finished cell is a dict read, not a recompute)
META_KEY = "eval"


@dataclass
class CellResult:
    """Everything the report records about one matrix cell."""

    cell: str  # cell_id == archive entry name
    dataset: str
    variant: str  # codec name or ablation step label
    kind: str  # "eb" | "rate" | "ablation"
    status: str  # "ok" | "failed"
    eb: float | None = None
    eb_mode: str = "rel"
    rate: float | None = None
    tiles: list[int] | None = None
    error: str | None = None
    shape: list[int] | None = None
    dtype: str | None = None
    eb_abs: float | None = None
    raw_nbytes: int = 0
    nbytes: int = 0
    cr: float | None = None
    bitrate: float | None = None
    psnr: float | None = None
    max_err: float | None = None
    wall_s: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "CellResult":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 — set of names
        return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass
class EvalRun:
    """One orchestrator run: per-cell results plus execution provenance."""

    config: EvalConfig
    archive: str
    executor: str
    workers: int
    cells: list[CellResult] = field(default_factory=list)  # expansion order
    executed: list[str] = field(default_factory=list)  # cell ids run this time
    resumed: list[str] = field(default_factory=list)  # rebuilt from the archive
    wall_s: float = 0.0
    lpt_makespan_elements: float = 0.0

    @property
    def failed(self) -> list[str]:
        return [r.cell for r in self.cells if r.status == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failed


def cell_request(cell: EvalCell):
    """The :class:`~repro.api.CompressionRequest` a codec cell executes as
    (ablation cells run a pinned engine config instead and have none)."""
    if cell.kind == "ablation":
        raise ValueError(f"ablation cell {cell.cell_id!r} has no request; it runs a pinned config")
    if cell.kind == "rate":
        return build_request(codec=cell.variant, options={"rate": cell.rate})
    return build_request(codec=cell.variant, eb=cell.eb, eb_mode=cell.eb_mode, tiles=cell.tiles)


def _cell_compressor(cell: EvalCell, inner: tuple[str, int]):
    if cell.kind == "ablation":
        from ..analysis.ablation import ABLATION_STEPS
        from ..core.compressor import CuszHi

        return CuszHi(config=dict(ABLATION_STEPS)[cell.variant])
    request = cell_request(cell)
    if request.tiling is not None:
        # Cells are the unit of parallelism: keep tile fan-out off the lanes
        # the cell executor is scheduled on (mirrors BatchRunner).
        request = request.with_tiling_execution(*inner)
    return kernel_for(request)


@lru_cache(maxsize=4)
def _load_dataset(name: str, shape: tuple[int, ...] | None, seed: int) -> np.ndarray:
    return load(name, shape=shape, seed=seed)


def _cell_row(cell: EvalCell) -> CellResult:
    return CellResult(
        cell=cell.cell_id,
        dataset=cell.dataset.name,
        variant=cell.variant,
        kind=cell.kind,
        status="failed",
        eb=cell.eb,
        eb_mode=cell.eb_mode,
        rate=cell.rate,
        tiles=list(cell.tiles) if cell.tiles is not None else None,
    )


def _run_cell_job(cell: EvalCell, inner: tuple[str, int]) -> tuple[CellResult, bytes | None]:
    """One cell, module-level so the "processes" executor can pickle it.

    Returns ``(result, payload)``; the parent owns the archive.
    """
    t0 = time.perf_counter()
    result = _cell_row(cell)
    try:
        # Chaos hook ("eval.cell"): kill/error a worker at cell K — the
        # sweep's per-cell isolation and resume must absorb it.
        _fault_fire("eval.cell", cell=cell.cell_id)
        data = _load_dataset(cell.dataset.name, cell.dataset.shape, cell.dataset.seed)
        comp = _cell_compressor(cell, inner)
        blob = comp.compress(data, cell.eb)
        recon = comp.decompress(blob)
        result.shape = [int(d) for d in data.shape]
        result.dtype = data.dtype.name
        result.eb_abs = float(blob.error_bound)
        result.raw_nbytes = int(data.nbytes)
        result.nbytes = int(blob.nbytes)
        result.cr = float(blob.compression_ratio)
        result.bitrate = float(blob.bitrate)
        result.psnr = psnr(data, recon)
        result.max_err = max_abs_error(data, recon)
        result.status = "ok"
        result.wall_s = time.perf_counter() - t0
        return result, blob.to_bytes()
    except Exception as exc:  # noqa: BLE001 — per-cell isolation boundary
        result.error = f"{type(exc).__name__}: {exc}"
        result.wall_s = time.perf_counter() - t0
        return result, None


def _cell_cost(cell: EvalCell) -> float:
    shape = cell.dataset.shape
    if shape is None:
        shape = get_info(cell.dataset.name).default_shape
    return float(np.prod(shape))


def run_eval(
    cfg: EvalConfig,
    archive: ArchiveStore | str,
    resume: bool = True,
    executor: str | None = None,
    workers: int | None = None,
) -> EvalRun:
    """Run (or resume) a config's matrix into an archive.

    With ``resume`` enabled (the default), cells whose ids are already in
    the archive are rebuilt from the index's stored metrics and **not**
    re-executed; with it disabled every cell reruns and replaces its entry.
    Closes the archive afterwards if it was opened here from a path.
    """
    owns = not isinstance(archive, ArchiveStore)
    store = archive if isinstance(archive, ArchiveStore) else ArchiveStore(archive, mode="a")
    run = EvalRun(
        config=cfg,
        archive=store.path,
        executor=executor or cfg.executor,
        workers=resolve_workers(cfg.workers if workers is None else workers),
    )
    t0 = time.perf_counter()
    try:
        cells = {cell.cell_id: cell for cell in expand(cfg)}
        run.cells, run.executed, run.lpt_makespan_elements = run_units(
            cells,
            _cell_cost,
            _run_cell_job,
            store,
            resume,
            run.executor,
            run.workers,
            blank=_cell_row,
            present=lambda key: CellResult.from_json(store.entry(key).meta.get(META_KEY, {})),
            append=lambda key, row, payload: store.add_blob(
                key, payload, meta={META_KEY: row.to_json(), "config": cfg.name}, replace=not resume
            ),
        )
        run.wall_s = time.perf_counter() - t0
    finally:
        if owns:
            store.close()
    executed = set(run.executed)
    run.resumed = [key for key in cells if key not in executed]
    return run

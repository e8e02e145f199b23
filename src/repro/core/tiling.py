"""Tiled parallel execution engine.

The reference :class:`~repro.core.compressor.CuszHi` path processes one whole
field on one core.  Streaming producers (paper §1, §6.2.2) emit snapshots
faster than a single core can absorb, so this module decomposes an N-D field
into independent tiles and fans the per-tile compression/decompression work
out across a pluggable executor:

* :class:`TileGrid` — splits a field shape into axis-aligned tiles with
  configurable tile shape and boundary handling (``"remainder"`` keeps the
  partial edge tiles; ``"merge"`` folds thin edges into their neighbor so no
  tile is degenerately small);
* :class:`TiledEngine` — compresses every tile independently under the *same
  absolute error bound* (resolved once against the full field, so the global
  bound is preserved exactly), packs the per-tile streams into a multi-tile
  frame (see :func:`repro.core.container.pack_tiled`) with per-tile offsets
  for random access, and decompresses frames tile-parallel.

Executors: ``"serial"`` (plain loop, the reference), ``"threads"``
(``ThreadPoolExecutor`` — NumPy releases the GIL in the hot kernels), and
``"processes"`` (``ProcessPoolExecutor`` — full CPU scale-out).  ``workers=0``
auto-sizes to the visible CPU count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from ..api.registry import CODEC_IDS, codec_class
from ..defaults import EXECUTORS, resolve_workers
from ..gpu.costmodel import aggregate_tile_traces
from ..gpu.kernel import KernelTrace
from .compressor import CuszHi, resolve_error_bound
from .config import CuszHiConfig
from .container import (
    CompressedBlob,
    pack_tiled,
    tile_count,
    unpack_tile,
)

__all__ = [
    "Tile",
    "TileGrid",
    "TiledEngine",
    "EXECUTORS",
    "resolve_workers",
    "runs_serially",
    "executor_pool",
    "map_tiles",
    "tile_fanout",
]

#: edge tiles thinner than this get merged into their neighbor in "merge" mode
_MIN_EDGE_EXTENT = 4


@dataclass(frozen=True)
class Tile:
    """One axis-aligned block of the field."""

    index: int
    origin: tuple[int, ...]
    shape: tuple[int, ...]

    @property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(o, o + s) for o, s in zip(self.origin, self.shape))

    @property
    def n_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n


class TileGrid:
    """Axis-aligned decomposition of ``field_shape`` into tiles.

    Parameters
    ----------
    field_shape:
        Shape of the full field.
    tile_shape:
        Requested tile extents.  Shorter than the field rank: the missing
        leading axes are not tiled (full extent).  Entries are clipped to the
        field extent.
    boundary:
        ``"remainder"`` keeps partial edge tiles as-is; ``"merge"`` extends
        the last full tile over any edge remainder thinner than 4 points, so
        no degenerate slivers are produced.

    Examples
    --------
    >>> grid = TileGrid((64, 64), (32, 32))
    >>> grid.grid_shape, grid.n_tiles
    ((2, 2), 4)
    >>> grid[3]
    Tile(index=3, origin=(32, 32), shape=(32, 32))
    >>> grid[1].slices
    (slice(0, 32, None), slice(32, 64, None))

    A 65-point axis leaves a 1-point sliver; ``"merge"`` (the default) folds
    it into the last full tile instead of keeping a degenerate edge tile:

    >>> TileGrid((65,), (32,)).n_tiles
    2
    >>> [t.shape for t in TileGrid((65,), (32,), boundary="remainder")]
    [(32,), (32,), (1,)]
    """

    def __init__(
        self,
        field_shape: tuple[int, ...],
        tile_shape: tuple[int, ...],
        boundary: str = "merge",
    ):
        if boundary not in ("remainder", "merge"):
            raise ValueError(f"unknown boundary mode {boundary!r}")
        field_shape = tuple(int(d) for d in field_shape)
        tile_shape = tuple(int(t) for t in tile_shape)
        if any(d <= 0 for d in field_shape):
            raise ValueError("field shape must be positive")
        if any(t <= 0 for t in tile_shape):
            raise ValueError("tile shape must be positive")
        if len(tile_shape) > len(field_shape):
            raise ValueError(
                f"tile rank {len(tile_shape)} exceeds field rank {len(field_shape)}"
            )
        # Left-pad with full extents so a 3-D field can be tiled along its
        # trailing axes only (the common slab decomposition).
        tile_shape = field_shape[: len(field_shape) - len(tile_shape)] + tile_shape
        tile_shape = tuple(min(t, d) for t, d in zip(tile_shape, field_shape))
        self.field_shape = field_shape
        self.tile_shape = tile_shape
        self.boundary = boundary
        self._edges = [
            self._axis_edges(d, t, boundary) for d, t in zip(field_shape, tile_shape)
        ]
        self.grid_shape = tuple(len(e) - 1 for e in self._edges)

    @staticmethod
    def _axis_edges(extent: int, tile: int, boundary: str) -> list[int]:
        edges = list(range(0, extent, tile)) + [extent]
        if boundary == "merge" and len(edges) > 2 and edges[-1] - edges[-2] < _MIN_EDGE_EXTENT:
            del edges[-2]
        return edges

    @property
    def n_tiles(self) -> int:
        n = 1
        for g in self.grid_shape:
            n *= g
        return n

    def __len__(self) -> int:
        return self.n_tiles

    def __iter__(self):
        for index, multi in enumerate(np.ndindex(*self.grid_shape)):
            origin = tuple(self._edges[ax][i] for ax, i in enumerate(multi))
            shape = tuple(
                self._edges[ax][i + 1] - self._edges[ax][i] for ax, i in enumerate(multi)
            )
            yield Tile(index, origin, shape)

    def __getitem__(self, index: int) -> Tile:
        multi = np.unravel_index(index, self.grid_shape)
        origin = tuple(self._edges[ax][i] for ax, i in enumerate(multi))
        shape = tuple(
            self._edges[ax][i + 1] - self._edges[ax][i] for ax, i in enumerate(multi)
        )
        return Tile(int(index), origin, shape)


# --------------------------------------------------------------------------
# Executor fan-out.  Worker functions are module-level so "processes" can
# pickle them; results come back as (index, payload) pairs and are re-ordered
# deterministically, so the packed frame is identical across executors.
# --------------------------------------------------------------------------


def runs_serially(executor: str, workers: int, n_jobs: int) -> bool:
    """Whether :func:`map_tiles` will run these jobs on the caller's thread.

    Exported so callers preparing job payloads (e.g. bytes-vs-memoryview
    decisions for process pickling) share the exact dispatch predicate
    instead of duplicating it.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r} (choose from {EXECUTORS})")
    return executor == "serial" or workers <= 1 or n_jobs <= 1


def executor_pool(executor: str, workers: int):
    """A fresh ``concurrent.futures`` pool of ``workers`` lanes for a
    parallel ``executor`` (``"threads"`` or ``"processes"``)."""
    pool_cls = ThreadPoolExecutor if executor == "threads" else ProcessPoolExecutor
    return pool_cls(max_workers=workers)


#: the ``(executor, workers)`` fan-out a unit scheduler pinned for the
#: current thread (see :func:`tile_fanout`); ``None`` outside one
_FANOUT: ContextVar[tuple[str, int] | None] = ContextVar("tile_fanout", default=None)


@contextmanager
def tile_fanout(executor: str, workers: int):
    """Run every :func:`map_tiles` of this thread on ``(executor, workers)``.

    Schedulers that run whole units on their own lanes (the batch runner,
    the eval sweep) use this to keep tile pools off those lanes.  It changes
    only where tiles run: a frame still records the fan-out its request
    asked for, so its bytes do not depend on the scheduler.
    """
    token = _FANOUT.set((executor, resolve_workers(workers)))
    try:
        yield
    finally:
        _FANOUT.reset(token)


def map_tiles(fn, jobs, executor: str, workers: int):
    """Run ``fn`` over ``jobs`` with the selected executor, preserving order
    (or with the :func:`tile_fanout` pinned for this thread)."""
    executor, workers = _FANOUT.get() or (executor, workers)
    jobs = list(jobs)
    if runs_serially(executor, workers, len(jobs)):
        return [fn(job) for job in jobs]
    with executor_pool(executor, min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))


def _compress_tile_job(job):
    index, tile_data, config, abs_eb = job
    comp = CuszHi(config=config)
    blob = comp.compress(np.ascontiguousarray(tile_data), abs_eb)
    return index, blob.to_bytes(), comp.last_comp_trace


def _decompress_tile_job(job):
    index, payload = job
    blob = CompressedBlob.from_bytes(payload)
    comp = codec_class(blob.codec)()
    recon = comp.decompress(blob)
    return index, recon, getattr(comp, "last_decomp_trace", None)


class TiledEngine:
    """Tile-parallel front end over any cuSZ-Hi configuration.

    The engine resolves the error bound once against the whole field, then
    compresses each tile with an absolute-bound inner compressor — so the
    reconstruction respects exactly the bound the untiled path would have
    used, regardless of per-tile value ranges.
    """

    def __init__(self, config: CuszHiConfig | None = None, **kwargs):
        if config is None:
            config = CuszHiConfig(**kwargs)
        elif kwargs:
            config = config.with_(**kwargs)
        self.config = config
        self.last_comp_trace: KernelTrace | None = None
        self.last_decomp_trace: KernelTrace | None = None
        #: per-tile traces of the last call (feeds the tiled roofline model)
        self.last_tile_comp_traces: list[KernelTrace] = []
        self.last_tile_decomp_traces: list[KernelTrace] = []

    # ----------------------------------------------------------- compress
    def compress(self, data: np.ndarray, eb: float) -> CompressedBlob:
        cfg = self.config
        if cfg.tile_shape is None:
            raise ValueError("TiledEngine needs a config with tile_shape set")
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError("cuSZ-Hi compresses float32/float64 fields")
        abs_eb = resolve_error_bound(data, eb, cfg.eb_mode)
        grid = TileGrid(data.shape, cfg.tile_shape, cfg.tile_boundary)
        workers = resolve_workers(cfg.workers)
        inner_cfg = cfg.with_(tile_shape=None, eb_mode="abs")
        # Views, not copies: pickling (processes) serializes only the view's
        # elements, and the worker makes its own contiguous copy — so peak
        # memory stays ~one field + one tile instead of two fields.
        jobs = [(t.index, data[t.slices], inner_cfg, abs_eb) for t in grid]
        results = map_tiles(_compress_tile_job, jobs, cfg.executor, workers)
        results.sort(key=lambda r: r[0])
        tiles = [grid[i] for i, _, _ in results]
        payloads = [payload for _, payload, _ in results]
        self.last_tile_comp_traces = [tr for _, _, tr in results if tr is not None]
        self.last_comp_trace = aggregate_tile_traces(self.last_tile_comp_traces)
        frame = pack_tiled(
            codec=CODEC_IDS["cusz-hi-tiled"],
            shape=data.shape,
            dtype=data.dtype,
            error_bound=abs_eb,
            tiles=[(t.origin, t.shape) for t in tiles],
            payloads=payloads,
            meta={
                "tile_shape": ",".join(str(t) for t in grid.tile_shape),
                "tile_boundary": cfg.tile_boundary,
                "executor": cfg.executor,
                "workers": str(workers),
                "pipeline": cfg.pipeline,
                "eb_mode": cfg.eb_mode,
                "eb_input": repr(float(eb)),
            },
        )
        return frame

    # --------------------------------------------------------- decompress
    def decompress(self, blob: CompressedBlob) -> np.ndarray:
        """Tile-parallel reconstruction of a multi-tile frame.

        Executor/worker settings come from the engine's config when tiling
        knobs are set there, otherwise from the frame's recorded settings —
        so frames decompress in parallel even through the generic registry
        dispatch path.
        """
        n = tile_count(blob)
        executor = self.config.executor
        workers = self.config.workers
        if self.config.tile_shape is None:  # engine not explicitly configured
            executor = blob.meta.get("executor", executor)
            # The recorded count reflects the compress host; cap it to the
            # local CPUs so a frame packed on a big node doesn't oversubscribe
            # a small reader.
            recorded = int(blob.meta.get("workers", "0") or 0)
            workers = min(resolve_workers(recorded), resolve_workers(0))
        else:
            workers = resolve_workers(workers)
        executor, workers = _FANOUT.get() or (executor, workers)
        jobs = []
        entries = []
        for i in range(n):
            origin, tshape, payload = unpack_tile(blob, i)
            entries.append((origin, tshape))
            # Tile payloads are zero-copy memoryviews into the frame; only
            # the process executor needs picklable bytes copies.
            if executor == "processes" and not runs_serially(executor, workers, n):
                payload = bytes(payload)
            jobs.append((i, payload))
        results = map_tiles(_decompress_tile_job, jobs, executor, workers)
        results.sort(key=lambda r: r[0])
        out = np.empty(blob.shape, dtype=blob.dtype)
        self.last_tile_decomp_traces = []
        for (origin, tshape), (_, recon, tr) in zip(entries, results):
            sl = tuple(slice(o, o + s) for o, s in zip(origin, tshape))
            out[sl] = recon
            if tr is not None:
                self.last_tile_decomp_traces.append(tr)
        self.last_decomp_trace = aggregate_tile_traces(self.last_tile_decomp_traces)
        return out

    # ------------------------------------------------------ random access
    def decompress_tile(self, blob: CompressedBlob, index: int):
        """Decode a single tile without touching the rest of the frame.

        Returns ``(origin, tile_array)`` — the per-tile offsets in the frame
        index make this an O(tile) operation.
        """
        origin, _, payload = unpack_tile(blob, index)
        _, recon, _ = _decompress_tile_job((index, payload))
        return origin, recon

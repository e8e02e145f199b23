"""Multi-level interpolation predictor — the lossy half of cuSZ-Hi (§5.1).

The predictor losslessly stores a sparse *anchor grid* (stride ``A`` per
dimension; 16 for cuSZ-Hi, 8 for cuSZ-I) and fills everything else by
hierarchical spline interpolation, coarse to fine.  Each level halves the
stride; within a level, prediction passes run either

* the **multi-dimensional scheme** (``"md"``, Fig. 4b): edge centers by 1-D
  splines, then face centers averaging two dimensions, then body centers
  averaging three — with the paper's rule that only the *highest spline
  order* achieved among the candidate dimensions participates in the average;
* or the **dimension-sequential scheme** (``"1d"``, Fig. 4a) used by cuSZ-I.

Prediction errors are quantized to one-byte codes (§5.2.1) against the
*reconstructed* field, so decompression replays the identical pass sequence
and the error bound is guaranteed by construction.  Out-of-range codes (and
any value whose reconstruction would breach the bound after casting back to
the storage dtype) are emitted as outliers: code byte 0 plus the exact value.

GPU mapping: in CUDA each 17^3 block is one thread block; here every pass is
a handful of whole-plane vector operations.  Interpolation is performed
globally (no halo truncation at block borders); DESIGN.md §3 records this as
the one deliberate deviation from the CUDA kernel.

Execution model (the single-thread hot path)
--------------------------------------------
Compress and decompress replay every level on contiguous *parity planes*.
At stride ``s`` the stride-``s`` lattice splits into ``2**nd`` planes by
the parity of each coordinate; plane ``k`` holds the points with parity
bits ``b_j = (k >> j) & 1`` (axis 0 the least significant bit).  Each
plane is padded to ``ceil(n / 2)`` per axis and the planes lie back to
back in one float64 buffer; plane 0, the even points, is exactly the
previous level's lattice.  With this order a 1d pass along ``d`` predicts
the contiguous planes ``[2**d, 2**(d+1))`` from the planes ``[0, 2**d)``,
a constant ``2**d`` planes lower, and an md pass over the axes ``S``
predicts the single plane ``sum(2**j for j in S)``.  The geometry depends
only on ``(shape, stride, scheme, spline)`` and is memoized
(:func:`plane_level`).  Predicting a pass:

1. per interpolated axis, one *flat run* evaluates the interior spline over
   the whole target range as one left-associated weighted sum of
   contiguous 1-D slices of the buffer, each shifted by ``sh`` rows of the
   axis (``sh`` in -1..2); the <= 3 boundary rows (quadratic, linear,
   copy) are then recomputed from basic slices of the source planes,
   overwriting what the flat run left there;
2. with two or more axes, highest-order-wins averaging: wherever the axes'
   1-D orders agree every axis wins, so the plain mean ``((p0 + p1) + ...)
   / k`` is exact; the boundary rows where they disagree are gathered and
   redone (first winner copied, later winners added, sum divided by the
   winner count);
3. ``compress`` quantizes the pass's planes with one
   :meth:`~repro.quantizer.linear.ByteQuantizer.quantize_into` call that
   writes the reconstruction straight into them; ``decompress`` adds the
   prediction to the planes' dequantized codes and drops in the level's
   outliers.

Padding entries only ever hold finite garbage (the buffers start zeroed
and only valid entries receive data or codes) and are never read into a
valid point.
After a level the planes interleave into the next level's plane 0; at
stride 1 decompress interleaves straight into the output array, casting
to its dtype, and compress does so only when the caller keeps ``recon``.

The arithmetic per point is the expression tree of the earlier sub-block
formulation (one sub-block per product of the axes' runs), so codes,
outliers, reconstructions and auto-tune scores are bit-identical to it;
``tests/predictor/test_interp_passes.py`` pins that against a copy of the
sub-block path kept in ``tests/`` as an oracle.

Scoring (:meth:`InterpolationPredictor.level_errors`) predicts from raw
values on the field layout (:class:`LevelPlan`), so the prediction along an
axis at a target depends on neither the pass nor the scheme: each spline
family's per-axis predictions over the stride-``s`` lattice are computed
once per level, and every md or 1d pass of every candidate reads
basic-slice views of them.  Six candidates cost three spline evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import prod

import numpy as np

from ..core.cache import CountedTableCache
from ..quantizer.linear import ByteQuantizer
from .splines import (
    KIND_FULL,
    KIND_LIN,
    KIND_OFFSETS,
    KIND_ORDER,
    SPLINES,
    axis_kind_segments,
    predict_kind_into,
)

__all__ = [
    "LevelConfig",
    "PredictorResult",
    "InterpolationPredictor",
    "ScratchPool",
    "LevelPlan",
    "PlaneLevel",
    "level_plan",
    "plane_level",
    "level_plan_stats",
    "level_strides",
    "level_passes",
]


@dataclass(frozen=True)
class LevelConfig:
    """Interpolation configuration of one level: scheme + spline family."""

    scheme: str = "md"  # "md" | "1d"
    spline: str = "cubic"

    def __post_init__(self):
        if self.scheme not in ("md", "1d"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.spline not in SPLINES:
            raise ValueError(f"unknown spline {self.spline!r}")

    def encode(self) -> str:
        return f"{self.scheme}:{self.spline}"

    @classmethod
    def decode(cls, s: str) -> "LevelConfig":
        scheme, spline = s.split(":")
        return cls(scheme, spline)


@dataclass
class PredictorResult:
    """Everything the lossless stage needs, plus the reconstruction."""

    codes: np.ndarray  # uint8, data layout; 128-centered, 0 = outlier
    anchors: np.ndarray  # raw anchor values, anchor-grid layout
    outlier_values: np.ndarray  # exact values for code==0 positions, flat order
    recon: np.ndarray | None  # reconstructed field (input dtype), if kept
    level_configs: dict[int, LevelConfig] = field(default_factory=dict)


def level_strides(anchor_stride: int) -> list[int]:
    """Prediction strides from coarse to fine: ``A/2, A/4, ..., 1``."""
    if anchor_stride < 2 or anchor_stride & (anchor_stride - 1):
        raise ValueError("anchor_stride must be a power of two >= 2")
    out = []
    s = anchor_stride // 2
    while s >= 1:
        out.append(s)
        s //= 2
    return out


def _pass_descriptors(shape: tuple[int, ...], stride: int, scheme: str):
    """``(start, step)`` per dimension and the interpolated axes of every pass."""
    nd = len(shape)
    s = stride
    if scheme == "1d":
        for d in range(nd):
            yield [((0, s) if j < d else (s, 2 * s) if j == d else (0, 2 * s)) for j in range(nd)], (d,)
    elif scheme == "md":
        for k in range(1, nd + 1):
            for S in combinations(range(nd), k):
                yield [((s, 2 * s) if j in S else (0, 2 * s)) for j in range(nd)], S
    else:  # pragma: no cover - guarded by LevelConfig
        raise ValueError(f"unknown scheme {scheme!r}")


def level_passes(shape: tuple[int, ...], stride: int, scheme: str):
    """Yield ``(vectors, axes)`` for each prediction pass of one level.

    ``vectors`` are per-axis index vectors forming the target open mesh;
    ``axes`` are the dimensions whose coordinate is an odd multiple of
    ``stride`` (the dimensions interpolated along).
    """
    for descr, axes in _pass_descriptors(shape, stride, scheme):
        yield [np.arange(start, dim, step) for (start, step), dim in zip(descr, shape)], axes


# ---------------------------------------------------------------------------
# Cached level plans: the data-independent geometry of every pass.
# ---------------------------------------------------------------------------


def _axis_runs(slices: tuple[slice, ...], d: int, stride: int, spline: str, dim: int) -> tuple:
    """Boundary-class runs of the targets along axis ``d`` of a region.

    ``slices`` address the region; along ``d`` they cover the targets
    ``stride, 3*stride, ...``.  Returns ``((rel, kind, neighbors), ...)``:
    the run's slices inside the region, its class, and one basic-slice
    tuple per neighbor the class reads (:data:`KIND_OFFSETS` order).
    """
    s = stride
    runs = []
    for i0, i1, kind in axis_kind_segments(dim, s, spline):
        rel = [slice(None)] * len(slices)
        rel[d] = slice(i0, i1)
        first, last = s + 2 * s * i0, s + 2 * s * (i1 - 1)
        neighbors = []
        for off in KIND_OFFSETS[kind]:
            nsl = list(slices)
            nsl[d] = slice(first + off * s, last + off * s + 1, 2 * s)
            neighbors.append(tuple(nsl))
        runs.append((tuple(rel), kind, tuple(neighbors)))
    return tuple(runs)


class _Pass:
    """One scoring pass: its target block; per interpolated axis, the view of
    the level's lattice predictions it reads; and, for two or more axes, the
    :func:`_boundary_winners` of the block."""

    __slots__ = ("axes", "slices", "shape", "views", "winners")

    def __init__(self, axes, slices, shape, views, winners):
        self.axes = axes
        self.slices = slices
        self.shape = shape
        self.views = views
        self.winners = winners


def _row_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    out = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        out[d] = out[d + 1] * shape[d + 1]
    return tuple(out)


def _boundary_winners(runs: tuple, axes: tuple[int, ...], shape: tuple[int, ...]):
    """Highest-order-wins bookkeeping where a pass's axes disagree.

    Each axis's :data:`KIND_ORDER` is a 1-D vector along it, so the orders
    of a point depend on its interpolated coordinates only.  Every axis wins
    wherever all orders agree; elsewhere (the block's boundary rows) the
    winners are the axes reaching the highest order.  Returns ``(flat,
    steps, count)``: ``flat[i, j]`` is the flat block position of boundary
    point ``i`` of the interpolated axes at offset ``j`` along the others;
    per axis after the first, the ``(m, 1)`` masks of the points where it is
    the first winner and where it is a later one; and the winner count.
    Everything is sized by the boundary, never by the block.
    """
    nd = len(shape)
    orders = []
    for d, axis_runs in zip(axes, runs):
        # Zeros, not empty: a padded plane has entries no run covers.
        order = np.zeros([shape[d] if j == d else 1 for j in range(nd)], dtype=np.int8)
        for rel, kind, _ in axis_runs:
            order[rel] = KIND_ORDER[kind]
        orders.append(order)
    mixed = orders[0] != orders[1]
    for a, b in zip(orders[1:], orders[2:]):
        mixed = mixed | (a != b)
    hit = np.nonzero(mixed)
    row = _row_strides(shape)
    base = sum(hit[d] * row[d] for d in axes)
    offsets = np.zeros(1, dtype=np.intp)
    for j in range(nd):
        if j not in axes:
            offsets = (offsets[:, None] + np.arange(shape[j]) * row[j]).reshape(-1)
    order = [o.reshape(-1)[hit[d]] for o, d in zip(orders, axes)]
    top = order[0]
    for o in order[1:]:
        top = np.maximum(top, o)
    seen = order[0] == top
    count = seen.astype(np.uint8)
    steps = []
    for o in order[1:]:
        win = o == top
        steps.append(((win & ~seen)[:, None], (win & seen)[:, None]))
        seen = seen | win
        count = count + win
    return base[:, None] + offsets, tuple(steps), count[:, None]


class LevelPlan:
    """The scoring passes of one (shape, stride, scheme, spline) level.

    ``lattice`` holds, per dimension ``d``, ``(shape, runs)`` of the 1-D
    predictions along ``d`` at every stride-``s`` lattice point whose
    ``d`` coordinate is a target — the arrays every pass of the scorer views.
    """

    __slots__ = ("shape", "stride", "scheme", "spline", "passes", "lattice")

    def __init__(self, shape, stride, scheme, spline, passes, lattice):
        self.shape = shape
        self.stride = stride
        self.scheme = scheme
        self.spline = spline
        self.passes = passes
        self.lattice = lattice


def _build_level_plan(shape: tuple[int, ...], stride: int, scheme: str, spline: str) -> LevelPlan:
    s = int(stride)
    lattice = []
    for d, dim in enumerate(shape):
        slices = [slice(0, n, s) for n in shape]
        slices[d] = slice(s, dim, 2 * s)
        lshape = tuple(len(range(sl.start, n, sl.step)) for sl, n in zip(slices, shape))
        lattice.append((lshape, _axis_runs(tuple(slices), d, s, spline, dim)))
    passes = []
    for descr, axes in _pass_descriptors(shape, s, scheme):
        counts = tuple(len(range(start, dim, step)) for (start, step), dim in zip(descr, shape))
        if 0 in counts:
            continue  # matches the empty-vector skip of level_passes users
        slices = tuple(slice(start, dim, step) for (start, step), dim in zip(descr, shape))
        runs = tuple(_axis_runs(slices, d, s, spline, shape[d]) for d in axes)
        winners = _boundary_winners(runs, axes, counts) if len(axes) > 1 else None
        # Lattice index e of a (start, step) progression is start/s + e*step/s.
        lattice_slices = [slice(start // s, None, step // s) for start, step in descr]
        views = tuple(
            tuple(slice(None) if j == d else sl for j, sl in enumerate(lattice_slices))
            for d in axes
        )
        passes.append(_Pass(tuple(axes), slices, counts, views, winners))
    return LevelPlan(tuple(shape), s, scheme, spline, tuple(passes), tuple(lattice))


_PLANS = CountedTableCache(capacity=128)


def level_plan(shape: tuple[int, ...], stride: int, scheme: str, spline: str) -> LevelPlan:
    """Memoized :class:`LevelPlan` for one level's pass geometry.

    Keyed by ``(shape, stride, scheme, spline)`` with a small LRU bound; safe
    under the thread executors (tiled engine, server task thread).
    """
    key = (tuple(int(d) for d in shape), int(stride), scheme, spline)
    plan = _PLANS.lookup(key)
    if plan is not None:
        return plan
    return _PLANS.store(key, _build_level_plan(*key))


def level_plan_stats() -> dict:
    """Hit/miss counters of the level-plan and plane-geometry caches together
    (surfaced in server ``/stats``)."""
    a, b = _PLANS.stats(), _PLANE_LEVELS.stats()
    return {key: a[key] + b[key] for key in a}


# ---------------------------------------------------------------------------
# Parity planes: the replay layout of compress and decompress.
# ---------------------------------------------------------------------------


class _PlanePass:
    """One replay pass: it predicts the contiguous target planes
    ``[k0, k1)``.  Per interpolated axis, ``runs`` holds the flat run
    ``(lo, kind, neighbors)``, whose neighbors are 1-D slices of the level
    buffer, and the boundary rows ``((rel, kind, neighbors), ...)``, whose
    neighbors are basic slices of the plane view; ``winners`` is the
    :func:`_boundary_winners` of a pass with two or more axes."""

    __slots__ = ("k0", "k1", "runs", "winners")

    def __init__(self, k0, k1, runs, winners):
        self.k0 = k0
        self.k1 = k1
        self.runs = runs
        self.winners = winners


class PlaneLevel:
    """Parity-plane geometry of one (shape, stride, scheme, spline) level.

    The stride-``s`` lattice (shape ``n``) splits into ``2**nd`` planes by
    coordinate parity, plane ``k`` holding the points whose parity bits are
    ``b_j = (k >> j) & 1``.  Every plane is padded to ``half = ceil(n/2)``
    and the planes lie back to back in one float64 buffer of ``size``
    elements (a zero tail keeps the flat runs' reads in bounds).  Plane 0
    is the previous level's lattice, unpadded.  Per plane, ``planes`` holds
    its valid ``extent`` and the basic slices of its points in the data
    (``data``) and in the stride-``s`` lattice (``lattice``).
    """

    __slots__ = ("stride", "half", "size", "planes", "passes")

    def __init__(self, stride, half, size, planes, passes):
        self.stride = stride
        self.half = half
        self.size = size
        self.planes = planes
        self.passes = passes

    def buffer(self) -> tuple[np.ndarray, np.ndarray]:
        """A zeroed level buffer and its ``(2**nd, *half)`` plane view."""
        shape = (len(self.planes),) + self.half
        buf = np.zeros(self.size)
        return buf, buf[: prod(shape)].reshape(shape)

    def outliers(self, coords: tuple[np.ndarray, ...], values: np.ndarray):
        """The outliers predicted at this level, in buffer order.

        ``coords`` are the data coordinates of every outlier and ``values``
        their exact values.  Returns their buffer positions, their values as
        float64, and per plane ``k`` the index ``bounds[k]`` of its first one.
        """
        if not values.size:
            return np.zeros(0, np.int64), np.zeros(0), np.zeros(len(self.planes) + 1, np.intp)
        s = self.stride
        here = np.ones(values.size, dtype=bool)
        coarser = np.ones(values.size, dtype=bool)
        for c in coords:
            here &= c % s == 0
            coarser &= c % (2 * s) == 0
        here &= ~coarser
        plane_size = prod(self.half)
        pos = np.zeros(int(here.sum()), dtype=np.int64)
        for j, (c, row) in enumerate(zip(coords, _row_strides(self.half))):
            c = c[here] // s
            pos += ((c & 1) << j) * plane_size + (c >> 1) * row
        order = np.argsort(pos, kind="stable")
        bounds = np.searchsorted(pos[order], np.arange(len(self.planes) + 1) * plane_size)
        return pos[order], values[here][order].astype(np.float64), bounds


def _build_plane_level(shape: tuple[int, ...], stride: int, scheme: str, spline: str) -> PlaneLevel:
    s = int(stride)
    nd = len(shape)
    n = tuple(len(range(0, dim, s)) for dim in shape)
    half = tuple((c + 1) // 2 for c in n)
    row = _row_strides(half)
    plane_size = prod(half)
    nplanes = 1 << nd
    planes = []
    for k in range(nplanes):
        bits = [(k >> j) & 1 for j in range(nd)]
        extent = tuple(slice(0, (c - b + 1) // 2) for c, b in zip(n, bits))
        data = tuple(slice(b * s, dim, 2 * s) for b, dim in zip(bits, shape))
        lattice = tuple(slice(b, c, 2) for b, c in zip(bits, n))
        planes.append((extent, data, lattice))
    interior = KIND_LIN if spline == "linear" else KIND_FULL
    # Plane index i along d is the lattice target 2i+1; its neighbor at
    # offset ``off`` strides lies in the source plane at i + (off+1)//2.
    shifts = [(off + 1) // 2 for off in KIND_OFFSETS[interior]]
    passes = []
    for _, axes in _pass_descriptors(shape, s, scheme):
        if 0 in n or any(n[d] < 2 for d in axes):
            continue  # an empty field, or no targets along an interpolated axis
        # Axis 0 is the least significant parity bit: a 1d pass along d
        # covers the planes [2**d, 2**(d+1)), an md pass over the axes S
        # the single plane sum(2**j for j in S).
        k0 = 1 << axes[0] if scheme == "1d" else sum(1 << j for j in axes)
        k1 = 2 * k0 if scheme == "1d" else k0 + 1
        m = k1 - k0
        runs, order_runs = [], []
        for d in axes:
            src = k0 - (1 << d)
            lo = -min(shifts) * row[d]
            first, stop = src * plane_size + lo, (src + m) * plane_size
            flat = (lo, interior, tuple(
                (slice(first + sh * row[d], stop + sh * row[d]),) for sh in shifts
            ))
            rows, orders = [], []
            for i0, i1, kind in axis_kind_segments(shape[d], s, spline):
                rel = (slice(None),) + tuple(
                    slice(i0, i1) if j == d else slice(None) for j in range(nd)
                )
                orders.append((rel, kind, None))
                if kind == interior:
                    continue
                nbs = []
                for off in KIND_OFFSETS[kind]:
                    sh = (off + 1) // 2
                    nbs.append((slice(src, src + m),) + tuple(
                        slice(i0 + sh, i1 + sh) if j == d else slice(None) for j in range(nd)
                    ))
                rows.append((rel, kind, tuple(nbs)))
            runs.append((flat, tuple(rows)))
            order_runs.append(tuple(orders))
        winners = None
        if len(axes) > 1:
            winners = _boundary_winners(
                tuple(order_runs), tuple(d + 1 for d in axes), (1,) + half
            )
        passes.append(_PlanePass(k0, k1, tuple(runs), winners))
    # The flat runs read up to two rows of axis 0 past the last plane.
    size = nplanes * plane_size + 2 * max(row, default=0)
    return PlaneLevel(s, half, size, tuple(planes), tuple(passes))


_PLANE_LEVELS = CountedTableCache(capacity=128)


def plane_level(shape: tuple[int, ...], stride: int, scheme: str, spline: str) -> PlaneLevel:
    """Memoized :class:`PlaneLevel`, keyed like :func:`level_plan`."""
    key = (tuple(int(d) for d in shape), int(stride), scheme, spline)
    geo = _PLANE_LEVELS.lookup(key)
    if geo is not None:
        return geo
    return _PLANE_LEVELS.store(key, _build_plane_level(*key))


class ScratchPool:
    """Reusable flat buffers handed out as shaped views.

    One pool serves every pass of a compress/decompress call: buffers are
    keyed by name, grown to the largest shape requested, and re-sliced per
    pass — so the hot loop performs no large allocations after the first
    (finest-level) pass.  Not thread-safe; use one pool per thread.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        n = prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.dtype != dtype or buf.size < n:
            dtype = np.dtype(dtype)
            size = n if buf is None or buf.dtype != dtype else max(n, buf.size)
            buf = np.empty(size, dtype=dtype)
            self._buffers[key] = buf
        return buf[:n].reshape(shape)


def _predict_axis(
    R: np.ndarray, runs: tuple, spline: str, out: np.ndarray, scratch: ScratchPool
) -> np.ndarray:
    """Evaluate one axis's class runs of ``R`` into the block buffer ``out``.

    Each run is computed in a reused contiguous buffer and copied into
    place: one strided write instead of one per arithmetic step.
    """
    for rel, kind, neighbors in runs:
        view = out[rel]
        run = scratch.get("pred_run", view.shape)
        tmp = scratch.get("pred_tmp", view.shape)
        predict_kind_into(R, kind, neighbors, spline, out=run, tmp=tmp)
        np.copyto(view, run)
    return out


def _average_winners(preds: list, winners: tuple, out: np.ndarray) -> np.ndarray:
    """Highest-order-wins average of per-axis predictions into ``out``.

    ``preds`` holds one prediction per interpolated axis, in axis order, and
    ``winners`` is the pass's :func:`_boundary_winners`.  Every axis wins
    wherever the orders agree, so the block-wide mean ``((p0 + p1) + ...)
    / k`` is the answer there.  The boundary points are then gathered and
    redone: the first winner's prediction copied (a zero accumulator would
    turn ``-0.0`` into ``+0.0``), later winners added left to right, and the
    sum divided by the winner count.  Losing axes never reach those points,
    so their non-finite values cannot leak.
    """
    flat, steps, count = winners
    vals = [pred.reshape(-1)[flat] for pred in preds]
    np.add(preds[0], preds[1], out=out)
    for pred in preds[2:]:
        np.add(out, pred, out=out)
    np.divide(out, float(len(preds)), out=out)
    acc = vals[0]
    for val, (first, later) in zip(vals[1:], steps):
        np.copyto(acc, val, where=first)
        np.add(acc, val, out=acc, where=later)
    np.divide(acc, count, out=acc)
    out.reshape(-1)[flat] = acc
    return out


def _interleave(g: PlaneLevel, planes: np.ndarray, out: np.ndarray) -> None:
    """Scatter a finished level's planes into its lattice ``out`` (the next
    level's plane 0, or the field itself at stride 1), casting to its dtype."""
    for k, (extent, _, lattice) in enumerate(g.planes):
        out[lattice] = planes[k][extent]


def _predict_planes(
    buf: np.ndarray, planes: np.ndarray, p: _PlanePass, spline: str, scratch: ScratchPool
) -> np.ndarray:
    """Highest-order-wins prediction of one pass's target planes into scratch.

    Per axis, one flat run evaluates the interior formula over the whole
    target range from shifted 1-D slices of ``buf``; it leaves garbage on
    the boundary rows, which are then recomputed from basic slices of
    ``planes``.  Padding entries get finite garbage and are never read
    back into a valid point.
    """
    shape = (p.k1 - p.k0,) + planes.shape[1:]
    preds = []
    for i, ((lo, kind, nbs), rows) in enumerate(p.runs):
        pred = scratch.get(f"pred_{i}", shape)
        out = pred.reshape(-1)[lo:]
        predict_kind_into(buf, kind, nbs, spline, out=out, tmp=scratch.get("pred_tmp", out.shape))
        for rel, kind, nbs in rows:
            view = pred[rel]
            run = scratch.get("pred_run", view.shape)
            tmp = scratch.get("pred_tmp", view.shape)
            predict_kind_into(planes, kind, nbs, spline, out=run, tmp=tmp)
            np.copyto(view, run)
        preds.append(pred)
    if len(preds) == 1:
        return preds[0]
    return _average_winners(preds, p.winners, preds[0])


class InterpolationPredictor:
    """Anchor-grid + hierarchical spline predictor with byte quantization."""

    def __init__(self, anchor_stride: int = 16):
        self.anchor_stride = anchor_stride
        self._scratch = ScratchPool()

    def _anchor_slices(self, shape: tuple[int, ...]) -> tuple[slice, ...]:
        return tuple(slice(0, dim, self.anchor_stride) for dim in shape)

    def _levels(self, shape: tuple[int, ...], configs) -> list[tuple[str, PlaneLevel]]:
        """``(spline, geometry)`` of every level, coarse to fine."""
        out = []
        for s in level_strides(self.anchor_stride):
            cfg = configs.get(s, LevelConfig())
            out.append((cfg.spline, plane_level(shape, s, cfg.scheme, cfg.spline)))
        return out

    # ------------------------------------------------------------ compress
    def compress(
        self,
        data: np.ndarray,
        eb: float,
        level_configs: dict[int, LevelConfig] | None = None,
        keep_recon: bool = True,
    ) -> PredictorResult:
        """Decompose ``data`` into quantization codes under absolute bound ``eb``.

        ``level_configs`` maps stride -> :class:`LevelConfig`; missing levels
        default to the md/cubic configuration.  With ``keep_recon=False`` the
        result's ``recon`` is ``None`` and the last interleave is skipped.
        """
        if eb <= 0:
            raise ValueError("error bound must be positive")
        data = np.asarray(data)
        shape = data.shape
        dtype = data.dtype
        codes = np.full(shape, 128, dtype=np.uint8)
        strides = level_strides(self.anchor_stride)
        configs = {s: (level_configs or {}).get(s, LevelConfig()) for s in strides}

        # Always a copy (never ascontiguousarray): a size-1 anchor grid is a
        # trivially contiguous *view* of the input, and the zero-copy
        # container would then alias the caller's buffer through the blob.
        anchors = data[self._anchor_slices(shape)].copy()

        quantizer = ByteQuantizer(eb)
        scratch = self._scratch
        levels = self._levels(shape, configs)
        buf, planes = levels[0][1].buffer()
        planes[0] = anchors  # exact float64 embedding of the raw anchors
        recon = None
        for i, (spline, g) in enumerate(levels):
            for p in g.passes:
                targets = g.planes[p.k0 : p.k1]
                shape_p = (len(targets),) + g.half
                # Zeroed first: padding entries of the data planes must be
                # finite garbage.
                values = scratch.get("plane_values", shape_p)
                values.fill(0.0)
                for (extent, dslices, _), plane in zip(targets, values):
                    plane[extent] = data[dslices]
                cplanes = scratch.get("plane_codes", shape_p, np.uint8)
                pred = _predict_planes(buf, planes, p, spline, scratch)
                quantizer.quantize_into(
                    values, pred, dtype, scratch, cplanes, out=planes[p.k0 : p.k1]
                )
                for (extent, dslices, _), plane in zip(targets, cplanes):
                    codes[dslices] = plane[extent]
            if i + 1 < len(levels):
                buf, nxt = levels[i + 1][1].buffer()
                _interleave(g, planes, nxt[0, ...])
                planes = nxt
            elif keep_recon:
                recon = np.empty(shape, dtype=dtype)
                _interleave(g, planes, recon)

        out_pos = np.flatnonzero(codes.reshape(-1) == 0)
        # Anchor positions can never be outliers (byte 128), so out_pos are
        # exactly the predicted points flagged above, in flat scan order.
        outlier_values = data.reshape(-1)[out_pos].copy()
        return PredictorResult(
            codes=codes,
            anchors=anchors,
            outlier_values=outlier_values,
            recon=recon,
            level_configs=configs,
        )

    # ---------------------------------------------------------- decompress
    def decompress(
        self,
        codes: np.ndarray,
        anchors: np.ndarray,
        outlier_values: np.ndarray,
        shape: tuple[int, ...],
        eb: float,
        level_configs: dict[int, LevelConfig],
        dtype: np.dtype,
    ) -> np.ndarray:
        """Replay the prediction passes and rebuild the field exactly."""
        shape = tuple(shape)
        out_pos = np.flatnonzero(codes.reshape(-1) == 0)
        coords = tuple(out_pos // row % dim for row, dim in zip(_row_strides(shape), shape))
        outlier_values = np.asarray(outlier_values)
        twoeb = 2.0 * eb
        scratch = self._scratch
        levels = self._levels(shape, level_configs)
        buf, planes = levels[0][1].buffer()
        planes[0] = anchors
        for i, (spline, g) in enumerate(levels):
            # Every target plane starts as its dequantized codes; padding
            # stays zero, so it only ever holds finite garbage.
            for (extent, dslices, _), plane in zip(g.planes[1:], planes[1:]):
                np.subtract(codes[dslices], 128.0, out=plane[extent])  # exact for every byte
            np.multiply(planes[1:], twoeb, out=planes[1:])
            pos, exact, bounds = g.outliers(coords, outlier_values)
            for p in g.passes:
                target = planes[p.k0 : p.k1]
                np.add(_predict_planes(buf, planes, p, spline, scratch), target, out=target)
                lo, hi = bounds[p.k0], bounds[p.k1]
                if lo < hi:
                    buf[pos[lo:hi]] = exact[lo:hi]
            if i + 1 < len(levels):
                buf, nxt = levels[i + 1][1].buffer()
                _interleave(g, planes, nxt[0, ...])
                planes = nxt
        out = np.empty(shape, dtype=dtype)
        _interleave(g, planes, out)  # the stride-1 lattice is the field
        return out

    # ------------------------------------------------------------- dry run
    def level_errors(
        self,
        X: np.ndarray,
        stride: int,
        configs: tuple[LevelConfig, ...],
    ) -> list[float]:
        """:meth:`pass_error` of one level for each of ``configs``.

        Scoring predicts from raw values, so the prediction along axis ``d``
        at a target depends on neither the pass nor the scheme.  Each spline
        family's per-axis predictions over the stride-``s`` lattice are
        computed once, and every pass of every config reads basic-slice
        views of them.
        """
        Xf = X.astype(np.float64, copy=False)
        scratch = self._scratch
        lattices: dict[str, list[np.ndarray]] = {}
        totals = []
        for config in configs:
            plan = level_plan(X.shape, stride, config.scheme, config.spline)
            lattice = lattices.get(config.spline)
            if lattice is None:
                lattice = lattices[config.spline] = [
                    _predict_axis(Xf, runs, config.spline, np.empty(lshape), scratch)
                    for lshape, runs in plan.lattice
                ]
            total = 0.0
            for p in plan.passes:
                preds = [lattice[d][view] for d, view in zip(p.axes, p.views)]
                pred = preds[0]
                if len(preds) > 1:
                    pred = _average_winners(preds, p.winners, scratch.get("pred_sum", p.shape))
                diff = scratch.get("pass_diff", p.shape)
                np.subtract(Xf[p.slices], pred, out=diff)
                np.abs(diff, out=diff)
                total += float(diff.sum())
            totals.append(total)
        return totals

    def pass_error(
        self,
        X: np.ndarray,
        stride: int,
        config: LevelConfig,
    ) -> float:
        """Sum of absolute prediction errors of one level on raw values.

        Auto-tuning (§5.1.3) scores candidate configurations by predicting a
        level's points *from the original data* — the cheap surrogate QoZ
        introduced — so no quantization state is needed.  Each pass's errors
        are written to one pass-block buffer and summed, so the reduction
        tree is that of the mask-based implementation.
        """
        return self.level_errors(X, stride, (config,))[0]

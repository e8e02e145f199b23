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

Scoring predicts from raw values, so the prediction along an axis at a
target depends on neither the pass nor the scheme.  A
:class:`ScoringProgram`, built once per ``(sample-block shape,
anchor_stride)`` from closed-form index arithmetic and cached
(:func:`scoring_program`), holds every level's lattice points and pass
targets as flat index arrays.  One call gathers the neighbors of all
lattice points, evaluates the three spline families as one slice per
boundary class of a ``(3, L)`` prediction array, averages the winners of
the multi-axis passes, and gathers every pass's errors into one C-order
segment: all levels and six candidates in about a hundred array operations
plus one sum per pass, with the per-point arithmetic and each pass's
summation tree of the sub-block formulation, so scores and choices are
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import prod

import numpy as np

from ..core.cache import ByteBudgetLRU, CountedTableCache
from ..quantizer.linear import ByteQuantizer
from .splines import (
    KIND_COPY,
    KIND_FULL,
    KIND_LIN,
    KIND_OFFSETS,
    KIND_ORDER,
    KIND_QUAD_L,
    KIND_QUAD_R,
    SPLINES,
    _QUAD_LEFT,
    _QUAD_RIGHT,
    axis_kind_segments,
    predict_kind_into,
)

__all__ = [
    "LevelConfig",
    "PredictorResult",
    "InterpolationPredictor",
    "ScratchPool",
    "PlaneLevel",
    "ScoringProgram",
    "plane_level",
    "scoring_program",
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
# The scoring program: every level's auto-tune scores in one gather program.
# ---------------------------------------------------------------------------

#: spline families, in the row order of a scoring program's predictions
SCORE_FAMILIES = ("cubic", "natural_cubic", "linear")
#: schemes, in the column order of a scoring program's totals
SCORE_SCHEMES = ("md", "1d")

#: boundary classes in the order a program lays its lattice points out: the
#: cubic families' ``m3`` reads then cover QUAD_L and FULL, their ``p3``
#: reads FULL and QUAD_R, and linear's ``(m1 + p1) * 0.5`` all but COPY
_LAYOUT = (KIND_QUAD_L, KIND_FULL, KIND_QUAD_R, KIND_LIN, KIND_COPY)

#: the cubic families' interior weights, one row per family (m3, m1, p1, p3)
_CUBIC_WEIGHTS = np.array([SPLINES["cubic"], SPLINES["natural_cubic"]])

#: per neighbor (m3, m1, p1, p3), the cubic families' class formulas it
#: enters, with its weight in each family's row
_CUBIC_TERMS = (
    ((KIND_QUAD_L, (_QUAD_LEFT[0],) * 2), (KIND_FULL, _CUBIC_WEIGHTS[:, 0])),
    (
        (KIND_QUAD_L, (_QUAD_LEFT[1],) * 2),
        (KIND_FULL, _CUBIC_WEIGHTS[:, 1]),
        (KIND_QUAD_R, (_QUAD_RIGHT[0],) * 2),
    ),
    (
        (KIND_QUAD_L, (_QUAD_LEFT[2],) * 2),
        (KIND_FULL, _CUBIC_WEIGHTS[:, 2]),
        (KIND_QUAD_R, (_QUAD_RIGHT[1],) * 2),
    ),
    ((KIND_FULL, _CUBIC_WEIGHTS[:, 3]), (KIND_QUAD_R, (_QUAD_RIGHT[2],) * 2)),
)


def _row_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    out = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        out[d] = out[d + 1] * shape[d + 1]
    return tuple(out)


def _outer_sum(vectors, dtype) -> np.ndarray:
    """C-order ravel of the open-mesh sum ``v0[:, None] + v1[None, :] + ...``."""
    out = np.zeros(1, dtype=dtype)
    for v in vectors:
        out = (out[:, None] + v).reshape(-1)
    return out


def _compact(positions: np.ndarray) -> np.ndarray:
    """Non-negative ``positions`` in the narrowest of uint16, int32, int64."""
    top = int(positions.max()) if positions.size else 0
    dtype = np.uint16 if top < 1 << 16 else np.int32 if top < 1 << 31 else np.int64
    return positions.astype(dtype)


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


def _winner_groups(pos: list, orders: list, counts: list, axes: tuple):
    """Highest-order-wins operands of one multi-axis pass for one family.

    ``pos[i]`` holds the lattice position of axis ``axes[i]``'s prediction
    at every target (C order) and ``orders[i]`` that axis's order per
    target index along it.  Returns the first winner's position at every
    target and, per winner count ``k >= 2``, ``(sel, ops)``: the ``m``
    targets with ``k`` winners and the ``(k, m)`` positions of their
    winners, in axis order.
    """
    nd = len(counts)
    shaped = [o.reshape([-1 if j == d else 1 for j in range(nd)]) for o, d in zip(orders, axes)]
    top = shaped[0]
    for o in shaped[1:]:
        top = np.maximum(top, o)
    win = np.stack([np.broadcast_to(o == top, counts).reshape(-1) for o in shaped])
    k = win.sum(axis=0)
    winners = np.stack(pos).T[win.T]  # every target's winners, in axis order
    starts = np.cumsum(k) - k
    ops = {}
    for count in range(2, len(axes) + 1):
        sel = np.flatnonzero(k == count)
        if sel.size:
            ops[count] = (sel, winners[starts[sel] + np.arange(count)[:, None]])
    return winners[starts], ops


def _carve(buf: np.ndarray, *shapes) -> list:
    """Consecutive views of ``buf`` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        n = prod(shape)
        views.append(buf[start : start + n].reshape(shape))
        start += n
    return views


class ScoringProgram:
    """Auto-tune scores of every level and candidate of one sample-block shape.

    Scoring predicts from raw values, so the prediction along an axis at a
    lattice point depends on neither the pass nor the scheme.  The program
    holds, as flat index arrays, everything a call gathers:

    * ``neighbors``: the ``m3, m1, p1, p3`` data positions of every lattice
      point of every level and axis, laid out by boundary class
      (:data:`_LAYOUT`, class ends in ``bounds``), so each class's formula
      is one slice of a ``(3, columns)`` prediction array whose rows are
      :data:`SCORE_FAMILIES`;
    * ``groups``: per family group (the cubic families, then linear) and
      winner count ``k >= 2``, the ``(k, m)`` prediction columns of the
      targets of multi-axis passes where ``k`` axes win; their averages
      fill the columns after the predictions;
    * ``targets``: the data position of every target of every pass, the
      single-axis passes first; ``single`` holds their prediction columns
      and ``multi`` those of the multi-axis passes, per family group.

    ``segments`` lists ``(level, scheme, multi, start, stop)`` in pass
    order, ``start`` and ``stop`` counted within the single-axis or the
    multi-axis targets: each pass's targets are one contiguous C-order run,
    so its errors sum through the reduction tree of a pass-block buffer.
    Index arrays are stored narrow (:func:`_compact`) and widened per call
    into one buffer; a call's float64 temporaries share one workspace.
    Immutable, hence shared freely between threads; see
    :func:`scoring_program`.
    """

    __slots__ = (
        "shape", "levels", "bounds", "neighbors", "groups", "targets", "single", "multi",
        "segments", "columns", "spread", "chunks", "work", "width", "nbytes",
    )

    def __init__(self, shape, levels, bounds, neighbors, groups, targets, single, multi, segments):
        self.shape = shape
        self.levels = levels
        self.bounds = bounds
        self.neighbors = neighbors
        self.groups = groups
        self.targets = targets
        self.single = single
        self.multi = multi
        self.segments = segments
        q_l, full, q_r, lin, size = bounds
        widths = [sum(ops.shape[1] for _, ops in group) for group in groups]
        self.columns = size + max(widths, default=0)
        # Error chunks: runs of consecutive passes of one part (single-axis,
        # then multi-axis), each at most a quarter of a neighbor and a
        # temporary, or one pass.  With their target values they fit the
        # float64 workspace the neighbor phase needs, as do the winner sums.
        self.spread = max(q_l, full - q_l, q_r - full)
        cap = (size + self.spread) // 4
        chunks = []
        for part in (0, 1):
            for i, (_, _, multi_axis, lo, hi) in enumerate(segments):
                if multi_axis != part:
                    continue
                last = chunks[-1] if chunks else None
                if last and last[0] == part and hi - last[1] <= cap:
                    last[2:] = hi, last[3] + (i,)
                else:
                    chunks.append([part, lo, hi, (i,)])
        self.chunks = tuple(map(tuple, chunks))  # (part, start, stop, passes)
        widest = max((ops.shape[1] for group in groups for _, ops in group), default=0)
        longest = max((hi - lo for _, lo, hi, _ in self.chunks), default=0)
        self.work = max(size + self.spread, 4 * widest, 4 * longest)
        arrays = [*neighbors, targets, single, *multi, *(ops for g in groups for _, ops in g)]
        self.width = max(a.shape[-1] for a in arrays)
        self.nbytes = sum(a.nbytes for a in arrays)

    def errors(self, X: np.ndarray) -> list:
        """``totals[level][family][scheme]``: the summed absolute prediction
        errors of every level (coarse to fine) and candidate on ``X``."""
        xf = np.asarray(X, dtype=np.float64).reshape(-1)
        wide = np.empty(self.width, dtype=np.intp)

        def index(positions):
            idx = wide[: positions.shape[-1]]
            np.copyto(idx, positions)
            return idx

        def gather(src, positions, out):
            # mode="clip" writes ``out`` unbuffered; every position is in range
            return np.take(src, index(positions), axis=-1, out=out, mode="clip")

        q_l, full, q_r, lin, size = self.bounds
        pred = np.empty((3, self.columns))
        work = np.empty(self.work)
        nb, tmp = _carve(work, (size,), (self.spread,))
        # One neighbor at a time into ``nb``: every term it contributes to
        # the cubic families' class sums, left-associated (the first term
        # of a class starts its sum), and linear's (m1 + p1) * 0.5.
        spans = {KIND_QUAD_L: (0, q_l), KIND_FULL: (q_l, full), KIND_QUAD_R: (full, q_r)}
        begun = set()
        for k, (positions, start) in enumerate(zip(self.neighbors, (0, 0, 0, q_l))):
            vals = gather(xf, positions, nb[: positions.size])
            if k == 1:  # m1: linear's first operand, and COPY in every family
                np.copyto(pred[2, :lin], vals[:lin])
                np.copyto(pred[:, lin:size], vals[lin:])
            elif k == 2:  # p1
                np.add(pred[2, :lin], vals, out=pred[2, :lin])
                np.multiply(pred[2, :lin], 0.5, out=pred[2, :lin])
            for kind, weights in _CUBIC_TERMS[k]:
                lo, hi = spans[kind]
                for row, w in zip(pred[:2, lo:hi], weights):
                    if kind in begun:
                        np.multiply(vals[lo - start : hi - start], w, out=tmp[: hi - lo])
                        np.add(row, tmp[: hi - lo], out=row)
                    else:
                        np.multiply(vals[lo - start : hi - start], w, out=row)
                begun.add(kind)
        np.copyto(pred[:2, q_r:lin], pred[2, q_r:lin])  # their LIN class is linear's
        # winner averages of the multi-axis passes, after the predictions;
        # whole rows are the sources, as np.take copies a non-contiguous one
        for rows, group in zip((slice(0, 2), slice(2, 3)), self.groups):
            src, start = pred[rows], size
            for k, ops in group:
                m = ops.shape[1]
                acc, term = _carve(work, (len(src), m), (len(src), m))
                gather(src, ops[0], acc)
                for j in range(1, k):
                    np.add(acc, gather(src, ops[j], term), out=acc)
                np.divide(acc, float(k), out=pred[rows, start : start + m])
                start += m
        # absolute errors, chunk by chunk; each pass is one contiguous
        # C-order segment
        single, (cubic, linear) = self.single, self.multi
        sums = [None] * len(self.segments)
        for part, lo, hi, members in self.chunks:
            err, x = _carve(work, (3, hi - lo), (hi - lo,))
            first = part * single.size  # multi-axis targets follow the single-axis ones
            gather(xf, self.targets[first + lo : first + hi], x)
            if part:
                columns = ((cubic[lo:hi], (0, 1)), (linear[lo:hi], (2,)))
            else:
                columns = ((single[lo:hi], (0, 1, 2)),)
            for cols, rows in columns:
                idx = index(cols)
                for r in rows:
                    np.take(pred[r], idx, out=err[r], mode="clip")
            np.subtract(x, err, out=err)
            np.abs(err, out=err)
            for i in members:
                start, stop = self.segments[i][3:]
                sums[i] = err[:, start - lo : stop - lo].sum(axis=1).tolist()
        totals = [[[0.0, 0.0] for _ in SCORE_FAMILIES] for _ in self.levels]
        for (level, scheme, *_), pass_sums in zip(self.segments, sums):
            for family, total in zip(totals[level], pass_sums):
                family[scheme] += total
        return totals


def _build_scoring_program(shape: tuple[int, ...], anchor_stride: int) -> ScoringProgram:
    nd = len(shape)
    row = _row_strides(shape)
    levels = level_strides(anchor_stride)
    # int32 arithmetic while building: every column is below 4x the points
    itype = np.int32 if 4 * prod(shape) < 1 << 31 else np.int64

    def arange(*args):
        return np.arange(*args, dtype=itype)

    # Lattice points: per (level, axis), the data positions of the targets
    # along the axis with every other coordinate a multiple of the stride,
    # axis first, so each boundary-class run is one contiguous block.
    blocks = {kind: [] for kind in _LAYOUT}
    lattice = {}
    for li, s in enumerate(levels):
        n = [len(range(0, dim, s)) for dim in shape]
        for d in range(nd):
            segs = axis_kind_segments(shape[d], s, "cubic")
            if not segs:
                continue
            others = [j for j in range(nd) if j != d]
            inner = _outer_sum((arange(n[j]) * (s * row[j]) for j in others), itype)
            along = (s + 2 * s * arange(segs[-1][1])) * row[d]
            for i0, i1, kind in segs:
                block = (along[i0:i1, None] + inner).reshape(-1)
                blocks[kind].append(((li, d, i0), block, s * row[d]))
            strides = dict(zip(others, _row_strides([n[j] for j in others])))
            lattice[li, d] = (segs, inner.size, strides)
    first, bounds = {}, []
    size = 0
    for kind in _LAYOUT:
        for key, base, _ in blocks[kind]:
            first[key] = size
            size += base.size
        bounds.append(size)
    q_l, full, q_r, lin, _ = bounds
    entries = [entry for kind in _LAYOUT for entry in blocks[kind]]
    base = np.concatenate([b for _, b, _ in entries] or [np.zeros(0, itype)])
    steps = np.array([s for _, _, s in entries], dtype=itype)
    step = np.repeat(steps, [b.size for _, b, _ in entries])
    del blocks, entries
    neighbors = (
        _compact(base[:full] - 3 * step[:full]),
        _compact(base - step),
        _compact(base[:lin] + step[:lin]),
        _compact(base[q_l:q_r] + 3 * step[q_l:q_r]),
    )
    del base, step
    # Per (level, axis): the prediction column and both family groups'
    # orders of every target index along the axis.
    tables = {}
    for (li, d), (segs, rest, strides) in lattice.items():
        at = np.empty(segs[-1][1], dtype=itype)
        for i0, i1, _ in segs:
            at[i0:i1] = first[li, d, i0] + arange(i1 - i0) * rest
        orders = []
        for spline in ("cubic", "linear"):
            order = np.empty(at.size, dtype=np.int8)
            for i0, i1, kind in axis_kind_segments(shape[d], levels[li], spline):
                order[i0:i1] = KIND_ORDER[kind]
            orders.append(order)
        tables[li, d] = (at, orders, strides)

    # Every pass, in order: its targets' data positions and prediction
    # columns, compacted as they come.  Multi-axis columns stay wide until
    # the winner averages' columns (after all ``size`` predictions) are known.
    single, multi, segments, fixups = [], [], [], []
    offset = [0, 0]  # targets so far, single-axis and multi-axis
    ops = ({}, {})  # per family group: winner count -> [(k, m) columns, ...]
    sizes = ({}, {})  # per family group: winner count -> columns so far
    for li, s in enumerate(levels):
        for sc, scheme in enumerate(SCORE_SCHEMES):
            for descr, axes in _pass_descriptors(shape, s, scheme):
                coords = [arange(start, dim, step) for (start, step), dim in zip(descr, shape)]
                counts = [c.size for c in coords]
                if 0 in counts:
                    continue
                tpos = _outer_sum((c * r for c, r in zip(coords, row)), itype)
                pos = []
                for d in axes:
                    at, _, strides = tables[li, d]
                    pos.append(_outer_sum(
                        (at if j == d else c // s * strides[j] for j, c in enumerate(coords)), itype
                    ))
                part = int(len(axes) > 1)
                segments.append((li, sc, part, offset[part], offset[part] + tpos.size))
                offset[part] += tpos.size
                if not part:
                    single.append((_compact(tpos), _compact(pos[0])))
                    continue
                cols = []
                for family in (0, 1):
                    orders = [tables[li, d][1][family] for d in axes]
                    col, groups = _winner_groups(pos, orders, counts, axes)
                    for count, (sel, columns) in groups.items():
                        done = sizes[family].get(count, 0)
                        fixups.append((col, sel, family, count, done))
                        sizes[family][count] = done + sel.size
                        ops[family].setdefault(count, []).append(_compact(columns))
                    cols.append(col)
                multi.append((_compact(tpos), *cols))
    # winner averages follow the predictions, count by count
    groups, starts = [], ({}, {})
    for family in (0, 1):
        start, group = size, []
        for count in sorted(ops[family]):
            starts[family][count] = start
            group.append((count, np.concatenate(ops[family][count], axis=1)))
            start += group[-1][1].shape[1]
        groups.append(tuple(group))
    for col, sel, family, count, done in fixups:
        col[sel] = starts[family][count] + done + arange(sel.size)

    def joined(parts, k):
        if not parts:
            return [np.zeros(0, np.uint16)] * k
        return [np.concatenate(p) for p in zip(*parts)]

    t_single, c_single = joined(single, 2)
    t_multi, *c_multi = joined(multi, 3)
    return ScoringProgram(
        tuple(shape),
        tuple(levels),
        tuple(bounds),
        neighbors,
        tuple(groups),
        np.concatenate([t_single, t_multi]),
        c_single,
        tuple(_compact(c) for c in c_multi),
        tuple(segments),
    )


#: byte bound of the program cache: a 33³ block's program holds ~1 MB
SCORING_CACHE_BYTES = 16 << 20

_PROGRAMS = ByteBudgetLRU(SCORING_CACHE_BYTES)


def scoring_program(shape: tuple[int, ...], anchor_stride: int) -> ScoringProgram:
    """Memoized :class:`ScoringProgram` of one ``(shape, anchor_stride)``.

    Held in a byte-bounded LRU (:data:`SCORING_CACHE_BYTES`); a program
    larger than the bound is built per call and not kept.
    """
    key = (tuple(int(d) for d in shape), int(anchor_stride))
    program = _PROGRAMS.get(key)
    if program is None:
        program = _build_scoring_program(*key)
        _PROGRAMS.put(key, program, program.nbytes)
    return program


def level_plan_stats() -> dict:
    """Hit/miss counters of the scoring-program and plane-geometry caches
    together (surfaced in server ``/stats``)."""
    a, b = _PROGRAMS.stats(), _PLANE_LEVELS.stats()
    return {key: a[key] + b[key] for key in b}


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
    """Memoized :class:`PlaneLevel` of one (shape, stride, scheme, spline) level."""
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
        """:meth:`pass_error` of one level for each of ``configs``: a read of
        the :func:`scoring_program` of ``X``'s shape, which scores every
        level and candidate at once."""
        program = scoring_program(X.shape, self.anchor_stride)
        if stride not in program.levels:
            raise ValueError(
                f"stride {stride} is not a level of anchor stride {self.anchor_stride}"
            )
        totals = program.errors(X)[program.levels.index(stride)]
        return [
            totals[SCORE_FAMILIES.index(c.spline)][SCORE_SCHEMES.index(c.scheme)] for c in configs
        ]

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
        are summed as one contiguous C-order block, so the reduction tree is
        that of the mask-based implementation.
        """
        return self.level_errors(X, stride, (config,))[0]

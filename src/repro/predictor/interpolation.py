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

GPU mapping: in CUDA each 17^3 block is one thread block; here every round
of a level is a handful of whole-plane vector operations.  Interpolation is
performed globally (no halo truncation at block borders); DESIGN.md §3
records this as the one deliberate deviation from the CUDA kernel.

Execution model (the single-thread hot path)
--------------------------------------------
Compress and decompress replay every level on contiguous *parity planes*.
At stride ``s`` the stride-``s`` lattice splits into ``2**nd`` planes by
the parity of each coordinate; the plane of mask ``k`` holds the points
with parity bits ``b_j = (k >> j) & 1``.  Each plane is padded to
``ceil(n / 2)`` per axis and the planes lie back to back in one float64
level buffer; plane 0, the even points, is exactly the previous level's
lattice.  A 1d pass along ``d`` predicts the planes of masks ``[2**d,
2**(d+1))`` from those of ``[0, 2**d)``, and an md pass over the axes
``S`` the plane of mask ``sum(2**j for j in S)`` from, per axis, the
plane one bit lower.

*Rounds.*  A round is every pass that reads only earlier rounds: in md the
passes with the same number of axes (3-D: 3 + 3 + 1), in 1d each pass.
md lays its planes out by popcount, so a round's target planes are
contiguous and compress quantizes them with one
:meth:`~repro.quantizer.linear.ByteQuantizer.quantize_into` call that
writes the reconstruction straight into the level buffer; decompress adds
a round's predictions to its dequantized codes and drops in its outliers.

*Programs.*  Each ``(shape, stride, scheme, spline)`` level compiles once
into a :class:`ReplayProgram` (:func:`replay_program`, a byte-bounded LRU).
A level whose planes are small predicts a round with one *gather program*:
every target's winner terms gathered from the level buffer, weighted,
summed and averaged as a handful of whole-round operations.  A larger level
predicts each pass's axes as a *flat run*, the interior spline over the
whole target range as one left-associated weighted sum of contiguous 1-D
slices of the level buffer, shifted by rows (skipped on an axis with no
interior target), then recomputes the <= 3 boundary rows from basic slices
of the source planes and, with two or more axes, takes the plane-wide mean
and redoes the points where the axes' orders disagree (highest order
wins).

*Workspace.*  Every operand of those operations is a view of one
per-thread workspace, bound once per program and thread, so a warm call
runs a list of NumPy calls with no slicing or allocation beyond its
outputs.  The workspace is reused across calls, grown to the largest level
seen and capped at :data:`WORKSPACE_BYTES`; a call that needs more runs on
buffers of its own.  Entries that are read before this call writes them
(padding, the tail past the last plane, the planes of passes skipped along
a size-1 axis, what a flat run reads of a later round's planes) are zeroed
first, so they only ever hold finite garbage, and no padding entry is read
into a valid point.  After a level the planes interleave into the next
level's plane 0; at stride 1 decompress interleaves straight into the
output array, casting to its dtype, and compress does so only when the
caller keeps ``recon``.

*Codes.*  A level's codes are staged like its level buffer, padding 128,
and each plane moves to or from the 1-D sequence the coder reads through
one strided view (:func:`~repro.predictor.reorder.plane_geometry`: Eq. 3
order, or row-major).  A staged code 0 gives an outlier's plane, round and
slot, and a closed form its flat position, which orders the outliers.

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

import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations
from math import prod
from typing import NamedTuple

import numpy as np

from ..core.cache import ByteBudgetLRU
from ..quantizer.linear import ByteQuantizer
from .reorder import _row_strides, plane_geometry, strided_view
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
    kind_ops,
)

__all__ = [
    "LevelConfig",
    "PredictorResult",
    "InterpolationPredictor",
    "ReplayProgram",
    "ScoringProgram",
    "replay_program",
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

    codes: np.ndarray  # uint8 sequence, Eq. 3 (1-D) or data layout; 128-centered, 0 = outlier
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
    """Hit/miss counters of the scoring-program and replay-program caches
    together (surfaced in server ``/stats``)."""
    a, b = _PROGRAMS.stats(), _REPLAYS.stats()
    return {key: a[key] + b[key] for key in ("hits", "misses", "entries")}


# ---------------------------------------------------------------------------
# Replay programs: the compiled levels of compress and decompress.
# ---------------------------------------------------------------------------


def _plane_order(nd: int, scheme: str) -> tuple[int, ...]:
    """Parity masks in buffer order: by popcount for md, so that the planes
    one round predicts lie back to back, and in mask order for 1d."""
    masks = range(1 << nd)
    if scheme == "md":
        return tuple(sorted(masks, key=lambda k: (bin(k).count("1"), k)))
    return tuple(masks)


def _slabs(extent: tuple, half: tuple) -> list:
    """Basic slices of a plane's padding: per axis whose valid extent falls
    short of ``half``, the slab past it."""
    return [
        tuple(slice(e.stop, None) if j == d else slice(None) for j in range(len(half)))
        for d, (e, h) in enumerate(zip(extent, half))
        if e.stop < h
    ]


def _merge(ranges: list) -> tuple:
    """The union of half-open ``(start, stop)`` ranges, sorted."""
    out = []
    for a, b in sorted(ranges):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return tuple(out)


def _align(n: int) -> int:
    return -(-n // 64) * 64


#: workspace regions: the two level buffers (consecutive levels alternate),
#: a round's predictions and values, and one area that serves the
#: prediction temporaries and then the quantizer's, which are never live at
#: once
_REGIONS = (
    (("level0",),),
    (("level1",),),
    (("pred",),),
    (("values",),),
    (("tmp", "aux", "wins", "terms"), ("q", "qtmp", "cast", "cast64", "outlier", "flag")),
)


def _offsets(caps: dict) -> tuple[dict, int]:
    """Every region's byte offset in a workspace of ``caps``, and its size."""
    offsets, start = {}, 0
    for group in _REGIONS:
        end = start
        for phase in group:
            at = start
            for name in phase:
                offsets[name] = at
                at += _align(caps.get(name, 0))
            end = max(end, at)
        start = end
    return offsets, start


#: a level whose planes hold at most this many points replays each round as
#: one gather program; larger levels as whole-plane runs.  Warm, gathering
#: wins up to 4096 points per plane and loses at 32768, but its index and
#: weight arrays take about 190 bytes per 3-D target: at 4096 a level's
#: program holds 3.8 MB, and end to end peak RSS rose 18% and compress time
#: 20% (benchmarks/history/REPLAY_gather_threshold.json)
GATHER_PLANE = 512


@lru_cache(maxsize=None)
def _gather_tables(spline: str):
    """Per class: the row shift of each neighbor term (``-9`` where the
    class has fewer terms), their weights (1 where missing), and the factor
    applied to their sum (linear's ``(m1 + p1) * 0.5``)."""
    shifts = np.full((len(KIND_ORDER), 4), -9, dtype=np.intp)
    weights = np.ones((len(KIND_ORDER), 4))
    forms = {
        KIND_FULL: SPLINES[spline], KIND_QUAD_L: _QUAD_LEFT, KIND_QUAD_R: _QUAD_RIGHT,
        KIND_LIN: (1.0, 1.0), KIND_COPY: (1.0,),
    }
    for kind, form in forms.items():
        offsets = KIND_OFFSETS[kind]
        shifts[kind, : len(offsets)] = [(off + 1) // 2 for off in offsets]
        weights[kind, : len(form)] = form
    scales = np.where(np.arange(len(KIND_ORDER)) == KIND_LIN, 0.5, 1.0)
    return shifts, weights, scales


_NONE = np.zeros(0, dtype=np.intp)


class _Plane(NamedTuple):
    """One parity plane: basic slices of its valid extent and of its points
    in the data and the stride-``s`` lattice, its padding slabs, and its
    codes' :func:`~repro.predictor.reorder.plane_geometry` (``None`` for
    plane 0 and for a plane with no points)."""

    extent: tuple
    data: tuple
    lattice: tuple
    slabs: list
    codes: tuple | None

    def sequence(self, seq: np.ndarray, reorder: bool) -> np.ndarray:
        """The plane's codes in ``seq``, Eq. 3 or row-major, as a view."""
        counts, layouts = self.codes
        return strided_view(seq, counts, layouts[reorder])


class ReplayProgram:
    """One ``(shape, stride, scheme, spline)`` level, compiled for replay.

    The stride-``s`` lattice (shape ``n``) splits into ``2**nd`` parity
    planes, each padded to ``half = ceil(n / 2)``, back to back in one
    float64 level buffer of ``size`` elements: a tail of two axis-0 rows
    keeps the flat runs' reads in bounds, and the last element holds the
    ``-0.0`` that gather programs read for a missing term.  ``order[p]`` is
    the parity mask of the plane at position ``p``; plane 0, the previous
    level's lattice, comes first, and ``unused`` lists the positions of the
    planes no round writes (a pass along a size-1 axis has no targets).
    Per position, ``planes`` holds the plane's :class:`_Plane` and
    ``offsets`` the flat data position of its first point.

    ``rounds`` lists ``(start, stop, zero, passes, gather)``: the round
    predicts the planes ``[start, stop)``, which compress quantizes in one
    call, after zeroing the level-buffer ``zero`` ranges its flat runs read
    before any round writes them.  A level of at most :data:`GATHER_PLANE`
    points per plane predicts a round with one gather program, ``gather =
    (idx, w, f, c)`` (see :func:`_gather_round`).  Otherwise each pass is
    ``(start, stop, axes, winners)``; per interpolated axis, ``(flat, rows,
    pad)`` holds the flat run ``(lo, kind, reads)`` over 1-D ranges of the
    level buffer (``None`` without an interior run), the boundary rows
    ``(rel, kind, neighbors)`` on the plane view, and the padding slab the
    rows leave unset when there is no flat run; ``winners`` is the
    :func:`_boundary_winners` of a multi-axis pass.  ``needs`` gives the
    bytes of every workspace region the program uses but the two that hold
    values of the field's dtype, which take ``largest`` of them.  Immutable,
    hence shared freely between threads; see :func:`replay_program`.
    """

    __slots__ = (
        "stride", "spline", "slot", "half", "plane_size", "size", "order", "unused", "planes",
        "offsets", "rounds", "largest", "needs", "nbytes", "__weakref__",
    )

    def __init__(self, stride, spline, half, order, planes, rounds, size):
        self.stride = stride
        self.spline = spline
        self.slot = stride.bit_length() % 2  # consecutive levels alternate
        self.half = half
        self.plane_size = prod(half)
        self.size = size
        self.order = order
        written = {p for start, stop, *_ in rounds for p in range(start, stop)}
        self.unused = tuple(p for p in range(1, len(order)) if p not in written)
        self.planes = planes
        self.offsets = np.array([pl.codes[1][0][0] if pl.codes else 0 for pl in planes])
        self.rounds = rounds
        ps = self.plane_size
        self.largest = largest = max((stop - start for start, stop, *_ in rounds), default=0) * ps
        passes = [q for _, _, _, qs, gather in rounds if gather is None for q in qs]
        widest = max((q[1] - q[0] for q in passes), default=0) * ps
        axes = max((len(q[2]) for q in passes), default=1)
        wins = max((len(q[2]) * q[3][0].size for q in passes if q[3]), default=0)
        arrays = [a for q in passes if q[3] for a in _arrays(q[3])]
        arrays += [a for *_, gather in rounds if gather is not None for a in gather]
        self.needs = {
            f"level{self.slot}": 8 * size,
            "pred": 8 * largest, "aux": 8 * (axes - 1) * widest, "tmp": 8 * widest,
            "wins": 8 * wins, "q": 8 * largest, "qtmp": 8 * largest, "cast64": 8 * largest,
            "outlier": largest, "flag": largest,
            "terms": max((g[0].nbytes for *_, g in rounds if g is not None), default=0),
        }
        self.nbytes = 4096 + sum(a.nbytes for a in arrays)

    def zeros(self, codes: np.ndarray, shape: tuple[int, ...]):
        """Level-buffer positions (ascending) and flat positions in ``shape`` of
        the staged ``codes``' zeros; plane point ``h`` of parity ``b`` is at ``2sh + bs``."""
        if codes.all():
            return _NONE, _NONE
        k = np.flatnonzero(codes == 0)
        p, at = np.divmod(k, self.plane_size)
        flat = np.ravel_multi_index(np.unravel_index(at, self.half), shape) * (2 * self.stride)
        return k + self.plane_size, flat + self.offsets[p + 1]


def _arrays(winners):
    flat, steps, count = winners
    return [flat, count, *(m for step in steps for m in step)]


def _gather_round(start, stop, members, planes, half, kinds, spline, sentinel):
    """The gather program of one round: every target's prediction as one
    expression over level-buffer entries.

    Per target ``t`` of the round's planes and winner slot ``j`` (the
    axes reaching the highest order, in axis order), ``idx[:, j, t]`` holds
    the level-buffer positions of the winner's neighbor terms and
    ``w[:, j, t]`` their weights; ``f[j, t]`` scales their sum and
    ``c[t]`` counts the winners.  The prediction is ``((((w0*a0 + w1*a1) +
    w2*a2) + w3*a3) * f)`` per winner, the winners summed left to right and
    divided by ``c``.  Missing terms and winners read the ``-0.0`` at
    ``sentinel`` with weight 1, and ``x + -0.0``, ``x * 1.0`` and ``x / 1.0``
    are ``x`` for every float, so each target gets the very expression tree
    of its class formulas and of highest-order-wins averaging; padding
    targets get ``-0.0``.
    """
    ps = prod(half)
    row = _row_strides(half)
    size = (stop - start) * ps
    width = max(len(axes) for _, _, axes, _ in members)
    shifts, weights, scales = _gather_tables(spline)
    orders = np.array(KIND_ORDER)
    idx = np.full((4, width, size), sentinel, dtype=np.intp)
    w = np.ones((4, width, size))
    f = np.ones((width, size))
    c = np.ones(size)
    for first, m, axes, sources in members:
        for mu in range(m):
            extent = [e.stop for e in planes[first + mu][0]]
            coords = np.indices(extent).reshape(len(extent), -1)
            flat = np.asarray(np.dot(row, coords), dtype=np.intp)
            col = (first + mu - start) * ps + flat
            kind = np.stack([kinds[d][coords[d]] for d in axes])
            order = orders[kind]
            win = order == order.max(axis=0)
            slot = np.cumsum(win, axis=0) - 1
            c[col] = win.sum(axis=0)
            for a, (d, src) in enumerate(zip(axes, sources)):
                sel = np.flatnonzero(win[a])
                k, j, at = kind[a, sel], slot[a, sel], col[sel]
                sh = shifts[k]
                nb = ((src + mu) * ps + flat[sel])[:, None] + sh * row[d]
                idx[:, j, at] = np.where(sh == -9, sentinel, nb).T
                w[:, j, at] = weights[k].T
                f[j, at] = scales[k]
    used = int((idx != sentinel).any(axis=(1, 2)).sum())  # slots are filled in order
    return idx[:used].copy(), w[:used].copy(), f, c


def _build_replay_program(shape: tuple[int, ...], stride: int, scheme: str, spline: str) -> ReplayProgram:
    s = int(stride)
    nd = len(shape)
    n = tuple(len(range(0, dim, s)) for dim in shape)
    half = tuple((c + 1) // 2 for c in n)
    row = _row_strides(half)
    ps = prod(half)
    order = _plane_order(nd, scheme)
    position = {k: p for p, k in enumerate(order)}
    planes = []
    for k in order:
        bits = [(k >> j) & 1 for j in range(nd)]
        extent = tuple(slice(0, (c - b + 1) // 2) for c, b in zip(n, bits))
        data = tuple(slice(b * s, dim, 2 * s) for b, dim in zip(bits, shape))
        lattice = tuple(slice(b, c, 2) for b, c in zip(bits, n))
        codes = plane_geometry(shape, s, tuple(bits))
        codes = codes if k and all(codes[0]) else None
        planes.append(_Plane(extent, data, lattice, _slabs(extent, half), codes))
    # The flat runs read up to two rows of axis 0 past the last plane; the
    # gather programs' -0.0 comes last.
    size = len(order) * ps + 2 * max(row, default=0) + 1
    gather = ps <= GATHER_PLANE
    interior = KIND_LIN if spline == "linear" else KIND_FULL
    # Plane index i along d is the lattice target 2i+1; its neighbor at
    # offset ``off`` strides lies in the source plane at i + (off+1)//2.
    shifts = [(off + 1) // 2 for off in KIND_OFFSETS[interior]]
    segments = [axis_kind_segments(dim, s, spline) for dim in shape]
    passes = []
    for _, axes in _pass_descriptors(shape, s, scheme):
        if 0 in n or any(n[d] < 2 for d in axes):
            continue  # an empty field, or no targets along an interpolated axis
        # A 1d pass along d covers the planes [2**d, 2**(d+1)) of mask
        # order, an md pass over the axes S the plane of mask sum(2**j).
        k = sum(1 << j for j in axes)
        start = position[k]
        m = k if scheme == "1d" else 1
        sources = [position[k - (1 << d)] if scheme == "md" else 0 for d in axes]
        if gather:
            passes.append(((start, m, axes, sources), len(axes), ()))
            continue
        runs, order_runs, reads = [], [], []
        for d, src in zip(axes, sources):
            segs = segments[d]
            flat = None
            if any(kind == interior for _, _, kind in segs):
                lo = -min(shifts) * row[d]
                first, stop = src * ps + lo, (src + m) * ps
                flat = (lo, interior, tuple((first + sh * row[d], stop + sh * row[d]) for sh in shifts))
                reads.append((first + min(shifts) * row[d], stop + max(shifts) * row[d]))
            rows, orders = [], []
            for i0, i1, kind in segs:
                rel = (slice(None),) + tuple(
                    slice(i0, i1) if j == d else slice(None) for j in range(nd)
                )
                orders.append((rel, kind, None))
                if flat and kind == interior:
                    continue
                nbs = []
                for off in KIND_OFFSETS[kind]:
                    sh = (off + 1) // 2
                    nbs.append((slice(src, src + m),) + tuple(
                        slice(i0 + sh, i1 + sh) if j == d else slice(None) for j in range(nd)
                    ))
                rows.append((rel, kind, tuple(nbs)))
            pad = None
            if flat is None and segs[-1][1] < half[d]:
                pad = (slice(None),) + tuple(
                    slice(segs[-1][1], None) if j == d else slice(None) for j in range(nd)
                )
            runs.append((flat, tuple(rows), pad))
            order_runs.append(tuple(orders))
        winners = None
        if len(axes) > 1:
            winners = _boundary_winners(tuple(order_runs), tuple(d + 1 for d in axes), (1,) + half)
        passes.append(((start, start + m, tuple(runs), winners), len(axes), tuple(reads)))
    # Rounds: every pass that reads only earlier rounds.  In md those are
    # the passes with one number of axes, whose planes are adjacent; a
    # skipped pass splits them.  In 1d every pass is its own round.
    rounds = []
    for p, count, reads in passes:
        lo, hi = (p[0], p[0] + p[1]) if gather else p[:2]
        last = rounds[-1] if rounds else None
        if last and scheme == "md" and last[0] == count and last[2] == lo:
            last[2] = hi
            last[4].append(p)
            last[3].extend(reads)
        else:
            rounds.append([count, lo, hi, list(reads), [p]])
    kinds = None
    if gather:
        kinds = []
        for segs in segments:
            kind = np.zeros(segs[-1][1] if segs else 0, dtype=np.intp)
            for i0, i1, k in segs:
                kind[i0:i1] = k
            kinds.append(kind)
    compiled = []
    for _, start, stop, reads, members in rounds:
        if gather:
            program = _gather_round(start, stop, members, planes, half, kinds, spline, size - 1)
            members = [(first, first + m, None, None) for first, m, _, _ in members]
            compiled.append((start, stop, (), tuple(members), program))
            continue
        # What this round's flat runs read of planes no round wrote yet
        unwritten = [(max(a, start * ps), b) for a, b in reads if b > start * ps]
        compiled.append((start, stop, _merge(unwritten), tuple(members), None))
    return ReplayProgram(s, spline, half, order, tuple(planes), tuple(compiled), size)


#: byte bound of the replay-program cache: a program holds its winner
#: indices, a few kB below 64³
REPLAY_CACHE_BYTES = 16 << 20

_REPLAYS = ByteBudgetLRU(REPLAY_CACHE_BYTES)


def replay_program(shape: tuple[int, ...], stride: int, scheme: str, spline: str) -> ReplayProgram:
    """Memoized :class:`ReplayProgram` of one (shape, stride, scheme, spline)
    level, held in a byte-bounded LRU (:data:`REPLAY_CACHE_BYTES`)."""
    key = (tuple(int(d) for d in shape), int(stride), scheme, spline)
    program = _REPLAYS.get(key)
    if program is None:
        program = _build_replay_program(*key)
        _REPLAYS.put(key, program, program.nbytes)
    return program


class _Bound:
    """A program's operations over one workspace: every operand a view."""

    __slots__ = (
        "planes", "plane0", "tail", "unused", "rest", "rounds", "interleave",
    )


class _Scratch(dict):
    """The quantizer's scratch operands of one round, keyed by name."""

    def get(self, key, shape=None, dtype=None):
        return self[key]


#: byte cap of one thread's retained workspace; a call that needs more runs
#: on buffers of its own, released when it returns
WORKSPACE_BYTES = 32 << 20

#: bound programs a workspace keeps
_BINDINGS = 64


class _Workspace:
    """One thread's replay buffers, reused across calls.

    Every region is grown to the largest need seen while the total stays
    within :data:`WORKSPACE_BYTES`; growing drops the bindings, whose views
    point into the old buffer.  Bindings are keyed weakly by program, so a
    program that leaves the :func:`replay_program` cache takes its bindings
    (and the program arrays their operations hold) with it.  Not
    thread-safe: one per thread.
    """

    def __init__(self, caps: dict):
        self.caps = caps
        self.offsets, size = _offsets(caps)
        self.buf = np.empty(size, dtype=np.uint8)
        self.bound = weakref.WeakKeyDictionary()  # program -> {dtype: _Bound}

    @property
    def nbytes(self) -> int:
        return self.buf.nbytes

    def view(self, name, dtype, count, first=0):
        dtype = np.dtype(dtype)
        start = self.offsets[name] + first * dtype.itemsize
        return self.buf[start : start + count * dtype.itemsize].view(dtype)

    def bind(self, program: ReplayProgram, dtype) -> _Bound:
        dtype = np.dtype(dtype)
        by_dtype = self.bound.pop(program, None) or {}
        bound = by_dtype.get(dtype)
        if bound is None:
            bound = by_dtype[dtype] = _bind(program, self, dtype)
            if len(self.bound) >= _BINDINGS:
                del self.bound[next(iter(self.bound))]
        self.bound[program] = by_dtype
        return bound


_LOCAL = threading.local()


def _workspace(programs, dtype) -> _Workspace:
    """The calling thread's workspace, grown to fit ``programs`` on a field
    of ``dtype``, or a workspace of the call's own when that would pass the
    cap."""
    need = {}
    for program in programs:
        values = program.largest * np.dtype(dtype).itemsize
        for name, n in (*program.needs.items(), ("values", values), ("cast", values)):
            need[name] = max(need.get(name, 0), n)
    ws = getattr(_LOCAL, "workspace", None)
    if ws is not None and all(ws.caps.get(name, 0) >= n for name, n in need.items()):
        return ws
    caps = dict(ws.caps) if ws is not None else {}
    for name, n in need.items():
        caps[name] = max(caps.get(name, 0), n)
    if _offsets(caps)[1] > WORKSPACE_BYTES:
        if _offsets(need)[1] > WORKSPACE_BYTES:
            return _Workspace(need)  # not retained
        caps = need  # start over rather than pass the cap
    _LOCAL.workspace = grown = _Workspace(caps)
    return grown


def _bind(program: ReplayProgram, ws: _Workspace, dtype: np.dtype) -> _Bound:
    half, ps = program.half, program.plane_size
    spline = program.spline
    nplanes = len(program.order)
    level = ws.view(f"level{program.slot}", np.float64, program.size)
    planes = level[: nplanes * ps].reshape((nplanes,) + half)
    b = _Bound()
    b.planes = planes
    b.plane0 = planes[(0, Ellipsis)]
    b.tail = level[nplanes * ps :]  # read by flat runs, and the -0.0 last
    b.unused = [planes[p] for p in program.unused]  # read by flat runs, never written
    b.rest = planes[1:]
    b.interleave = [(pl.lattice, planes[(p, *pl.extent, Ellipsis)]) for p, pl in enumerate(program.planes)]
    b.rounds = []
    for start, stop, zero, passes, gather in program.rounds:
        shape = (stop - start,) + half
        count = prod(shape)
        pred = ws.view("pred", np.float64, count).reshape(shape)
        ops = [] if gather is None else _gather_ops(gather, level, pred, ws)
        for first, last, runs, winners in passes if gather is None else ():
            pshape = (last - first,) + half
            size = prod(pshape)
            preds = []
            for i, (flat, rows, pad) in enumerate(runs):
                if i:
                    out = ws.view("aux", np.float64, size, (i - 1) * size).reshape(pshape)
                else:
                    out = pred[first - start : last - start]
                if flat is not None:
                    lo, kind, reads = flat
                    o = out.reshape(-1)[lo:]
                    ops += kind_ops(kind, spline, [level[a:z] for a, z in reads], o,
                                    ws.view("tmp", np.float64, o.size))
                for rel, kind, nbs in rows:
                    o = out[rel]
                    tmp = ws.view("tmp", np.float64, o.size).reshape(o.shape)
                    ops += kind_ops(kind, spline, [planes[sl] for sl in nbs], o, tmp)
                if pad is not None:
                    ops.append((out[pad].fill, (0.0,)))
                preds.append(out)
            if winners is not None:
                ops += _winner_ops(preds, winners, ws)
        values = ws.view("values", dtype, count).reshape(shape)
        scratch = _Scratch(
            quant_q=ws.view("q", np.float64, count).reshape(shape),
            quant_tmp=ws.view("qtmp", np.float64, count).reshape(shape),
            quant_cast=ws.view("cast", dtype, count).reshape(shape),
            quant_cast64=ws.view("cast64", np.float64, count).reshape(shape),
            quant_outlier=ws.view("outlier", np.bool_, count).reshape(shape),
            quant_flag=ws.view("flag", np.bool_, count).reshape(shape),
        )
        # the round's codes, and each plane's, in the level's staged codes
        codes = slice(start - 1, stop - 1)
        io = [
            (pl, values[p - start][pl.extent], (p - 1, *pl.extent))
            for p, pl in enumerate(program.planes[start:stop], start)
            if pl.codes
        ]
        # zero values over zero predictions: padding codes are 128
        pads = [a[p - start][slab] for p in range(start, stop) for slab in program.planes[p].slabs
                for a in (values, pred)]
        zeros = [level[a:z] for a, z in zero]
        b.rounds.append((ops, pred, planes[start:stop], zeros, values, codes, scratch, io, pads))
    return b


def _gather_ops(gather: tuple, level: np.ndarray, pred: np.ndarray, ws: _Workspace) -> list:
    """The operations of a :func:`_gather_round` program, into ``pred``."""
    idx, w, f, c = gather
    terms = ws.view("terms", np.float64, idx.size).reshape(idx.shape)
    ops = [(np.take, (level, idx, None, terms, "clip")), (np.multiply, (terms, w, terms))]
    acc = terms[0]
    ops += [(np.add, (acc, t, acc)) for t in terms[1:]]
    if (f != 1.0).any():
        ops.append((np.multiply, (acc, f, acc)))
    ops += [(np.add, (acc[0], a, acc[0])) for a in acc[1:]]
    ops.append((np.divide, (acc[0], c, pred.reshape(-1))))
    return ops


def _winner_ops(preds: list, winners: tuple, ws: _Workspace) -> list:
    """Highest-order-wins averaging of per-axis predictions into ``preds[0]``.

    ``preds`` holds one prediction per interpolated axis, in axis order, and
    ``winners`` is the pass's :func:`_boundary_winners`.  The boundary points
    are gathered first; every axis wins wherever the orders agree, so the
    plane-wide mean ``((p0 + p1) + ...) / k`` is the answer there.  The
    gathered points are then redone: the first winner's prediction copied (a
    zero accumulator would turn ``-0.0`` into ``+0.0``), later winners added
    left to right, the sum divided by the winner count, and scattered back.
    Losing axes never reach those points, so their non-finite values cannot
    leak.
    """
    flat, steps, count = winners
    vals = [ws.view("wins", np.float64, flat.size, i * flat.size).reshape(flat.shape)
            for i in range(len(preds))]
    out = preds[0]
    ops = [(np.take, (p.reshape(-1), flat, None, v, "clip")) for p, v in zip(preds, vals)]
    ops.append((np.add, (out, preds[1], out)))
    ops += [(np.add, (out, p, out)) for p in preds[2:]]
    ops.append((np.divide, (out, float(len(preds)), out)))
    acc = vals[0]
    for val, (first, later) in zip(vals[1:], steps):
        ops.append((np.copyto, (acc, val, "same_kind", first)))
        ops.append((partial(np.add, where=later), (acc, val, acc)))
    ops.append((np.divide, (acc, count, acc)))
    ops.append((np.put, (out.reshape(-1), flat, acc)))
    return ops


def _run(ops) -> None:
    for f, args in ops:
        f(*args)


def _interleave(bound: _Bound, out: np.ndarray) -> None:
    """Scatter a finished level's planes into its lattice ``out`` (the next
    level's plane 0, or the field itself at stride 1), casting to its dtype."""
    for lattice, src in bound.interleave:
        out[lattice] = src


def _staged(programs) -> list:
    """Per level, a buffer of 128s laid out like its level buffer past plane 0."""
    shapes = [(len(g.order) - 1,) + g.half for g in programs]
    buf = np.full(sum(prod(s) for s in shapes), 128, dtype=np.uint8)
    return _carve(buf, *shapes)


def _outlier_puts(programs, staged, seq, shape, values, anchor_stride, reorder) -> list:
    """Per level, its outliers' level-buffer positions, ascending, and float64
    values, which the segment holds in flat scan order.  A zero in an anchor
    slot counts against the segment; its value is dropped."""
    n, held = seq.size - np.count_nonzero(seq), np.size(values)
    if held != n:
        raise ValueError(f"the outliers segment holds {held} values but the codes mark {n} outliers")
    found = [g.zeros(c, shape) if n else (_NONE, _NONE) for g, c in zip(programs, staged)]
    if not n:
        return found
    extent, layouts = plane_geometry(shape, anchor_stride // 2, (0,) * len(shape))
    k = np.flatnonzero(strided_view(seq, extent, layouts[reorder]) == 0)
    # the anchor grid's data coordinates; a 0-d field is one point
    anchor = [c * anchor_stride for c in np.unravel_index(k, extent or (1,))]
    flat = [f for _, f in found] + [np.ravel_multi_index(anchor, shape or (1,))]
    exact = np.empty(n)
    exact[np.argsort(np.concatenate(flat))] = values
    ends = np.cumsum([slots.size for slots, _ in found]).tolist()
    return [(slots, exact[end - slots.size : end]) for (slots, _), end in zip(found, ends)]


class InterpolationPredictor:
    """Anchor-grid + hierarchical spline predictor with byte quantization.

    Holds only the anchor stride: the compiled levels are shared through
    :func:`replay_program` and the buffers are per thread, so one instance
    serves any number of calls and threads.
    """

    def __init__(self, anchor_stride: int = 16):
        self.anchor_stride = anchor_stride

    def _programs(self, shape: tuple[int, ...], configs) -> list[ReplayProgram]:
        """The :class:`ReplayProgram` of every level, coarse to fine."""
        out = []
        for s in level_strides(self.anchor_stride):
            cfg = configs.get(s, LevelConfig())
            out.append(replay_program(shape, s, cfg.scheme, cfg.spline))
        return out

    # ------------------------------------------------------------ compress
    def compress(
        self,
        data: np.ndarray,
        eb: float,
        level_configs: dict[int, LevelConfig] | None = None,
        keep_recon: bool = True,
        reorder: bool = False,
    ) -> PredictorResult:
        """Decompose ``data`` into quantization codes under absolute bound ``eb``.

        ``level_configs`` maps stride -> :class:`LevelConfig`; missing levels
        default to the md/cubic configuration.  With ``keep_recon=False`` the
        result's ``recon`` is ``None`` and the last interleave is skipped.
        The codes are written straight into the sequence the lossless stage
        reads: the Eq. 3 level order with ``reorder``, else row-major.
        """
        if eb <= 0:
            raise ValueError("error bound must be positive")
        data = np.asarray(data)
        shape = data.shape
        dtype = data.dtype
        seq = np.full(data.size, 128, dtype=np.uint8)  # the anchor slots stay 128
        strides = level_strides(self.anchor_stride)
        configs = {s: (level_configs or {}).get(s, LevelConfig()) for s in strides}

        # Always a copy (never ascontiguousarray): a size-1 anchor grid is a
        # trivially contiguous *view* of the input, and the zero-copy
        # container would then alias the caller's buffer through the blob.
        anchors = data[tuple(slice(0, dim, self.anchor_stride) for dim in shape)].copy()

        quantizer = ByteQuantizer(eb)
        programs = self._programs(shape, configs)
        ws = _workspace(programs, dtype)
        bound = [ws.bind(p, dtype) for p in programs]
        bound[0].plane0[...] = anchors  # exact float64 embedding of the raw anchors
        staged = _staged(programs)
        recon = None
        for i, (b, level) in enumerate(zip(bound, staged)):
            b.tail.fill(0.0)
            b.tail[-1] = -0.0
            for v in b.unused:
                v.fill(0.0)
            for ops, pred, target, zeros, values, cplanes, scratch, io, pads in b.rounds:
                for v in zeros:  # what the flat runs read before it is written
                    v.fill(0.0)
                _run(ops)
                for v in pads:  # finite garbage, and zero over zero quantizes to 128
                    v.fill(0.0)
                for plane, v, _ in io:
                    np.copyto(v, data[plane.data])
                quantizer.quantize_into(values, pred, dtype, scratch, level[cplanes], out=target)
                for plane, _, at in io:
                    np.copyto(plane.sequence(seq, reorder), level[at])
            if i + 1 < len(programs):
                _interleave(b, bound[i + 1].plane0)
            elif keep_recon:
                recon = np.empty(shape, dtype=dtype)
                _interleave(b, recon)

        # Every code 0 is an outlier; their values go in flat scan order.
        out_pos = np.sort(np.concatenate([g.zeros(c, shape)[1] for g, c in zip(programs, staged)]))
        return PredictorResult(
            codes=seq if reorder else seq.reshape(shape),
            anchors=anchors,
            outlier_values=data.reshape(-1)[out_pos],
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
        reorder: bool = False,
    ) -> np.ndarray:
        """Replay the prediction rounds and rebuild the field exactly from
        ``codes``, the sequence :meth:`compress` wrote in the same order."""
        shape = tuple(shape)
        seq = np.ascontiguousarray(codes, dtype=np.uint8).reshape(-1)
        if seq.size != prod(shape):
            raise ValueError(
                f"the code sequence holds {seq.size} codes for a field of {prod(shape)} points"
            )
        twoeb = 2.0 * eb
        programs = self._programs(shape, level_configs)
        staged = _staged(programs)
        for g, level in zip(programs, staged):
            for p, plane in enumerate(g.planes[1:]):
                if plane.codes:
                    np.copyto(level[(p, *plane.extent)], plane.sequence(seq, reorder))
        puts = _outlier_puts(
            programs, staged, seq, shape, outlier_values, self.anchor_stride, reorder
        )
        ws = _workspace(programs, dtype)
        bound = [ws.bind(p, dtype) for p in programs]
        bound[0].plane0[...] = anchors
        for i, (g, b, level, (slots, exact)) in enumerate(zip(programs, bound, staged, puts)):
            b.tail.fill(0.0)
            b.tail[-1] = -0.0
            # Every target plane starts as its dequantized codes, exact for
            # every byte; padding, staged as 128, becomes 0.0.
            np.subtract(level, 128.0, out=b.rest)
            np.multiply(b.rest, twoeb, out=b.rest)
            for (ops, pred, target, *_), (_, stop, *_) in zip(b.rounds, g.rounds):
                _run(ops)
                np.add(pred, target, out=target)
                if slots.size:  # the outliers of this round and the ones before
                    done = np.searchsorted(slots, stop * g.plane_size)
                    np.put(b.planes, slots[:done], exact[:done])
            if i + 1 < len(programs):
                _interleave(b, bound[i + 1].plane0)
        out = np.empty(shape, dtype=dtype)
        _interleave(b, out)  # the stride-1 lattice is the field
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

"""Test-only oracles for the interpolation predictor.

Earlier formulations of the same arithmetic, kept out of ``src/`` with
their own copies of the helpers they need (``ScratchPool``,
``predict_kind_into``):

* :func:`predict_block` — the mask-based highest-order-wins prediction of
  one pass over an ``np.ix_`` open mesh (the original reference path).
* :class:`SubBlockPredictor` — the boundary-class sub-block path: every pass
  split into the product of its per-axis class runs, one spline formula per
  sub-block, quantized per sub-block.  Its codes, outliers, reconstructions
  and ``pass_error`` scores are the bytes the whole-pass path must reproduce.
* :func:`axis_kind_segments_loop` and :func:`level_of_coordinates_loop` —
  the per-target geometry builders that the closed-form ones replaced.
* :func:`sequence_index` — Eq. 3 evaluated per point, the oracle of the
  per-plane views the predictor writes its code sequence through.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from repro.predictor.autotune import CANDIDATES, sample_blocks
from repro.predictor.interpolation import LevelConfig, level_strides
from repro.predictor.splines import (
    _QUAD_LEFT,
    _QUAD_RIGHT,
    KIND_COPY,
    KIND_FULL,
    KIND_LIN,
    KIND_OFFSETS,
    KIND_ORDER,
    KIND_QUAD_L,
    KIND_QUAD_R,
    SPLINES,
    axis_kind_segments,
    axis_predict,
)
from repro.quantizer.linear import ByteQuantizer


class ScratchPool:
    """Reusable flat buffers handed out as shaped views, keyed by name and
    grown to the largest shape requested.  Not thread-safe."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        n = int(np.prod(shape))
        buf = self._buffers.get(key)
        if buf is None or buf.dtype != dtype or buf.size < n:
            dtype = np.dtype(dtype)
            size = n if buf is None or buf.dtype != dtype else max(n, buf.size)
            buf = np.empty(size, dtype=dtype)
            self._buffers[key] = buf
        return buf[:n].reshape(shape)


def _weighted_sum(terms, out, tmp):
    """Left-associated ``w0*a0 + w1*a1 + ...`` into ``out``."""
    w0, a0 = terms[0]
    np.multiply(a0, w0, out=out)
    for w, a in terms[1:]:
        np.multiply(a, w, out=tmp)
        np.add(out, tmp, out=out)


def predict_kind_into(R, kind, nb_slices, spline, out, tmp):
    """One-class prediction of a run of targets from basic slices of ``R``."""
    views = [R[sl] for sl in nb_slices]
    if kind == KIND_FULL:
        _weighted_sum(list(zip(SPLINES[spline], views)), out, tmp)
    elif kind == KIND_QUAD_L:
        _weighted_sum(list(zip(_QUAD_LEFT, views)), out, tmp)
    elif kind == KIND_QUAD_R:
        _weighted_sum(list(zip(_QUAD_RIGHT, views)), out, tmp)
    elif kind == KIND_LIN:
        m1, p1 = views
        np.add(m1, p1, out=out)
        np.multiply(out, 0.5, out=out)
    else:
        np.copyto(out, views[0])


def predict_block(
    R: np.ndarray, vectors: list[np.ndarray], axes: tuple[int, ...], s: int, spline: str
) -> np.ndarray:
    """Reference combined prediction for one pass (highest-order-wins)."""
    if len(axes) == 1:
        pred, _ = axis_predict(R, axes[0], vectors, s, spline)
        return pred
    preds = []
    orders = []
    for d in axes:
        p, o = axis_predict(R, d, vectors, s, spline)
        preds.append(p)
        orders.append(np.broadcast_to(o, p.shape))
    P = np.stack(preds)
    O = np.stack(orders)
    max_order = O.max(axis=0)
    W = O == max_order
    return (P * W).sum(axis=0) / W.sum(axis=0)


# ---------------------------------------------------------------------------
# The sub-block path: one fused formula per constant-boundary-class region.
# ---------------------------------------------------------------------------


class _SubBlock:
    __slots__ = ("slices", "shape", "rel_slices", "preds", "n_winners")

    def __init__(self, slices, shape, rel_slices, preds):
        self.slices = slices
        self.shape = shape
        self.rel_slices = rel_slices
        self.preds = preds
        self.n_winners = len(preds)


def _descriptors(shape, s, scheme):
    nd = len(shape)
    if scheme == "1d":
        for d in range(nd):
            yield [((0, s) if j < d else (s, 2 * s) if j == d else (0, 2 * s)) for j in range(nd)], (d,)
    else:
        for k in range(1, nd + 1):
            for S in combinations(range(nd), k):
                yield [((s, 2 * s) if j in S else (0, 2 * s)) for j in range(nd)], S


@lru_cache(maxsize=None)
def build_passes(shape, s, scheme, spline):
    """``[(block_shape, sub_blocks), ...]`` for every non-empty pass (cached,
    as the plans of that path were)."""
    passes = []
    for descr, axes in _descriptors(shape, s, scheme):
        counts = [len(range(start, dim, step)) for (start, step), dim in zip(descr, shape)]
        if any(c == 0 for c in counts):
            continue
        base_slices = [slice(start, dim, step) for (start, step), dim in zip(descr, shape)]
        seg_lists = [axis_kind_segments(shape[d], s, spline) for d in axes]
        sub_blocks = []
        for combo in product(*seg_lists):
            orders = [KIND_ORDER[kind] for (_, _, kind) in combo]
            max_order = max(orders)
            slices = list(base_slices)
            sub_shape = list(counts)
            rel = [slice(None)] * len(shape)
            for d, (i0, i1, _) in zip(axes, combo):
                slices[d] = slice(s + 2 * s * i0, s + 2 * s * (i1 - 1) + 1, 2 * s)
                sub_shape[d] = i1 - i0
                rel[d] = slice(i0, i1)
            preds = []
            for d, (_, _, kind), order in zip(axes, combo, orders):
                if order != max_order:
                    continue
                neighbors = []
                for off in KIND_OFFSETS[kind]:
                    nsl = list(slices)
                    tsl = slices[d]
                    nsl[d] = slice(tsl.start + off * s, tsl.stop + off * s, tsl.step)
                    neighbors.append(tuple(nsl))
                preds.append((d, kind, tuple(neighbors)))
            sub_blocks.append(_SubBlock(tuple(slices), tuple(sub_shape), tuple(rel), tuple(preds)))
        passes.append((tuple(counts), tuple(sub_blocks)))
    return passes


def _predict_sub(R, sb, spline, scratch):
    acc = scratch.get("pred_acc", sb.shape)
    tmp = scratch.get("pred_tmp", sb.shape)
    _, kind0, neighbors0 = sb.preds[0]
    predict_kind_into(R, kind0, neighbors0, spline, out=acc, tmp=tmp)
    if sb.n_winners > 1:
        alt = scratch.get("pred_alt", sb.shape)
        for _, kind, neighbors in sb.preds[1:]:
            predict_kind_into(R, kind, neighbors, spline, out=alt, tmp=tmp)
            np.add(acc, alt, out=acc)
        np.divide(acc, float(sb.n_winners), out=acc)
    return acc


def _row_strides(shape):
    out = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        out[d] = out[d + 1] * shape[d + 1]
    return tuple(out)


class SubBlockPredictor:
    """The sub-block compress / decompress / ``pass_error`` loops."""

    def __init__(self, anchor_stride: int = 16):
        self.anchor_stride = anchor_stride
        self._scratch = ScratchPool()

    def compress(self, data, eb, level_configs=None):
        """``(codes, anchors, outlier_values, recon)`` of ``data``."""
        data = np.asarray(data)
        shape, dtype = data.shape, data.dtype
        R = np.zeros(shape, dtype=np.float64)
        codes = np.full(shape, 128, dtype=np.uint8)
        strides = level_strides(self.anchor_stride)
        configs = {s: (level_configs or {}).get(s, LevelConfig()) for s in strides}
        aslices = tuple(slice(0, dim, self.anchor_stride) for dim in shape)
        anchors = data[aslices].copy()
        R[aslices] = anchors
        quantizer = ByteQuantizer(eb)
        scratch = self._scratch
        for s in strides:
            cfg = configs[s]
            for _, sub_blocks in build_passes(tuple(shape), s, cfg.scheme, cfg.spline):
                for sb in sub_blocks:
                    pred = _predict_sub(R, sb, cfg.spline, scratch)
                    recon = quantizer.quantize_into(
                        data[sb.slices], pred, dtype, scratch, codes[sb.slices]
                    )
                    R[sb.slices] = recon
        out_pos = np.flatnonzero(codes.reshape(-1) == 0)
        outlier_values = data.reshape(-1)[out_pos].copy()
        return codes, anchors, outlier_values, R.astype(dtype)

    def decompress(self, codes, anchors, outlier_values, shape, eb, level_configs, dtype):
        R = np.zeros(shape, dtype=np.float64)
        R[tuple(slice(0, dim, self.anchor_stride) for dim in shape)] = anchors
        out_pos = np.flatnonzero(codes.reshape(-1) == 0)
        outlier_values = np.asarray(outlier_values)
        row_strides = _row_strides(tuple(shape))
        twoeb = 2.0 * eb
        scratch = self._scratch
        for s in level_strides(self.anchor_stride):
            cfg = level_configs.get(s, LevelConfig())
            for _, sub_blocks in build_passes(tuple(shape), s, cfg.scheme, cfg.spline):
                for sb in sub_blocks:
                    pred = _predict_sub(R, sb, cfg.spline, scratch)
                    byte = codes[sb.slices]
                    q = scratch.get("quant_q", sb.shape)
                    np.copyto(q, byte)
                    np.subtract(q, 128.0, out=q)
                    recon = scratch.get("quant_recon", sb.shape)
                    np.multiply(q, twoeb, out=recon)
                    np.add(pred, recon, out=recon)
                    omask = scratch.get("quant_outlier", sb.shape, np.bool_)
                    np.equal(byte, 0, out=omask)
                    if omask.any():
                        midx = np.nonzero(omask)
                        flat = None
                        for d, sl in enumerate(sb.slices):
                            coords = np.arange(sl.start, sl.stop, sl.step, dtype=np.int64)
                            contrib = coords[midx[d]] * row_strides[d]
                            flat = contrib if flat is None else flat + contrib
                        vidx = np.searchsorted(out_pos, flat)
                        recon[midx] = outlier_values[vidx].astype(np.float64)
                    R[sb.slices] = recon
        return R.astype(dtype)

    def pass_error(self, X, stride, config):
        Xf = X.astype(np.float64, copy=False)
        scratch = self._scratch
        total = 0.0
        for block_shape, sub_blocks in build_passes(
            X.shape, stride, config.scheme, config.spline
        ):
            diff = scratch.get("pass_diff", block_shape)
            for sb in sub_blocks:
                pred = _predict_sub(Xf, sb, config.spline, scratch)
                view = diff[sb.rel_slices]
                np.subtract(Xf[sb.slices], pred, out=view)
                np.abs(view, out=view)
            total += float(diff.sum())
        return total


def candidate_scores(data, anchor_stride, candidates=CANDIDATES, target_fraction=0.002, seed=0):
    """``{stride: [score per candidate]}`` from the sub-block ``pass_error``."""
    predictor = SubBlockPredictor(anchor_stride)
    blocks = sample_blocks(
        data, block_side=2 * anchor_stride + 1, target_fraction=target_fraction, seed=seed
    )
    scores = {}
    for s in level_strides(anchor_stride):
        errs = []
        for cfg in candidates:
            err = 0.0
            for blk in blocks:
                err += predictor.pass_error(blk, s, cfg)
            errs.append(err)
        scores[s] = errs
    return scores


def autotune_choices(data, anchor_stride, candidates=CANDIDATES, target_fraction=0.002, seed=0):
    """The sub-block auto-tuner's ``{stride: LevelConfig}`` choice."""
    chosen = {}
    for s, errs in candidate_scores(data, anchor_stride, candidates, target_fraction, seed).items():
        best_cfg, best_err = candidates[0], np.inf
        for cfg, err in zip(candidates, errs):
            if err < best_err:
                best_err, best_cfg = err, cfg
        chosen[s] = best_cfg
    return chosen


# ---------------------------------------------------------------------------
# Per-target geometry builders: the loops the closed-form builders replaced.
# ---------------------------------------------------------------------------


def axis_kind_segments_loop(dim: int, stride: int, spline: str) -> list[tuple[int, int, int]]:
    """Class runs of the targets ``stride, 3*stride, ...``, by classifying
    every target and walking the class vector one target at a time."""
    s = int(stride)
    t = np.arange(s, dim, 2 * s)
    if t.size == 0:
        return []
    has_p1 = (t + s) <= dim - 1
    if spline == "linear":
        kind = np.where(has_p1, KIND_LIN, KIND_COPY)
    else:
        has_m3 = (t - 3 * s) >= 0
        has_p3 = (t + 3 * s) <= dim - 1
        full = has_m3 & has_p3 & has_p1
        quad_l = has_m3 & has_p1 & ~has_p3
        quad_r = ~has_m3 & has_p1 & has_p3
        lin = has_p1 & ~(full | quad_l | quad_r)
        kind = np.full(t.size, KIND_COPY, dtype=np.int64)
        kind[lin] = KIND_LIN
        kind[quad_r] = KIND_QUAD_R
        kind[quad_l] = KIND_QUAD_L
        kind[full] = KIND_FULL
    segments = []
    start = 0
    for i in range(1, t.size + 1):
        if i == t.size or kind[i] != kind[start]:
            segments.append((start, i, int(kind[start])))
            start = i
    return segments


def level_of_coordinates_loop(shape: tuple[int, ...], anchor_stride: int) -> np.ndarray:
    """Per-point interpolation level, one divisibility mask per level."""
    max_level = int(np.log2(anchor_stride))
    level = np.full(shape, max_level, dtype=np.int8)
    for d, dim in enumerate(shape):
        coords = np.arange(dim, dtype=np.int64)
        tz = np.full(dim, max_level, dtype=np.int8)
        for l in range(max_level - 1, -1, -1):
            tz[(coords % (1 << (l + 1))) != 0] = l
        view = [1] * len(shape)
        view[d] = dim
        np.minimum(level, tz.reshape(view), out=level)
    return level


def sequence_index(
    coords: tuple[np.ndarray, ...], shape: tuple[int, ...], anchor_stride: int
) -> np.ndarray:
    """Closed-form Eq. 3: map grid coordinates to 1-D sequence positions.

    This is the arithmetic the GPU kernel evaluates per element — no sort, no
    gather.  For a point at level ``l`` the index decomposes into

    ``prefix(l)``
        the population of every coarser level = the size of the stride
        ``2^(l+1)`` grid (the paper's Eq. 4 ``f``-recurrences compute these
        grid sizes by repeated halving), and
    ``rank(l)``
        the number of level-``l`` points preceding the coordinate in
        row-major order, obtained by inclusion-exclusion between the stride
        ``2^l`` and stride ``2^(l+1)`` grids.

    The per-point form of the arithmetic; ``repro.predictor.reorder``
    reaches the same positions plane by plane through
    :func:`~repro.predictor.reorder.plane_geometry`, and the tests check
    that the two agree everywhere.
    """
    nd = len(shape)
    L = int(np.log2(anchor_stride))
    cs = [np.asarray(c, dtype=np.int64) for c in coords]

    def grid_count(m: int, d: int) -> int:
        # multiples of m in [0, d)
        return (d + m - 1) // m

    def grid_size(m: int) -> int:
        n = 1
        for d in shape:
            n *= grid_count(m, d)
        return n

    level = np.full(cs[0].shape, L, dtype=np.int64)
    for axis in range(nd):
        tz = np.full(cs[axis].shape, L, dtype=np.int64)
        for l in range(L - 1, -1, -1):
            tz[(cs[axis] % (1 << (l + 1))) != 0] = l
        np.minimum(level, tz, out=level)

    out = np.zeros(cs[0].shape, dtype=np.int64)
    for l in range(L, -1, -1):
        sel = level == l
        if not sel.any():
            continue
        pts = tuple(c[sel] for c in cs)
        m = 1 << l
        if l == L:
            prefix = 0
            rank = _count_prec_for(pts, shape, m)
        else:
            m2 = m << 1
            prefix = grid_size(m2)
            rank = _count_prec_for(pts, shape, m) - _count_prec_for(pts, shape, m2)
        out[sel] = prefix + rank
    return out


def _count_prec_for(
    pts: tuple[np.ndarray, ...], shape: tuple[int, ...], m: int
) -> np.ndarray:
    """Count stride-``m`` grid points strictly preceding each point row-major."""
    nd = len(shape)
    total = np.zeros(pts[0].shape, dtype=np.int64)
    exact = np.ones(pts[0].shape, dtype=bool)
    for axis in range(nd):
        tail = 1
        for d in shape[axis + 1 :]:
            tail *= (d + m - 1) // m
        smaller = (pts[axis] + m - 1) // m
        total += np.where(exact, smaller * tail, 0)
        exact = exact & (pts[axis] % m == 0)
    return total

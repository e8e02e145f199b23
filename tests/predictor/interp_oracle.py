"""Test-only oracles for the interpolation predictor.

Two earlier formulations of the same arithmetic, kept out of ``src/``:

* :func:`predict_block` — the mask-based highest-order-wins prediction of
  one pass over an ``np.ix_`` open mesh (the original reference path).
* :class:`SubBlockPredictor` — the boundary-class sub-block path: every pass
  split into the product of its per-axis class runs, one spline formula per
  sub-block, quantized per sub-block.  Its codes, outliers, reconstructions
  and ``pass_error`` scores are the bytes the whole-pass path must reproduce.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from repro.predictor.autotune import CANDIDATES, sample_blocks
from repro.predictor.interpolation import (
    LevelConfig,
    ScratchPool,
    level_strides,
)
from repro.predictor.splines import (
    KIND_OFFSETS,
    KIND_ORDER,
    axis_kind_segments,
    axis_predict,
    predict_kind_into,
)
from repro.quantizer.linear import ByteQuantizer


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

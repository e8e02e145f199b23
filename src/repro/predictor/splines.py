"""Spline interpolation kernels for the cuSZ-Hi data predictor (paper §5.1).

A prediction pass fills the mid-points of a stride-``2s`` grid along one axis
using the already-reconstructed values at ``t-3s, t-s, t+s, t+3s``.  Three
spline families are selectable per level by the auto-tuner (§5.1.3):

``linear``
    ``(v[-s] + v[+s]) / 2`` — robust on noisy data.
``cubic``
    the SZ3 4-point cubic ``(-1, 9, 9, -1)/16`` with one-sided quadratic
    boundary forms ``(-1, 6, 3)/8`` and ``(3, 6, -1)/8``.
``natural_cubic``
    the not-a-knot variant ``(-3, 23, 23, -3)/40`` used by QoZ/HPEZ for
    smoother fields.

Every kernel is evaluated for a whole open-mesh block of targets at once
(:func:`axis_predict`), with availability handled by 1-D masks along the
interpolation axis broadcast across the block — the NumPy analogue of the
fully parallel per-thread interpolation in Fig. 4.

The returned *order* array implements the paper's highest-order-wins rule for
multi-dimensional averaging: 3 = 4-point spline, 2 = one-sided quadratic,
1 = linear, 0 = nearest-known copy (unaligned boundary tail).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SPLINES",
    "axis_predict",
    "spline_weights",
    "KIND_FULL",
    "KIND_QUAD_L",
    "KIND_QUAD_R",
    "KIND_LIN",
    "KIND_COPY",
    "KIND_ORDER",
    "KIND_OFFSETS",
    "axis_kind_segments",
    "predict_kind_into",
]

#: interior 4-point weights per spline family (applied to m3, m1, p1, p3)
SPLINES: dict[str, tuple[float, float, float, float]] = {
    "linear": (0.0, 0.5, 0.5, 0.0),
    "cubic": (-1.0 / 16, 9.0 / 16, 9.0 / 16, -1.0 / 16),
    "natural_cubic": (-3.0 / 40, 23.0 / 40, 23.0 / 40, -3.0 / 40),
}

#: one-sided quadratic boundary forms shared by the cubic families
_QUAD_LEFT = (-1.0 / 8, 6.0 / 8, 3.0 / 8)  # uses m3, m1, p1
_QUAD_RIGHT = (3.0 / 8, 6.0 / 8, -1.0 / 8)  # uses m1, p1, p3


def spline_weights(name: str) -> tuple[float, float, float, float]:
    """Interior weights for ``name``; raises ``KeyError`` for unknown names."""
    return SPLINES[name]


def axis_predict(
    R: np.ndarray,
    axis: int,
    vectors: list[np.ndarray],
    stride: int,
    spline: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict ``R`` at the open mesh ``np.ix_(*vectors)`` along ``axis``.

    ``vectors[axis]`` holds the target coordinates (odd multiples of
    ``stride``); the other vectors address already-known grid lines.  Returns
    ``(pred, order)`` where ``pred`` has the block shape and ``order`` is
    broadcastable to it (constant along every axis except ``axis``).
    """
    if spline not in SPLINES:
        raise KeyError(f"unknown spline {spline!r}")
    dim = R.shape[axis]
    t = np.asarray(vectors[axis], dtype=np.int64)
    s = int(stride)

    def grab(offset: int) -> np.ndarray:
        idx = np.clip(t + offset, 0, dim - 1)
        vecs = list(vectors)
        vecs[axis] = idx
        return R[np.ix_(*vecs)]

    m1 = grab(-s)
    p1 = grab(+s)

    has_p1 = (t + s) <= dim - 1  # t - s >= 0 always holds (t >= s)
    shape = [1] * R.ndim
    shape[axis] = t.size
    has_p1_b = has_p1.reshape(shape)

    if spline == "linear":
        pred = np.where(has_p1_b, 0.5 * (m1 + p1), m1)
        order = np.where(has_p1, 1, 0).reshape(shape)
        return pred, order

    m3 = grab(-3 * s)
    p3 = grab(+3 * s)
    has_m3 = (t - 3 * s) >= 0
    has_p3 = (t + 3 * s) <= dim - 1

    w = SPLINES[spline]
    full = has_m3 & has_p3 & has_p1
    quad_l = has_m3 & has_p1 & ~has_p3
    quad_r = ~has_m3 & has_p1 & has_p3
    lin = has_p1 & ~(full | quad_l | quad_r)

    pred_full = w[0] * m3 + w[1] * m1 + w[2] * p1 + w[3] * p3
    pred_ql = _QUAD_LEFT[0] * m3 + _QUAD_LEFT[1] * m1 + _QUAD_LEFT[2] * p1
    pred_qr = _QUAD_RIGHT[0] * m1 + _QUAD_RIGHT[1] * p1 + _QUAD_RIGHT[2] * p3
    pred_lin = 0.5 * (m1 + p1)

    pred = np.where(
        full.reshape(shape),
        pred_full,
        np.where(
            quad_l.reshape(shape),
            pred_ql,
            np.where(quad_r.reshape(shape), pred_qr, np.where(has_p1_b, pred_lin, m1)),
        ),
    )
    order = np.where(full, 3, np.where(quad_l | quad_r, 2, np.where(lin, 1, 0))).reshape(shape)
    return pred, order


# --------------------------------------------------------------------------
# Segment-wise kernels for the fused prediction path.
#
# axis_predict computes *every* boundary form over the whole block and selects
# per point with nested np.where — four full-size evaluations to keep one.
# But the boundary class of a target depends only on its coordinate along the
# interpolation axis, and the target vector t = s, 3s, 5s, ... decomposes into
# a handful of *contiguous runs* of constant class (interior targets are the
# 4-point spline, one or two targets per edge fall back to quadratic/linear/
# copy forms).  The fused path in repro.predictor.interpolation therefore
# evaluates each axis of a pass run by run, exactly one formula per run, on
# strided views, into preallocated scratch — bit-identical results at a
# quarter of the arithmetic and none of the gather copies.
# --------------------------------------------------------------------------

#: boundary classes of one target run, ordered by interpolation order
KIND_FULL, KIND_QUAD_L, KIND_QUAD_R, KIND_LIN, KIND_COPY = range(5)

#: paper order of each class: 3 = 4-point spline, 2 = one-sided quadratic,
#: 1 = linear, 0 = nearest-known copy (drives highest-order-wins averaging)
KIND_ORDER = (3, 2, 2, 1, 0)

#: neighbor offsets (in units of the stride) each class reads, formula order
KIND_OFFSETS = ((-3, -1, 1, 3), (-3, -1, 1), (-1, 1, 3), (-1, 1), (-1,))


def axis_kind_segments(dim: int, stride: int, spline: str) -> list[tuple[int, int, int]]:
    """Decompose targets ``t = stride, 3*stride, ...`` into class runs.

    Returns ``[(i0, i1, kind), ...]`` — half-open index runs into the target
    vector, covering it exactly.  Mirrors the ``np.where`` cascade of
    :func:`axis_predict`, so a run's single formula reproduces the masked
    selection bit for bit.
    """
    if spline not in SPLINES:
        raise KeyError(f"unknown spline {spline!r}")
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


def _weighted_sum(terms, out: np.ndarray, tmp: np.ndarray) -> None:
    """Left-associated ``w0*a0 + w1*a1 + ...`` into ``out`` (bit-exact with
    the expression form used by :func:`axis_predict`)."""
    w0, a0 = terms[0]
    np.multiply(a0, w0, out=out)
    for w, a in terms[1:]:
        np.multiply(a, w, out=tmp)
        np.add(out, tmp, out=out)


def predict_kind_into(
    R: np.ndarray,
    kind: int,
    nb_slices: tuple,
    spline: str,
    out: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """One-class prediction of a run of targets into preallocated ``out``.

    ``nb_slices`` holds one basic-slice tuple per neighbor of the class (in
    :data:`KIND_OFFSETS` order); the reads are strided views of ``R`` — no
    gather copies.  ``R`` must be float64 (binary operands stay array-array,
    so no value-based scalar promotion can change the compute dtype).
    """
    views = [R[sl] for sl in nb_slices]
    if kind == KIND_FULL:
        w = SPLINES[spline]
        _weighted_sum(list(zip(w, views)), out, tmp)
    elif kind == KIND_QUAD_L:
        _weighted_sum(list(zip(_QUAD_LEFT, views)), out, tmp)
    elif kind == KIND_QUAD_R:
        _weighted_sum(list(zip(_QUAD_RIGHT, views)), out, tmp)
    elif kind == KIND_LIN:
        m1, p1 = views
        np.add(m1, p1, out=out)
        np.multiply(out, 0.5, out=out)
    elif kind == KIND_COPY:
        np.copyto(out, views[0])
    else:  # pragma: no cover - plan builder only emits known kinds
        raise ValueError(f"unknown prediction kind {kind!r}")

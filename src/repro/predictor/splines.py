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
    "kind_ops",
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
# Segment-wise kernels for the compiled replay.
#
# axis_predict computes *every* boundary form over the whole block and selects
# per point with nested np.where — four full-size evaluations to keep one.
# But the boundary class of a target depends only on its coordinate along the
# interpolation axis, and the target vector t = s, 3s, 5s, ... decomposes into
# a handful of *contiguous runs* of constant class (interior targets are the
# 4-point spline, one or two targets per edge fall back to quadratic/linear/
# copy forms).  The replay programs of repro.predictor.interpolation therefore
# evaluate each axis of a pass run by run, exactly one formula per run
# (:func:`kind_ops`), into preallocated workspace — bit-identical results at
# a quarter of the arithmetic and none of the gather copies.
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

    Target ``i`` sits at ``t = s + 2*s*i``; each neighbor test of the cascade
    is monotone in ``i`` (``t - 3s >= 0`` holds from ``i = 1`` on, ``t + s``
    and ``t + 3s`` stay inside the axis below closed-form counts), so the
    class can change only at those three indices and the runs follow in
    constant time, whatever the axis length.
    """
    if spline not in SPLINES:
        raise KeyError(f"unknown spline {spline!r}")
    s = int(stride)
    n = len(range(s, dim, 2 * s))
    if n == 0:
        return []
    # t + s <= dim - 1  <=>  2*s*(i + 1) <= dim - 1; t + 3s likewise at i + 2.
    n_p1 = min(n, (dim - 1) // (2 * s))
    n_p3 = min(n, max(0, (dim - 1) // (2 * s) - 1))
    cuts = sorted({0, 1, n_p3, n_p1, n})  # all in [0, n], as n >= 1
    segments: list[tuple[int, int, int]] = []
    for i0, i1 in zip(cuts, cuts[1:]):
        kind = _target_kind(i0 >= 1, i0 < n_p1, i0 < n_p3, spline)
        if segments and segments[-1][2] == kind:
            segments[-1] = (segments[-1][0], i1, kind)
        else:
            segments.append((i0, i1, kind))
    return segments


def _target_kind(has_m3: bool, has_p1: bool, has_p3: bool, spline: str) -> int:
    """Boundary class of one target from its neighbor availability."""
    if not has_p1:
        return KIND_COPY
    if spline == "linear":
        return KIND_LIN
    if has_m3:
        return KIND_FULL if has_p3 else KIND_QUAD_L
    return KIND_QUAD_R if has_p3 else KIND_LIN


def kind_ops(kind: int, spline: str, views: list, out: np.ndarray, tmp: np.ndarray) -> list:
    """The ufunc calls of one class's formula, as ``(func, args)`` pairs.

    ``views`` holds one neighbor operand per offset of the class (in
    :data:`KIND_OFFSETS` order).  The weighted sums are left-associated
    ``w0*a0 + w1*a1 + ...`` with every term's product in ``tmp``, which is
    bit-exact with the expression form of :func:`axis_predict`.  The operands
    must be float64 arrays (binary operands stay array-array, so no
    value-based scalar promotion can change the compute dtype).
    """
    if kind == KIND_LIN:
        m1, p1 = views
        return [(np.add, (m1, p1, out)), (np.multiply, (out, 0.5, out))]
    if kind == KIND_COPY:
        return [(np.copyto, (out, views[0]))]
    if kind == KIND_FULL:
        weights = SPLINES[spline]
    elif kind == KIND_QUAD_L:
        weights = _QUAD_LEFT
    elif kind == KIND_QUAD_R:
        weights = _QUAD_RIGHT
    else:  # pragma: no cover - plan builders only emit known kinds
        raise ValueError(f"unknown prediction kind {kind!r}")
    (w0, a0), *rest = zip(weights, views)
    ops = [(np.multiply, (a0, w0, out))]
    for w, a in rest:
        ops += [(np.multiply, (a, w, tmp)), (np.add, (out, tmp, out))]
    return ops

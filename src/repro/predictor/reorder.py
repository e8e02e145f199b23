"""Mapping-based quantization-code reordering (paper §5.1.4, Eq. 3).

Prediction accuracy of an interpolation predictor depends strongly on the
interpolation stride: coarse-level codes carry larger magnitudes than
fine-level codes.  Flattening the code array in data layout interleaves the
levels and destroys the run structure the de-redundancy stages feed on.  The
reorder map emits codes grouped by interpolation level — coarse levels (and
the anchor placeholders) first — with each group in original row-major scan
order, exactly the sequence Eq. 3 computes in closed form.

``level_of_coordinates`` assigns each grid point the level it was predicted
at: the largest ``l <= log2(A)`` such that ``2^l`` divides every coordinate
(Eq. 3's interp-level term); level ``log2(A)`` marks the anchors.

Like the GPU kernel, nothing here permutes or caches: each parity plane of
a level is one affine strided view of the sequence (:func:`plane_geometry`),
through which the predictor and :func:`reorder` write and read codes.
"""

from __future__ import annotations

from math import prod

import numpy as np

__all__ = [
    "level_of_coordinates",
    "plane_geometry",
    "strided_view",
    "reorder_permutation",
    "reorder",
    "inverse_reorder",
]


def level_of_coordinates(shape: tuple[int, ...], anchor_stride: int) -> np.ndarray:
    """Per-point interpolation level, shape ``shape``, values ``0..log2(A)``.

    A point's level is ``min_d trailing_zeros(coord_d)`` capped at
    ``log2(anchor_stride)``; coordinate 0 is divisible by every power of two.
    Level ``log2(A)`` = anchors, level ``l`` < that = points predicted at
    stride ``2^l``.
    """
    max_level = int(np.log2(anchor_stride))
    level = np.full(shape, max_level, dtype=np.int8)
    for d, dim in enumerate(shape):
        tz = np.full(dim, max_level, dtype=np.int8)
        for l in range(max_level):
            tz[1 << l :: 2 << l] = l  # the odd multiples of 2**l
        view = [1] * len(shape)
        view[d] = dim
        np.minimum(level, tz.reshape(view), out=level)
    return level


def _row_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(prod(shape[d + 1 :]) for d in range(len(shape)))


def plane_geometry(shape: tuple[int, ...], stride: int, bits: tuple[int, ...]):
    """Where the parity plane ``bits`` of the stride-``s`` lattice sits in
    the 1-D code sequence: ``(extent, (flat, eq3))``, ``flat`` and ``eq3``
    the ``(offset, strides)`` in elements of the plane's points (lattice
    coordinates ``2h + bits``) in the row-major and the Eq. 3 sequence.

    With ``n = ceil(shape / s)``, ``c = ceil(n / 2)``, ``N_d`` and ``C_d``
    the products of ``n_e`` and of ``c_e`` over ``e > d`` and ``d*`` the
    first set bit, Eq. 3 puts the plane at ``prod(c) + sum(b_d N_d) -
    C_{d*}`` (the stride-``2s`` lattice comes first; within the level a
    point's rank is the lattice points before it less the even ones), with
    stride ``2 N_d - C_d`` along the axes ``d <= d*`` and ``2 N_d`` after.
    With no bit set the plane is the stride-``2s`` lattice, at the front in
    row-major order: the anchor grid, when ``2s`` is the anchor stride.
    """
    n = [-(-dim // stride) for dim in shape]
    c = [(m + 1) // 2 for m in n]
    N, C, R = _row_strides(n), _row_strides(c), _row_strides(shape)
    extent = tuple((m - b + 1) // 2 for m, b in zip(n, bits))
    flat = (sum(b * stride * r for b, r in zip(bits, R)), tuple(2 * stride * r for r in R))
    if not any(bits):
        return extent, (flat, (0, C))
    first = bits.index(1)
    offset = prod(c) + sum(b * m for b, m in zip(bits, N)) - C[first]
    steps = tuple(2 * N[d] - (C[d] if d <= first else 0) for d in range(len(shape)))
    return extent, (flat, (offset, steps))


def strided_view(buf: np.ndarray, extent: tuple[int, ...], geometry: tuple) -> np.ndarray:
    """The ``extent``-shaped view of the 1-D contiguous ``buf`` at
    ``geometry = (offset, strides)``, counted in elements."""
    offset, strides = geometry
    size = buf.itemsize
    if size != 1:
        offset, strides = offset * size, tuple(st * size for st in strides)
    # through a memoryview, and positional: the constructor's fast path
    return np.ndarray(extent, buf.dtype, memoryview(buf), offset, strides)


def _relayout(codes: np.ndarray, shape, anchor_stride: int, src: int) -> np.ndarray:
    """``codes`` moved from layout ``src`` (0 row-major, 1 Eq. 3) to the
    other, as a 1-D array: the anchor grid, then every level's planes past
    plane 0, coarse to fine."""
    a = np.ascontiguousarray(codes).reshape(-1)
    out = np.empty_like(a)
    nd = len(shape)
    strides = [anchor_stride >> i for i in range(1, anchor_stride.bit_length())]
    for s, k in [(anchor_stride // 2, 0)] + [(s, k) for s in strides for k in range(1, 1 << nd)]:
        extent, layouts = plane_geometry(tuple(shape), s, tuple((k >> j) & 1 for j in range(nd)))
        if all(extent):
            strided_view(out, extent, layouts[1 - src])[...] = strided_view(a, extent, layouts[src])
    return out


def reorder(codes: np.ndarray, anchor_stride: int) -> np.ndarray:
    """Map a code array (data layout) to the level-grouped 1-D sequence."""
    return _relayout(codes, codes.shape, anchor_stride, 0)


def inverse_reorder(seq: np.ndarray, shape: tuple[int, ...], anchor_stride: int) -> np.ndarray:
    """Rebuild the data-layout code array from the level-grouped sequence."""
    return _relayout(seq, shape, anchor_stride, 1).reshape(shape)


def reorder_permutation(shape: tuple[int, ...], anchor_stride: int) -> np.ndarray:
    """Flat indices in emission order: level descending, row-major within."""
    return reorder(np.arange(prod(shape)).reshape(shape), anchor_stride)

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
(Eq. 3's interp-level term); level ``log2(A)`` marks the anchors.  The
permutation is cached per ``(shape, anchor_stride)`` because it depends only
on the geometry, mirroring the fixed mapping the GPU kernel bakes in.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "level_of_coordinates",
    "sequence_index",
    "reorder_permutation",
    "reorder",
    "inverse_reorder",
]

_PERM_CACHE: dict[tuple[tuple[int, ...], int], np.ndarray] = {}


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

    Agrees everywhere with :func:`reorder_permutation` (tested), which is the
    batch construction used on the hot path.
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


def reorder_permutation(shape: tuple[int, ...], anchor_stride: int) -> np.ndarray:
    """Flat indices in emission order: level descending, row-major within."""
    key = (tuple(shape), int(anchor_stride))
    perm = _PERM_CACHE.get(key)
    if perm is None:
        levels = level_of_coordinates(shape, anchor_stride).reshape(-1)
        max_level = int(np.log2(anchor_stride))
        parts = [np.flatnonzero(levels == l) for l in range(max_level, -1, -1)]
        perm = np.concatenate(parts)
        _PERM_CACHE[key] = perm
    return perm


def reorder(codes: np.ndarray, anchor_stride: int) -> np.ndarray:
    """Map a code array (data layout) to the level-grouped 1-D sequence."""
    perm = reorder_permutation(codes.shape, anchor_stride)
    return codes.reshape(-1)[perm]


def inverse_reorder(seq: np.ndarray, shape: tuple[int, ...], anchor_stride: int) -> np.ndarray:
    """Rebuild the data-layout code array from the level-grouped sequence."""
    perm = reorder_permutation(shape, anchor_stride)
    out = np.empty(int(np.prod(shape)), dtype=seq.dtype)
    out[perm] = seq
    return out.reshape(shape)

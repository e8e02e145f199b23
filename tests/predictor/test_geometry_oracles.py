"""Closed-form geometry builders against the per-target loops they replaced.

``axis_kind_segments`` derives a class run's bounds from three monotone
neighbor tests, and ``level_of_coordinates`` writes each level with one
strided slice; both must reproduce the loops in ``interp_oracle`` exactly
(every level plan and parity-plane layout is built from the first).
"""

from __future__ import annotations

import numpy as np
import pytest

from interp_oracle import axis_kind_segments_loop, level_of_coordinates_loop
from repro.predictor.reorder import level_of_coordinates
from repro.predictor.splines import SPLINES, axis_kind_segments


@pytest.mark.parametrize("spline", sorted(SPLINES))
def test_axis_kind_segments_equal_the_loop(spline):
    for dim in range(1, 301):
        for stride in range(1, 65):
            assert axis_kind_segments(dim, stride, spline) == axis_kind_segments_loop(
                dim, stride, spline
            ), (dim, stride)


def test_axis_kind_segments_on_a_long_axis():
    for spline in SPLINES:
        for stride in (1, 2, 8):
            got = axis_kind_segments(1 << 20, stride, spline)
            assert got == axis_kind_segments_loop(1 << 20, stride, spline)
            assert len(got) <= 4


def test_axis_kind_segments_rejects_unknown_spline():
    with pytest.raises(KeyError):
        axis_kind_segments(16, 1, "quintic")


@pytest.mark.parametrize(
    "shape",
    [(1,), (2,), (17,), (1000,), (33, 17), (5, 9, 13), (16, 16, 16), (3, 4, 5, 6)],
)
@pytest.mark.parametrize("anchor_stride", [2, 4, 8, 16, 32])
def test_level_of_coordinates_equals_the_loop(shape, anchor_stride):
    got = level_of_coordinates(shape, anchor_stride)
    want = level_of_coordinates_loop(shape, anchor_stride)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)

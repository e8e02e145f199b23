"""Eq. 3 quantization-code reordering."""

import numpy as np
import pytest

from interp_oracle import sequence_index
from repro.predictor.interpolation import InterpolationPredictor
from repro.predictor.reorder import (
    inverse_reorder,
    level_of_coordinates,
    reorder,
    reorder_permutation,
)


class TestLevels:
    def test_1d_levels(self):
        lv = level_of_coordinates((17,), 16)
        assert lv[0] == 4 and lv[16] == 4  # anchors
        assert lv[8] == 3
        assert lv[4] == 2 and lv[12] == 2
        assert lv[2] == 1 and lv[6] == 1
        assert lv[1] == 0 and lv[15] == 0

    def test_3d_min_rule(self):
        lv = level_of_coordinates((17, 17, 17), 16)
        assert lv[0, 0, 0] == 4
        assert lv[8, 0, 0] == 3
        assert lv[8, 4, 0] == 2  # min(3, 2, 4) = 2
        assert lv[8, 4, 1] == 0

    def test_matches_definition_exhaustively(self):
        A = 8
        shape = (12, 9)
        lv = level_of_coordinates(shape, A)
        for x in range(shape[0]):
            for y in range(shape[1]):
                best = 0
                for l in range(int(np.log2(A)), -1, -1):
                    if x % (1 << l) == 0 and y % (1 << l) == 0:
                        best = l
                        break
                assert lv[x, y] == best, (x, y)


class TestPermutation:
    @pytest.mark.parametrize("shape", [(20,), (17, 23), (10, 11, 12)])
    def test_bijective(self, shape):
        perm = reorder_permutation(shape, 16)
        n = int(np.prod(shape))
        assert perm.size == n
        assert np.array_equal(np.sort(perm), np.arange(n))

    def test_levels_descending(self):
        shape = (33, 18)
        perm = reorder_permutation(shape, 16)
        lv = level_of_coordinates(shape, 16).reshape(-1)[perm]
        assert (np.diff(lv.astype(int)) <= 0).all()

    def test_scan_order_within_level(self):
        shape = (33, 18)
        perm = reorder_permutation(shape, 16)
        lv = level_of_coordinates(shape, 16).reshape(-1)[perm]
        for l in np.unique(lv):
            idx = perm[lv == l]
            assert (np.diff(idx) > 0).all()  # original row-major order kept

    def test_matches_stable_argsort_oracle(self):
        shape = (19, 21, 8)
        perm = reorder_permutation(shape, 8)
        lv = level_of_coordinates(shape, 8).reshape(-1)
        oracle = np.argsort(-lv.astype(np.int64), kind="stable")
        assert np.array_equal(perm, oracle)


class TestClosedForm:
    """Eq. 3's arithmetic index map must agree with the permutation."""

    @pytest.mark.parametrize("shape,A", [((17,), 16), ((20, 23), 8), ((9, 10, 11), 8), ((33, 18, 7), 16)])
    def test_matches_permutation(self, shape, A):
        perm = reorder_permutation(shape, A)
        n = int(np.prod(shape))
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        coords = np.unravel_index(np.arange(n), shape)
        idx = sequence_index(coords, shape, A)
        assert np.array_equal(idx, inv)

    def test_bijection(self):
        shape = (19, 12)
        coords = np.unravel_index(np.arange(int(np.prod(shape))), shape)
        idx = sequence_index(coords, shape, 8)
        assert np.array_equal(np.sort(idx), np.arange(idx.size))

    def test_anchor_block_first(self):
        # All anchors map to the initial span of the sequence.
        shape = (33, 33)
        ax, ay = np.meshgrid(np.arange(0, 33, 16), np.arange(0, 33, 16), indexing="ij")
        idx = sequence_index((ax.ravel(), ay.ravel()), shape, 16)
        assert idx.max() < 9  # 3x3 anchors occupy positions 0..8


class TestRoundtrip:
    def test_reorder_inverse(self, rng):
        codes = rng.integers(0, 256, (21, 22, 23)).astype(np.uint8)
        seq = reorder(codes, 16)
        back = inverse_reorder(seq, codes.shape, 16)
        assert np.array_equal(back, codes)


def test_reordering_smooths_sequence(smooth3d):
    """Fig. 5: the reordered sequence concentrates large-magnitude codes at
    the front and leaves a smoother tail (lower adjacent-difference energy)."""
    eb = 1e-3 * float(smooth3d.max() - smooth3d.min())
    res = InterpolationPredictor(16).compress(smooth3d, eb)
    flat = res.codes.reshape(-1).astype(np.int64)
    seq = reorder(res.codes, 16).astype(np.int64)

    def roughness(a):
        return np.abs(np.diff(a)).mean()

    assert roughness(seq) <= roughness(flat)
    # Large codes (far from 128) must concentrate in the sequence head.
    dev = np.abs(seq - 128)
    head, tail = dev[: dev.size // 4], dev[dev.size // 4 :]
    assert head.mean() >= tail.mean()

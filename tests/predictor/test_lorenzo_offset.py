"""Dual-quant Lorenzo and 1-D offset predictors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictor.lorenzo import lorenzo_decode, lorenzo_encode
from repro.predictor.offset1d import offset_decode, offset_encode


class TestLorenzo:
    @pytest.mark.parametrize("shape", [(100,), (31, 41), (17, 18, 19)])
    def test_roundtrip_bound(self, shape, rng):
        data = np.cumsum(rng.standard_normal(shape).astype(np.float32), axis=0)
        eb = 1e-3 * float(data.max() - data.min())
        res = lorenzo_encode(data, eb)
        out = lorenzo_decode(res.residuals, shape, eb, data.dtype, res.outlier_pos, res.outlier_values)
        assert np.array_equal(out, res.recon)
        assert np.abs(data.astype(np.float64) - out.astype(np.float64)).max() <= eb

    def test_constant_field_residuals(self):
        data = np.full((16, 16), 5.0, dtype=np.float32)
        res = lorenzo_encode(data, 0.1)
        # Only the corner carries the quantized DC value.
        assert res.residuals[0, 0] == 25
        assert np.count_nonzero(res.residuals) == 1

    def test_linear_field_residuals_sparse(self):
        i = np.arange(64, dtype=np.float32)
        data = np.add.outer(i, i).astype(np.float32)
        res = lorenzo_encode(data, 0.5)
        # 2-D Lorenzo annihilates bilinear structure away from the borders.
        assert np.count_nonzero(res.residuals[2:, 2:]) == 0

    def test_saturation_outliers(self):
        data = np.ones((8, 8), dtype=np.float32)
        data[3, 3] = 1e30  # pre-quant would overflow int32
        res = lorenzo_encode(data, 1e-6)
        assert res.outlier_pos.size == 1
        out = lorenzo_decode(res.residuals, data.shape, 1e-6, data.dtype,
                             res.outlier_pos, res.outlier_values)
        assert out[3, 3] == np.float32(1e30)

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_saturation_keeps_residuals_in_int32(self, ndim):
        """Alternating +-q at the saturation threshold maximises every
        chained difference: 2**ndim * q must still fit int32."""
        eb = 0.5
        limit = (2**31 - 1) >> ndim
        signs = np.indices((3,) * ndim).sum(axis=0) % 2 * 2 - 1
        data = (signs * float(limit)).astype(np.float64)
        res = lorenzo_encode(data, eb)
        assert res.outlier_pos.size == 0
        assert np.abs(res.residuals.astype(np.int64)).max() == limit << ndim
        out = lorenzo_decode(res.residuals, data.shape, eb, data.dtype)
        assert np.array_equal(out, data)
        over = lorenzo_encode(data * (1 + 2 / limit), eb)
        assert over.outlier_pos.size == data.size

    def test_eb_validation(self):
        with pytest.raises(ValueError):
            lorenzo_encode(np.zeros((4, 4), np.float32), -1.0)


class TestOffset:
    def test_roundtrip_bound(self, smooth3d):
        eb = 1e-3 * float(smooth3d.max() - smooth3d.min())
        res = offset_encode(smooth3d, eb)
        out = offset_decode(res.residuals, smooth3d.shape, eb, smooth3d.dtype,
                            res.outlier_pos, res.outlier_values)
        assert np.array_equal(out, res.recon)
        assert np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max() <= eb

    def test_block_heads_store_absolute(self):
        data = (np.arange(96, dtype=np.float32) * 0.2 + 100.0).reshape(96)
        res = offset_encode(data, 0.1, block=32)
        q = np.rint(data.astype(np.float64) / 0.2).astype(np.int64)
        assert res.residuals[0] == q[0]
        assert res.residuals[32] == q[32]
        assert res.residuals[64] == q[64]

    def test_saturation_keeps_deltas_in_int32(self):
        """Neighbours at -q and +q on the saturation threshold: their delta
        2q must fit int32 (at |q| = 2**30 it wrapped to -2**31)."""
        data = np.array([-(2.0**30), 2.0**30, -(2.0**30) + 1, 2.0**30 - 1, 5.0])
        res = offset_encode(data, 0.5)
        assert res.outlier_pos.tolist() == [0, 1]
        assert res.residuals[3] == 2**31 - 2
        out = offset_decode(res.residuals, data.shape, 0.5, data.dtype,
                            res.outlier_pos, res.outlier_values)
        assert np.array_equal(out, data)

    def test_smooth_residuals_small(self, smooth3d):
        eb = 1e-3 * float(smooth3d.max() - smooth3d.min())
        res = offset_encode(smooth3d, eb)
        interior = np.ones(res.residuals.size, dtype=bool)
        interior[::32] = False
        assert np.abs(res.residuals[interior]).mean() < 10


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 400),
    eb_exp=st.integers(-4, 0),
    seed=st.integers(0, 10),
    kind=st.sampled_from(["lorenzo", "offset"]),
)
def test_property_bound(n, eb_exp, seed, kind):
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.standard_normal(n)).astype(np.float32)
    eb = 10.0**eb_exp
    if kind == "lorenzo":
        res = lorenzo_encode(data, eb)
        out = lorenzo_decode(res.residuals, data.shape, eb, data.dtype,
                             res.outlier_pos, res.outlier_values)
    else:
        res = offset_encode(data, eb)
        out = offset_decode(res.residuals, data.shape, eb, data.dtype,
                            res.outlier_pos, res.outlier_values)
    assert np.abs(data.astype(np.float64) - out.astype(np.float64)).max() <= eb

"""Fused plan path vs the reference mask-based algorithm: bit identity.

The tentpole optimization rewrote the predictor hot path (cached pass plans,
basic-slice sub-blocks, scratch-fused quantization).  These tests pin the
contract that made the rewrite safe: for finite inputs, the emitted codes,
outliers and reconstructions are *bit-identical* to the straightforward
mask-based formulation (the test-only oracle ``interp_oracle.predict_block``).
"""

import numpy as np
import pytest
from interp_oracle import predict_block as _predict_block

from repro.predictor.interpolation import (
    InterpolationPredictor,
    LevelConfig,
    ScratchPool,
    level_passes,
    level_plan,
    level_plan_stats,
    level_strides,
    plane_level,
)
from repro.predictor.splines import KIND_ORDER, axis_kind_segments, axis_predict


def reference_compress(anchor_stride, data, eb, level_configs=None):
    """The pre-plan compress loop, verbatim: the equivalence oracle."""
    data = np.asarray(data)
    shape, dtype = data.shape, data.dtype
    X = data.astype(np.float64, copy=False)
    R = np.zeros(shape, dtype=np.float64)
    codes = np.full(shape, 128, dtype=np.uint8)
    strides = level_strides(anchor_stride)
    configs = {s: (level_configs or {}).get(s, LevelConfig()) for s in strides}
    anchor_mesh = np.ix_(*[np.arange(0, d, anchor_stride) for d in shape])
    anchors = data[anchor_mesh].copy()
    R[anchor_mesh] = anchors.astype(np.float64)
    twoeb = 2.0 * eb
    for s in strides:
        cfg = configs[s]
        for vectors, axes in level_passes(shape, s, cfg.scheme):
            if any(v.size == 0 for v in vectors):
                continue
            mesh = np.ix_(*vectors)
            pred = _predict_block(R, vectors, axes, s, cfg.spline)
            x = X[mesh]
            q = np.rint((x - pred) / twoeb)
            recon = pred + q * twoeb
            recon_cast = recon.astype(dtype).astype(np.float64)
            outlier = (np.abs(q) > 127) | (np.abs(x - recon_cast) > eb) | ~np.isfinite(q)
            byte = np.where(outlier, 0.0, q + 128.0).astype(np.uint8)
            R[mesh] = np.where(outlier, x, recon)
            codes[mesh] = byte
    out_pos = np.flatnonzero(codes.reshape(-1) == 0)
    return codes, anchors, data.reshape(-1)[out_pos].copy(), R.astype(dtype)


CONFIG_SETS = [
    None,
    {
        8: LevelConfig("1d", "linear"),
        4: LevelConfig("md", "cubic"),
        2: LevelConfig("1d", "natural_cubic"),
        1: LevelConfig("md", "linear"),
    },
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "shape", [(41,), (33, 29), (20, 21, 22), (9, 8, 10, 11)], ids=["1d", "2d", "3d", "4d"]
    )
    @pytest.mark.parametrize("cfg_idx", [0, 1])
    def test_codes_match_reference(self, shape, cfg_idx, rng):
        data = np.cumsum(rng.standard_normal(shape).astype(np.float32), axis=-1)
        eb = 1e-3 * float(data.max() - data.min())
        cfgs = CONFIG_SETS[cfg_idx]
        pred = InterpolationPredictor(16)
        res = pred.compress(data, eb, cfgs)
        ref_codes, ref_anchors, ref_out, ref_recon = reference_compress(16, data, eb, cfgs)
        np.testing.assert_array_equal(res.codes, ref_codes)
        np.testing.assert_array_equal(res.anchors, ref_anchors)
        np.testing.assert_array_equal(res.outlier_values, ref_out)
        np.testing.assert_array_equal(res.recon, ref_recon)

    def test_outlier_heavy_field_matches(self, rng):
        data = rng.standard_normal((22, 23, 24)).astype(np.float32)
        eb = 1e-6 * float(data.max() - data.min())  # tiny bound -> many outliers
        res = InterpolationPredictor(8).compress(data, eb)
        ref_codes, _, ref_out, _ = reference_compress(8, data, eb)
        np.testing.assert_array_equal(res.codes, ref_codes)
        np.testing.assert_array_equal(res.outlier_values, ref_out)

    def test_float64_matches(self, rng):
        data = np.cumsum(rng.standard_normal((24, 25, 26)), axis=0)
        eb = 1e-4 * float(data.max() - data.min())
        res = InterpolationPredictor(8).compress(data, eb)
        ref_codes, _, _, ref_recon = reference_compress(8, data, eb)
        np.testing.assert_array_equal(res.codes, ref_codes)
        np.testing.assert_array_equal(res.recon, ref_recon)

    def test_pass_error_matches_reference(self, rng):
        """The autotune scorer must reduce through the same summation tree."""
        X = np.cumsum(rng.standard_normal((33, 33, 33)).astype(np.float32), axis=0)
        Xf = X.astype(np.float64)
        predictor = InterpolationPredictor(16)
        for stride in (8, 4, 2, 1):
            for cfg in (LevelConfig("md", "cubic"), LevelConfig("1d", "linear")):
                ref = 0.0
                for vectors, axes in level_passes(X.shape, stride, cfg.scheme):
                    if any(v.size == 0 for v in vectors):
                        continue
                    mesh = np.ix_(*vectors)
                    pred = _predict_block(Xf, vectors, axes, stride, cfg.spline)
                    ref += float(np.abs(Xf[mesh] - pred).sum())
                assert predictor.pass_error(X, stride, cfg) == ref


class TestAxisSegments:
    @pytest.mark.parametrize("spline", ["linear", "cubic", "natural_cubic"])
    @pytest.mark.parametrize("dim,stride", [(17, 1), (17, 4), (33, 8), (7, 2), (5, 4), (64, 1)])
    def test_segments_reproduce_axis_predict_orders(self, spline, dim, stride):
        """Class runs must agree with the order array of the masked kernel."""
        t = np.arange(stride, dim, 2 * stride)
        if t.size == 0:
            assert axis_kind_segments(dim, stride, spline) == []
            return
        R = np.zeros(dim)
        _, order = axis_predict(R, 0, [t], stride, spline)
        order = np.asarray(order).reshape(-1)
        segs = axis_kind_segments(dim, stride, spline)
        covered = np.full(t.size, -1)
        for i0, i1, kind in segs:
            covered[i0:i1] = KIND_ORDER[kind]
        np.testing.assert_array_equal(covered, order)

    def test_segments_tile_targets_exactly(self):
        segs = axis_kind_segments(64, 1, "cubic")
        spans = sorted((i0, i1) for i0, i1, _ in segs)
        assert spans[0][0] == 0 and spans[-1][1] == np.arange(1, 64, 2).size
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0


class TestPlanCache:
    def test_plan_is_shared_across_calls(self):
        before = level_plan_stats()
        p1 = level_plan((20, 20, 20), 4, "md", "cubic")
        p2 = level_plan((20, 20, 20), 4, "md", "cubic")
        after = level_plan_stats()
        assert p1 is p2
        assert after["hits"] > before["hits"]

    def test_plane_geometry_lookups_are_counted(self):
        """The replay's geometry cache reports through the same counters."""
        before = level_plan_stats()
        g1 = plane_level((20, 20, 20), 4, "md", "cubic")
        g2 = plane_level((20, 20, 20), 4, "md", "cubic")
        after = level_plan_stats()
        assert g1 is g2
        assert after["hits"] > before["hits"]
        assert after["hits"] + after["misses"] == before["hits"] + before["misses"] + 2

    def test_plan_keys_are_distinct(self):
        assert level_plan((20, 20), 4, "md", "cubic") is not level_plan(
            (20, 20), 4, "md", "linear"
        )

    def test_empty_passes_skipped(self):
        # stride >= dim along every axis: no pass has targets on axis 0
        plan = level_plan((3, 40), 4, "md", "cubic")
        for p in plan.passes:
            assert 0 not in p.axes  # axis 0 has no odd multiples of 4 below 3


class TestScratchPool:
    def test_buffers_are_reused_and_grown(self):
        pool = ScratchPool()
        a = pool.get("x", (8, 8))
        b = pool.get("x", (4, 4))
        assert np.shares_memory(a, b)
        c = pool.get("x", (32, 32))  # growth reallocates
        assert c.shape == (32, 32)

    def test_dtype_change_reallocates(self):
        pool = ScratchPool()
        f = pool.get("x", (8,), np.float64)
        u = pool.get("x", (8,), np.uint8)
        assert u.dtype == np.uint8 and f.dtype == np.float64

"""Plane replay and whole-pass scoring vs the sub-block formulation.

Compress and decompress replay each pass on contiguous parity planes (one
flat run per axis, a repair of its boundary rows, a plane-wide mean and a
repair where the axes' orders disagree), and the auto-tuner scores all
candidates of a level from one set of per-axis lattice predictions per
spline family.  The oracle is the earlier path that split every pass into
the product of its per-axis runs (``interp_oracle.SubBlockPredictor``);
these tests pin equal bytes for codes, outliers, reconstructions,
decompressed fields, per-candidate scores and auto-tune choices, that
padding never raises a floating-point warning, and the call counts.
"""

import warnings

import numpy as np
import pytest
from interp_oracle import SubBlockPredictor, autotune_choices

import repro.predictor.interpolation as interpolation
from repro import api
from repro.core.compressor import _decode_levels
from repro.encoders.pipelines import CR_PIPELINE
from repro.predictor.autotune import CANDIDATES, autotune_levels
from repro.predictor.interpolation import (
    InterpolationPredictor,
    LevelConfig,
    level_plan,
    level_strides,
    plane_level,
)
from repro.quantizer.linear import ByteQuantizer

#: axis lengths 1-4 and 2s +- 1 around every stride of both anchor grids
SHAPES = [
    (1,),
    (2,),
    (3,),
    (4,),
    (5,),
    (7,),
    (9,),
    (15,),
    (17,),
    (31,),
    (33,),
    (4, 9),
    (17, 3),
    (15, 33),
    (2, 31),
    (5, 7, 9),
    (1, 17, 4),
    (9, 16, 15),
    (33, 3, 2),
    (6, 5, 9, 17),
    (3, 4, 2, 9),
]

MIXED = {
    8: LevelConfig("1d", "linear"),
    4: LevelConfig("md", "natural_cubic"),
    2: LevelConfig("1d", "cubic"),
    1: LevelConfig("md", "linear"),
}

#: default, one mixed per-level set, and every candidate on every level
CONFIG_SETS = [None, MIXED] + [{s: c for s in (8, 4, 2, 1)} for c in CANDIDATES]

KINDS = ["walk", "nonfinite", "zeros", "signed_zeros", "constant"]


def make_field(shape, kind, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=-1).astype(dtype)
    flat = x.reshape(-1)
    if kind == "nonfinite":
        flat[::7] = np.nan
        flat[2::11] = np.inf
        flat[5::13] = -np.inf
    elif kind == "zeros":
        flat[:] = 0.0
    elif kind == "signed_zeros":
        flat[:] = -0.0
        flat[::3] = 0.0
    elif kind == "constant":
        flat[:] = 3.25
    return x


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(autouse=True)
def quiet_nonfinite():
    # NaN/Inf fields legitimately raise invalid-value warnings in both paths.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestCompressDecompress:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_every_config_matches_oracle(self, shape):
        for dtype in (np.float32, np.float64):
            x = make_field(shape, "walk", dtype)
            for anchor in (8, 16):
                for cfgs in CONFIG_SETS:
                    self._check(x, anchor, 1e-2, cfgs)

    @pytest.mark.parametrize("kind", KINDS[1:])
    @pytest.mark.parametrize(
        "shape", [(33,), (15, 33), (9, 16, 15), (6, 5, 9, 17)], ids=lambda s: "x".join(map(str, s))
    )
    def test_special_values_match_oracle(self, shape, kind):
        for dtype in (np.float32, np.float64):
            x = make_field(shape, kind, dtype)
            for anchor in (8, 16):
                for cfgs in (None, MIXED, CONFIG_SETS[4]):
                    self._check(x, anchor, 1e-2, cfgs)

    def test_outlier_heavy_field_matches_oracle(self):
        x = np.random.default_rng(3).standard_normal((18, 21, 20)).astype(np.float32)
        self._check(x, 8, 1e-6, None)
        self._check(x, 16, 1e-6, MIXED)

    def test_signed_zero_predictions_survive(self):
        """A ``-0.0`` average must not become ``+0.0`` (zero-accumulator trap)."""
        # Linear splines average -0.0 anchors to -0.0 on every axis (the cubic
        # weights include negatives, which flip the sign), and the tiny
        # negative residuals quantize to -0.0, so every point keeps its sign.
        x = np.full((9, 10, 11), -1e-300)
        x[::8, ::8, ::8] = -0.0
        linear = {s: LevelConfig("md", "linear") for s in (4, 2, 1)}
        res = InterpolationPredictor(8).compress(x, 1e-3, linear)
        assert np.signbit(res.recon).all()
        assert (res.recon == 0).all()
        self._check(x, 8, 1e-3, linear)

    def test_replay_contract_is_value_equality(self):
        """Decompress reproduces compress's reconstruction under IEEE ``==``;
        the sign of zero is not part of that contract (a residual that
        quantizes to ``-0.0`` is stored as the zero code, which decodes to
        ``+0.0``).  Wherever the bit patterns differ, both values are zero."""
        x = np.full((9, 10, 11), -1e-300)
        x[::8, ::8, ::8] = -0.0
        linear = {s: LevelConfig("md", "linear") for s in (4, 2, 1)}
        pred = InterpolationPredictor(8)
        res = pred.compress(x, 1e-3, linear)
        out = pred.decompress(
            res.codes, res.anchors, res.outlier_values, x.shape, 1e-3, res.level_configs, x.dtype
        )
        assert np.signbit(res.recon).any()  # the field exercises signed zeros
        assert (out == res.recon).all()
        differ = out.view(np.uint64) != res.recon.view(np.uint64)
        assert (out[differ] == 0).all() and (res.recon[differ] == 0).all()

    @pytest.mark.parametrize(
        "shape", [(33, 33, 33), (64, 64, 64), (33, 17, 40), (96, 192)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_large_fields_match_oracle(self, shape):
        """Several rows per plane along every axis, so the flat runs cross
        row and plane ends, next to odd extents whose planes are padded."""
        for dtype in (np.float32, np.float64):
            x = make_field(shape, "walk", dtype, seed=4)
            self._check(x, 16, 1e-2, autotune_levels(x, 16))
            self._check(x, 8, 1e-3, MIXED)

    @pytest.mark.parametrize("kind", ["walk", "zeros", "signed_zeros", "constant", "huge"])
    def test_finite_fields_raise_no_warnings(self, kind):
        """Padding entries hold finite garbage: replaying a finite field must
        never overflow or produce an invalid value anywhere."""
        for shape in [(33, 17, 40), (15, 33), (6, 5, 9, 17), (33,)]:
            for dtype in (np.float32, np.float64):
                if kind == "huge":
                    x = make_field(shape, "walk", dtype) * dtype(1e36)
                else:
                    x = make_field(shape, kind, dtype)
                eb = 1e-3 * max(float(np.ptp(x)), 1.0)
                for cfgs in (None, MIXED, CONFIG_SETS[3]):
                    pred = InterpolationPredictor(8)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        res = pred.compress(x, eb, cfgs)
                        pred.decompress(
                            res.codes, res.anchors, res.outlier_values, x.shape, eb,
                            res.level_configs, x.dtype,
                        )

    @pytest.mark.parametrize("shape", [(), (0,), (0, 5), (3, 0, 4)], ids=str)
    def test_degenerate_shapes_match_oracle(self, shape):
        for dtype in (np.float32, np.float64):
            self._check(np.full(shape, 3.25, dtype=dtype), 16, 1e-2, None)

    def test_recon_is_optional(self):
        x = make_field((33, 17, 40), "walk", np.float32)
        kept = InterpolationPredictor(16).compress(x, 1e-2)
        dropped = InterpolationPredictor(16).compress(x, 1e-2, keep_recon=False)
        assert dropped.recon is None
        assert same_bytes(dropped.codes, kept.codes)
        assert same_bytes(dropped.outlier_values, kept.outlier_values)

    @staticmethod
    def _check(x, anchor, eb, cfgs):
        new = InterpolationPredictor(anchor)
        old = SubBlockPredictor(anchor)
        res = new.compress(x, eb, cfgs)
        codes, anchors, outliers, recon = old.compress(x, eb, cfgs)
        assert same_bytes(res.codes, codes)
        assert same_bytes(res.anchors, anchors)
        assert same_bytes(res.outlier_values, outliers)
        assert same_bytes(res.recon, recon)
        args = (codes, anchors, outliers, x.shape, eb, res.level_configs, x.dtype)
        out = new.decompress(*args)
        assert same_bytes(out, old.decompress(*args))
        np.testing.assert_array_equal(out, res.recon)


class TestScores:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "shape",
        [(17,), (33,), (4, 9), (15, 33), (5, 7, 9), (9, 16, 15), (33, 3, 2), (6, 5, 9, 17)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_candidate_scores_and_choices_match_oracle(self, shape, kind):
        for dtype in (np.float32, np.float64):
            x = make_field(shape, kind, dtype, seed=1)
            for anchor in (8, 16):
                new = InterpolationPredictor(anchor)
                old = SubBlockPredictor(anchor)
                for s in level_strides(anchor):
                    scores = new.level_errors(x, s, CANDIDATES)
                    ref = [old.pass_error(x, s, cfg) for cfg in CANDIDATES]
                    assert same_bytes(np.array(scores), np.array(ref))
                    for cfg, want in zip(CANDIDATES, ref):
                        assert same_bytes(new.pass_error(x, s, cfg), want)
                assert autotune_levels(x, anchor) == autotune_choices(x, anchor)

    def test_multi_block_sample_matches_oracle(self):
        """Per-candidate totals accumulate over several sampled blocks."""
        x = make_field((40, 41, 38), "walk", np.float32, seed=2)
        for fraction in (0.002, 0.5):
            assert autotune_levels(x, 8, target_fraction=fraction) == autotune_choices(
                x, 8, target_fraction=fraction
            )


class TestPlanFootprint:
    def test_boundary_bookkeeping_is_boundary_sized(self):
        plan = level_plan((128, 128, 128), 1, "md", "cubic")
        for p in plan.passes:
            if len(p.axes) == 1:
                assert p.winners is None
                continue
            flat, steps, count = p.winners
            assert flat.size < np.prod(p.shape) // 4
            assert count.size == flat.shape[0]
            assert len(steps) == len(p.axes) - 1


class TestCallCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of kernel calls: all of them, and those of the replay."""
        calls = {"predict": 0, "quantize": 0, "replay_predict": 0}
        predict = interpolation.predict_kind_into
        quantize = ByteQuantizer.quantize_into
        compress = InterpolationPredictor.compress

        def counting_predict(*args, **kwargs):
            calls["predict"] += 1
            return predict(*args, **kwargs)

        def counting_quantize(self, *args, **kwargs):
            calls["quantize"] += 1
            return quantize(self, *args, **kwargs)

        def counting_compress(self, *args, **kwargs):
            before = calls["predict"]
            result = compress(self, *args, **kwargs)
            calls["replay_predict"] += calls["predict"] - before
            return result

        monkeypatch.setattr(interpolation, "predict_kind_into", counting_predict)
        monkeypatch.setattr(ByteQuantizer, "quantize_into", counting_quantize)
        monkeypatch.setattr(InterpolationPredictor, "compress", counting_compress)
        return calls

    @staticmethod
    def _replay_geometry(shape, levels):
        """(passes, interpolated axes, boundary rows) of a replay."""
        passes = axes = rows = 0
        for s, cfg in levels.items():
            for p in plane_level(shape, s, cfg.scheme, cfg.spline).passes:
                passes += 1
                axes += len(p.runs)
                rows += sum(len(axis_rows) for _, axis_rows in p.runs)
        return passes, axes, rows

    def test_untiled_32cubed_cr_compress(self, calls):
        """Per-pass whole-plane work: one quantize per pass; per axis, one
        flat run plus at most three boundary rows."""
        x = make_field((32, 32, 32), "walk", np.float32)
        result = api.compress(x, codec="cusz-hi-cr", eb=1e-3)
        assert result.blob.meta["pipeline"] == CR_PIPELINE

        levels = _decode_levels(result.blob.meta["levels"])
        passes, axes, rows = self._replay_geometry(x.shape, levels)
        assert passes == sum(
            len(level_plan(x.shape, s, cfg.scheme, cfg.spline).passes)
            for s, cfg in levels.items()
        )
        assert calls["quantize"] == passes <= 28
        assert calls["replay_predict"] == axes + rows <= 4 * axes
        assert calls["predict"] <= 400

    def test_md_cubic_replay(self, calls):
        """The md scheme on every level: 12 axis predictions per 3-D level."""
        x = make_field((33, 33, 33), "walk", np.float32)
        levels = {s: LevelConfig("md", "cubic") for s in level_strides(16)}
        InterpolationPredictor(16).compress(x, 1e-3, levels)
        passes, axes, rows = self._replay_geometry(x.shape, levels)
        assert calls["quantize"] == passes == 4 * 7
        assert axes == 4 * 12
        assert calls["replay_predict"] == axes + rows <= 4 * axes

"""cuSZ-Hi front end: modes, configs, bound guarantee, stream dispatch."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.api as api
from repro.api.registry import CODEC_IDS
from repro.core.compressor import CuszHi, resolve_error_bound
from repro.core.config import CR_MODE, TP_MODE, CuszHiConfig


class TestConfig:
    def test_mode_selection(self):
        assert CuszHi(mode="cr").config == CR_MODE
        assert CuszHi(mode="tp").config == TP_MODE
        with pytest.raises(ValueError):
            CuszHi(mode="xl")

    def test_config_and_mode_exclusive(self):
        with pytest.raises(ValueError):
            CuszHi(config=CR_MODE, mode="cr")

    def test_kwargs_override(self):
        c = CuszHi(reorder=False, anchor_stride=8)
        assert c.config.reorder is False
        assert c.config.anchor_stride == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            CuszHiConfig(anchor_stride=10)
        with pytest.raises(ValueError):
            CuszHiConfig(scheme="banana")
        with pytest.raises(ValueError):
            CuszHiConfig(eb_mode="percent")

    def test_with_functional_update(self):
        base = CuszHiConfig()
        mod = base.with_(reorder=False)
        assert base.reorder is True and mod.reorder is False


class TestResolveErrorBound:
    def test_relative(self):
        data = np.array([0.0, 10.0], dtype=np.float32)
        assert resolve_error_bound(data, 1e-2, "rel") == pytest.approx(0.1)

    def test_absolute(self):
        data = np.array([0.0, 10.0], dtype=np.float32)
        assert resolve_error_bound(data, 1e-2, "abs") == 1e-2

    def test_constant_field(self):
        data = np.full(10, 3.0, dtype=np.float32)
        assert resolve_error_bound(data, 1e-3, "rel") > 0

    def test_invalid_eb(self):
        with pytest.raises(ValueError):
            resolve_error_bound(np.zeros(3, np.float32), -1.0, "rel")

    def test_nan_edges_still_resolve(self):
        data = np.array([np.nan, 0.0, 5.0, np.nan], dtype=np.float32)
        assert resolve_error_bound(data, 1e-2, "rel") == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "data",
        [
            np.zeros(0, dtype=np.float32),
            np.full(7, np.nan, dtype=np.float32),
            np.array([np.inf, -np.inf, np.nan], dtype=np.float32),
        ],
        ids=["empty", "all-nan", "no-finite"],
    )
    def test_rel_mode_without_finite_values_raises(self, data):
        """Regression: the old code silently returned the *relative* eb as if
        it were absolute for fields with no finite values."""
        with pytest.raises(ValueError, match="no.*finite values"):
            resolve_error_bound(data, 1e-3, "rel")

    @pytest.mark.parametrize(
        "data",
        [np.zeros(0, dtype=np.float32), np.full(7, np.nan, dtype=np.float32)],
        ids=["empty", "all-nan"],
    )
    def test_abs_mode_without_finite_values_passes_through(self, data):
        assert resolve_error_bound(data, 1e-3, "abs") == 1e-3


class TestCompressDecompress:
    @pytest.mark.parametrize("mode", ["cr", "tp"])
    def test_roundtrip_bound(self, smooth3d, mode):
        comp = CuszHi(mode=mode)
        blob = comp.compress(smooth3d, 1e-3)
        out = comp.decompress(blob)
        assert out.shape == smooth3d.shape and out.dtype == smooth3d.dtype
        assert np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_serialized_roundtrip(self, smooth3d):
        blob = CuszHi(mode="cr").compress(smooth3d, 1e-3)
        out = repro.decompress(blob.to_bytes())
        assert np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_codec_ids(self):
        assert CuszHi(mode="cr").codec_id == CODEC_IDS["cusz-hi-cr"]
        assert CuszHi(mode="tp").codec_id == CODEC_IDS["cusz-hi-tp"]
        assert CuszHi(reorder=False).codec_id == CODEC_IDS["cusz-hi"]

    def test_blob_metadata(self, smooth3d):
        blob = CuszHi(mode="cr").compress(smooth3d, 1e-3)
        assert blob.meta["pipeline"] == "HF+RRE4-TCMS8-RZE1"
        assert blob.meta["anchor_stride"] == "16"
        assert blob.meta["reorder"] == "1"
        assert "levels" in blob.meta
        assert set(blob.segments) == {"anchors", "outliers", "codes"}

    def test_all_config_variants_roundtrip(self, smooth3d):
        for cfg in (
            CuszHiConfig(reorder=False),
            CuszHiConfig(autotune=False, scheme="1d", spline="linear"),
            CuszHiConfig(anchor_stride=4),
            CuszHiConfig(pipeline="RRE1"),
            CuszHiConfig(eb_mode="abs"),
        ):
            comp = CuszHi(config=cfg)
            blob = comp.compress(smooth3d, 1e-3 if cfg.eb_mode == "rel" else 1e-3)
            out = CuszHi().decompress(blob)  # decompression is blob-driven
            assert np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_rejects_non_float(self):
        with pytest.raises(TypeError):
            CuszHi().compress(np.zeros((8, 8), dtype=np.int32), 1e-3)

    def test_kernel_traces_recorded(self, smooth3d):
        comp = CuszHi(mode="cr")
        blob = comp.compress(smooth3d, 1e-3)
        assert comp.last_comp_trace is not None and len(comp.last_comp_trace) > 4
        comp.decompress(blob)
        assert comp.last_decomp_trace is not None and len(comp.last_decomp_trace) > 4

    def test_decode_trace_comes_from_the_decode(self, tmp_path):
        """The lossless decode kernels model the stage sizes the decode
        itself sees: the same in a fresh process as after an unrelated
        compress, and the same as the blob's own encode."""
        from repro import datasets
        from repro.gpu.costmodel import pipeline_kernels

        comp = CuszHi(mode="cr")
        blob = comp.compress(datasets.load("jhtdb", shape=(32, 32, 32), seed=2), 1e-3)
        own = _rows(pipeline_kernels(repro.encoders.get_pipeline(blob.meta["pipeline"])
                                     .last_trace, decode=True))
        path = tmp_path / "blob.rpz"
        path.write_bytes(blob.to_bytes())
        probe = (
            "import json, sys\n"
            "from repro.core.compressor import CuszHi\n"
            "from repro.core.container import CompressedBlob\n"
            "comp = CuszHi()\n"
            "comp.decompress(CompressedBlob.from_bytes(open(sys.argv[1], 'rb').read()))\n"
            "print(json.dumps([[r.name, r.bytes_read, r.bytes_written, r.flops,\n"
            "                   r.efficiency_class] for r in comp.last_decomp_trace.records]))\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True,
                             text=True, check=True, env=env)
        fresh = [tuple(r) for r in json.loads(out.stdout.strip().splitlines()[-1])]

        CuszHi(mode="cr").compress(datasets.load("nyx", shape=(64, 64, 64), seed=5), 1e-4)
        comp = CuszHi()
        comp.decompress(blob)
        after = _rows(comp.last_decomp_trace)
        assert after == fresh
        assert [r for r in after if r[0].startswith("dec:")] == own

    def test_2d_and_4d(self, smooth2d, rng):
        blob2 = CuszHi(mode="cr").compress(smooth2d, 1e-3)
        out2 = CuszHi().decompress(blob2)
        assert np.abs(smooth2d.astype(np.float64) - out2.astype(np.float64)).max() <= blob2.error_bound
        d4 = np.cumsum(rng.standard_normal((6, 9, 10, 11)).astype(np.float32), axis=1)
        blob4 = CuszHi(mode="tp").compress(d4, 1e-3)
        out4 = CuszHi().decompress(blob4)
        assert np.abs(d4.astype(np.float64) - out4.astype(np.float64)).max() <= blob4.error_bound


class TestPublicApi:
    def test_compress_decompress_helpers(self, smooth3d):
        blob = api.compress(smooth3d, api.build_request(mode="tp", eb=1e-3)).blob
        out = repro.decompress(blob)
        assert np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_codec_parameter(self, smooth3d):
        blob = api.compress(smooth3d, api.build_request(codec="cusz-l", eb=1e-3)).blob
        assert blob.codec == CODEC_IDS["cusz-l"]
        out = repro.decompress(blob.to_bytes())
        assert np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_list_codecs(self):
        ids = repro.list_codecs()
        assert ids["cusz-hi-cr"] == 1 and "cuzfp" in ids


def _rows(trace) -> list[tuple]:
    return [(r.name, r.bytes_read, r.bytes_written, r.flops, r.efficiency_class)
            for r in trace.records]

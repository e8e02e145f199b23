"""Micro-benchmarks of the computational primitives (pytest-benchmark).

Not a paper artifact — these time the NumPy kernels themselves so a
performance regression in the chunk-parallel codecs or the interpolation
passes is caught by ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compressor import resolve_error_bound
from repro.encoders.ans import RansCodec
from repro.encoders.components import BIT, RRE, RZE, TCMS
from repro.encoders.huffman import HuffmanCodec
from repro.datasets import load
from repro.predictor.autotune import autotune_levels
from repro.predictor.interpolation import InterpolationPredictor
from repro.predictor.lorenzo import lorenzo_decode, lorenzo_encode
from repro.predictor.reorder import reorder_permutation


@pytest.fixture(scope="module")
def codes_1mb(nyx_field):
    abs_eb = resolve_error_bound(nyx_field, 1e-3, "rel")
    res = InterpolationPredictor(16).compress(nyx_field, abs_eb)
    return res.codes.reshape(-1).tobytes()


@pytest.fixture(scope="module")
def codes_64():
    """Quantization codes of a 64^3 field: the size serving sees, where most
    decode lanes settle in their second round."""
    field = load("jhtdb", shape=(64, 64, 64), seed=0)
    abs_eb = resolve_error_bound(field, 1e-3, "rel")
    return InterpolationPredictor(16).compress(field, abs_eb).codes.reshape(-1).tobytes()


@pytest.fixture(scope="module")
def codes_256(codes_64):
    """A 256^3-sized CR code stream (the 64^3 codes, 64 times over): the
    long-stream end of the Huffman decode."""
    return codes_64 * 64


@pytest.fixture(scope="module", params=[4097, 1 << 20], ids=["4097", "1M"])
def uniform_8(request):
    """Symbols each of 8 equally often: every code is 3 bits long, so decode
    lanes never fall into step and every chunk is walked from its stored
    offset (the decoder's worst case): 2 chunks walked one at a time, or
    256 in lockstep."""
    rng = np.random.default_rng(0)
    return rng.permutation(np.arange(request.param) % 8).astype(np.uint8).tobytes()


class TestEntropyCoders:
    def test_huffman_encode(self, benchmark, codes_1mb):
        codec = HuffmanCodec()
        benchmark(lambda: codec.encode(codes_1mb))

    def test_huffman_decode(self, benchmark, codes_1mb):
        codec = HuffmanCodec()
        enc = codec.encode(codes_1mb)
        out = benchmark(lambda: codec.decode(enc))
        assert out == codes_1mb

    def test_huffman_encode_64(self, benchmark, codes_64):
        codec = HuffmanCodec()
        enc = benchmark(lambda: codec.encode(codes_64))
        assert codec.decode(enc) == codes_64

    def test_huffman_decode_64(self, benchmark, codes_64):
        codec = HuffmanCodec()
        enc = codec.encode(codes_64)
        out = benchmark(lambda: codec.decode(enc))
        assert out == codes_64

    def test_huffman_decode_256(self, benchmark, codes_256):
        codec = HuffmanCodec()
        enc = codec.encode(codes_256)
        out = benchmark.pedantic(lambda: codec.decode(enc), rounds=3)
        assert out == codes_256

    def test_huffman_decode_uniform_8(self, benchmark, uniform_8):
        codec = HuffmanCodec()
        enc = codec.encode(uniform_8)
        out = benchmark(lambda: codec.decode(enc))
        assert out == uniform_8

    def test_rans_encode(self, benchmark, codes_1mb):
        codec = RansCodec()
        benchmark(lambda: codec.encode(codes_1mb))

    def test_rans_decode(self, benchmark, codes_1mb):
        codec = RansCodec()
        enc = codec.encode(codes_1mb)
        out = benchmark(lambda: codec.decode(enc))
        assert out == codes_1mb


class TestComponents:
    @pytest.mark.parametrize("comp", [TCMS(1), BIT(1), RRE(1), RZE(1)], ids=lambda c: c.name)
    def test_component_encode(self, benchmark, comp, codes_1mb):
        benchmark(lambda: comp.encode(codes_1mb))

    @pytest.mark.parametrize("stage", ["BIT1", "RRE1"])
    def test_tp_stage_decode(self, benchmark, stage, codes_64):
        """The TP chain TCMS1-BIT1-RRE1 on 64^3 codes: each stage decodes
        the stream its encoder wrote from its real input."""
        stream = TCMS(1).encode(codes_64)
        if stage == "RRE1":
            stream = BIT(1).encode(stream)
        comp = BIT(1) if stage == "BIT1" else RRE(1)
        enc = comp.encode(stream)
        out = benchmark(lambda: comp.decode(enc))
        assert out == stream


class TestPredictors:
    def test_interpolation_compress(self, benchmark, nyx_field):
        pred = InterpolationPredictor(16)
        abs_eb = resolve_error_bound(nyx_field, 1e-3, "rel")
        benchmark(lambda: pred.compress(nyx_field, abs_eb))

    def test_interpolation_decompress(self, benchmark, nyx_field):
        pred = InterpolationPredictor(16)
        abs_eb = resolve_error_bound(nyx_field, 1e-3, "rel")
        res = pred.compress(nyx_field, abs_eb)
        benchmark(
            lambda: pred.decompress(
                res.codes, res.anchors, res.outlier_values, nyx_field.shape,
                abs_eb, res.level_configs, nyx_field.dtype,
            )
        )

    @pytest.mark.parametrize("side", [32, 64])
    def test_interpolation_compress_small(self, benchmark, side):
        """The replay at the sizes serving sees, where a level's parity
        planes fit in cache; no reconstruction kept, as in ``CuszHi``."""
        field = load("nyx", shape=(side, side, side), seed=0)
        abs_eb = resolve_error_bound(field, 1e-3, "rel")
        levels = autotune_levels(field, 16)
        pred = InterpolationPredictor(16)
        res = benchmark(lambda: pred.compress(field, abs_eb, levels, keep_recon=False))
        assert res.recon is None

    @pytest.mark.parametrize("side", [32, 64])
    def test_interpolation_decompress_small(self, benchmark, side):
        field = load("nyx", shape=(side, side, side), seed=0)
        abs_eb = resolve_error_bound(field, 1e-3, "rel")
        pred = InterpolationPredictor(16)
        res = pred.compress(field, abs_eb, autotune_levels(field, 16))
        out = benchmark(
            lambda: pred.decompress(
                res.codes, res.anchors, res.outlier_values, field.shape,
                abs_eb, res.level_configs, field.dtype,
            )
        )
        assert np.array_equal(out, res.recon)

    @pytest.mark.parametrize("side", [32, 64])
    def test_autotune_levels(self, benchmark, side):
        """The fixed per-call cost of small fields: one sampled block, three
        spline evaluations per level shared by all six candidates."""
        field = load("jhtdb", shape=(side, side, side), seed=0)
        chosen = benchmark(lambda: autotune_levels(field, 16))
        assert set(chosen) == {8, 4, 2, 1}

    def test_lorenzo_roundtrip(self, benchmark, nyx_field):
        abs_eb = resolve_error_bound(nyx_field, 1e-3, "rel")

        def run():
            res = lorenzo_encode(nyx_field, abs_eb)
            return lorenzo_decode(res.residuals, nyx_field.shape, abs_eb, nyx_field.dtype,
                                  res.outlier_pos, res.outlier_values)

        out = benchmark(run)
        assert np.abs(nyx_field.astype(np.float64) - out.astype(np.float64)).max() <= abs_eb

    def test_reorder_permutation_build(self, benchmark, nyx_field):
        import importlib

        # The package re-exports the `reorder` *function* under the same
        # name, so resolve the submodule explicitly.
        reorder_mod = importlib.import_module("repro.predictor.reorder")

        def build():
            reorder_mod._PERM_CACHE.clear()
            return reorder_permutation(nyx_field.shape, 16)

        benchmark(build)

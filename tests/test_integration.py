"""Cross-cutting integration tests: fuzzing, corruption, edge geometries.

These exercise whole-stack paths that unit tests cannot: arbitrary shapes
through arbitrary codecs, stream corruption surfacing as clean errors rather
than wrong data, and the paper's headline cross-compressor relations on a
shared workload.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.api as api
from repro.analysis.harness import COMPRESSOR_FACTORIES, make_compressor
from repro.core.container import CompressedBlob, ContainerError

ALL_FIXED_EB = sorted(COMPRESSOR_FACTORIES)


@st.composite
def small_fields(draw):
    ndim = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(4, 22)) for _ in range(ndim))
    seed = draw(st.integers(0, 50))
    kind = draw(st.sampled_from(["smooth", "rough", "constant", "spiky"]))
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        data = np.cumsum(rng.standard_normal(dims), axis=0)
    elif kind == "rough":
        data = rng.standard_normal(dims) * draw(st.floats(0.1, 100.0))
    elif kind == "constant":
        data = np.full(dims, draw(st.floats(-10, 10)))
    else:
        data = np.zeros(dims)
        flat = data.reshape(-1)
        idx = rng.integers(0, flat.size, max(1, flat.size // 10))
        flat[idx] = rng.standard_normal(idx.size) * 1e4
    return data.astype(np.float32)


class TestFuzzRoundtrip:
    @settings(max_examples=12, deadline=None)
    @given(field=small_fields(), codec=st.sampled_from(ALL_FIXED_EB), eb_exp=st.integers(-4, -1))
    def test_any_codec_any_field(self, field, codec, eb_exp):
        eb = 10.0**eb_exp
        comp = make_compressor(codec)
        blob = comp.compress(field, eb)
        out = make_compressor(codec).decompress(
            CompressedBlob.from_bytes(blob.to_bytes())
        )
        assert out.shape == field.shape
        assert np.abs(field.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    @settings(max_examples=8, deadline=None)
    @given(field=small_fields())
    def test_dispatcher_routes_all(self, field):
        for codec in ALL_FIXED_EB:
            blob = api.compress(field, api.build_request(codec=codec, eb=1e-2)).blob
            out = repro.decompress(blob.to_bytes())
            assert np.abs(field.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound


class TestFailureInjection:
    @pytest.fixture()
    def stream(self, smooth3d):
        return repro.compress(smooth3d, 1e-3).to_bytes()

    def test_truncation_detected(self, stream):
        for cut in (10, len(stream) // 2, len(stream) - 3):
            with pytest.raises((ContainerError, ValueError)):
                repro.decompress(stream[:cut])

    def test_every_segment_region_corruption_detected(self, stream, smooth3d):
        """Flipping a byte anywhere in the payload area must raise (CRC) or
        never silently produce an out-of-bound reconstruction."""
        raw = bytearray(stream)
        # Probe positions spread across the stream body (skip the header's
        # eb/dims fields, whose corruption legitimately changes metadata).
        positions = range(len(raw) // 4, len(raw), max(1, len(raw) // 8))
        for pos in positions:
            mutated = bytearray(raw)
            mutated[pos] ^= 0xFF
            try:
                out = repro.decompress(bytes(mutated))
            except (ContainerError, ValueError):
                continue  # a typed failure is the expected outcome
            blob = CompressedBlob.from_bytes(stream)
            err = np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max()
            assert err <= blob.error_bound, f"silent corruption at byte {pos}"

    def test_wrong_magic(self):
        with pytest.raises(ContainerError):
            repro.decompress(b"JUNKJUNKJUNK" * 10)

    def test_unknown_codec_id(self, stream):
        blob = CompressedBlob.from_bytes(stream)
        blob.codec = 209
        with pytest.raises(KeyError):
            repro.decompress(blob.to_bytes())


class TestEdgeGeometries:
    @pytest.mark.parametrize(
        "shape",
        [(1,), (2, 2), (1, 50), (17,), (16, 16, 16), (17, 17, 17), (5, 1, 9), (31, 2, 2)],
    )
    def test_cusz_hi_awkward_shapes(self, shape, rng):
        data = rng.standard_normal(shape).astype(np.float32)
        blob = repro.compress(data, 1e-2)
        out = repro.decompress(blob)
        assert np.abs(data.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_float64_through_all_codecs(self, rng):
        data = np.cumsum(rng.standard_normal((14, 15, 16)), axis=1)
        for codec in ALL_FIXED_EB:
            blob = api.compress(data, api.build_request(codec=codec, eb=1e-3)).blob
            out = repro.decompress(blob)
            assert out.dtype == np.float64
            assert np.abs(data - out).max() <= blob.error_bound


class TestPaperHeadlines:
    """The abstract's claims, asserted end to end on one shared workload."""

    @pytest.fixture(scope="class")
    def field(self):
        return repro.datasets.load("nyx", shape=(64, 64, 64))

    def test_up_to_249pct_improvement_regime_exists(self, field):
        """At large bounds cuSZ-Hi improves >100% over the best open baseline
        (the paper's 'up to 249% over existing compressors' regime)."""
        hi = repro.compress(field, 1e-2).compression_ratio
        best_base = max(
            api.compress(field, api.build_request(codec=c, eb=1e-2)).blob.compression_ratio
            for c in ("cusz-l", "cusz-i", "cuszp2", "fzgpu")
        )
        assert hi > 2.0 * best_base

    def test_same_psnr_better_ratio(self, field):
        """At matched PSNR, cuSZ-Hi's bitrate beats cuSZ-IB's (rate-distortion
        dominance, paper §6.2.2)."""
        from repro.analysis import rd_curve

        hi = rd_curve("cusz-hi-cr", field, ebs=(1e-2, 3e-3, 1e-3))
        ib = rd_curve("cusz-ib", field, ebs=(1e-2, 3e-3, 1e-3))
        # Compare bitrate needed for the PSNR cuSZ-IB reaches at eb=3e-3.
        target_psnr = ib.points[1].psnr
        hi_rates = hi.bitrates()
        hi_psnrs = hi.psnrs()
        order = np.argsort(hi_psnrs)
        hi_rate_at_target = float(np.interp(target_psnr, hi_psnrs[order], hi_rates[order]))
        assert hi_rate_at_target < ib.points[1].bitrate

    def test_error_bound_is_hard_guarantee(self, field):
        """Eq. 1 holds for every mode at every tested bound — not on average."""
        for mode in ("cr", "tp"):
            for eb in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
                blob = api.compress(field, api.build_request(mode=mode, eb=eb)).blob
                out = repro.decompress(blob)
                assert np.abs(field.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

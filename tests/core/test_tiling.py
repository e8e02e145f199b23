"""Tiled parallel execution engine (repro.core.tiling).

Covers the PR-1 acceptance surface: grid decomposition math (including odd
shapes and boundary modes), round-trips across all three executors with
bit-identical frames, error-bound equivalence with the untiled path, the
multi-tile container frame (offsets, random access, serialization), the
streaming integration, and the tiled roofline aggregation.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro import decompress
from repro.api.registry import CODEC_IDS
from repro.core import (
    CompressedBlob,
    CuszHi,
    CuszHiConfig,
    StreamReader,
    StreamWriter,
    TiledEngine,
    TileGrid,
    is_tiled,
    resolve_workers,
    tile_count,
    tile_entries,
    unpack_tile,
)
from repro.core.compressor import resolve_error_bound
from repro.gpu import (
    RTX_6000_ADA,
    aggregate_tile_traces,
    tiled_trace_time_s,
    trace_time_s,
)

EXECUTORS = ("serial", "threads", "processes")


def _compress(field, eb, **request):
    return api.compress(field, api.build_request(eb=eb, **request)).blob


def _field(shape, seed=7):
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.linspace(0, 3, s) for s in shape], indexing="ij")
    smooth = sum(np.sin((i + 1) * g) for i, g in enumerate(grids))
    return (smooth + 0.05 * rng.standard_normal(shape)).astype(np.float32)


# ---------------------------------------------------------------- grid math
class TestTileGrid:
    def test_exact_partition_no_overlap(self):
        grid = TileGrid((32, 48), (16, 16))
        cover = np.zeros((32, 48), dtype=np.int32)
        for t in grid:
            cover[t.slices] += 1
        assert grid.n_tiles == 2 * 3
        assert np.all(cover == 1)

    @pytest.mark.parametrize("boundary", ["remainder", "merge"])
    def test_odd_shapes_cover_exactly_once(self, boundary):
        grid = TileGrid((37, 29, 11), (16, 16, 8), boundary=boundary)
        cover = np.zeros((37, 29, 11), dtype=np.int32)
        for t in grid:
            cover[t.slices] += 1
        assert np.all(cover == 1)

    def test_merge_absorbs_thin_edges(self):
        # 33 = 2*16 + 1: the 1-wide sliver merges into the last full tile.
        shapes = [t.shape for t in TileGrid((33,), (16,), boundary="merge")]
        assert shapes == [(16,), (17,)]
        shapes = [t.shape for t in TileGrid((33,), (16,), boundary="remainder")]
        assert shapes == [(16,), (16,), (1,)]

    def test_short_tile_shape_tiles_trailing_axes(self):
        # Rank-1 tile shape on a 3-D field = slab decomposition along z.
        grid = TileGrid((8, 8, 32), (16,))
        assert grid.tile_shape == (8, 8, 16)
        assert grid.grid_shape == (1, 1, 2)

    def test_tile_shape_clipped_to_field(self):
        grid = TileGrid((10, 10), (64, 64))
        assert grid.n_tiles == 1
        assert grid[0].shape == (10, 10)

    def test_getitem_matches_iteration(self):
        grid = TileGrid((37, 29), (16, 16))
        for t in grid:
            assert grid[t.index] == t

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            TileGrid((16, 16), (0, 16))
        with pytest.raises(ValueError):
            TileGrid((16,), (8, 8))
        with pytest.raises(ValueError):
            TileGrid((16, 16), (8, 8), boundary="wrap")

    def test_resolve_workers_auto_is_positive(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1
        assert resolve_workers(3) == 3


# ------------------------------------------------------------- round trips
class TestTiledRoundTrip:
    @pytest.fixture(scope="class")
    def field(self):
        return _field((45, 38, 41))

    @pytest.fixture(scope="class")
    def untiled(self, field):
        comp = CuszHi(mode="cr")
        blob = comp.compress(field, 1e-3)
        return blob, comp.decompress(blob)

    @pytest.fixture(scope="class")
    def frames(self, field):
        out = {}
        for ex in EXECUTORS:
            comp = CuszHi(
                config=CuszHiConfig(tile_shape=(16, 16, 16), executor=ex, workers=2)
            )
            out[ex] = comp.compress(field, 1e-3)
        return out

    @pytest.mark.parametrize("ex", EXECUTORS)
    def test_round_trip_within_bound(self, field, frames, ex):
        blob = frames[ex]
        assert is_tiled(blob)
        assert blob.codec == CODEC_IDS["cusz-hi-tiled"]
        recon = decompress(blob)
        assert recon.shape == field.shape and recon.dtype == field.dtype
        assert float(np.abs(field - recon).max()) <= blob.error_bound

    def test_executors_produce_identical_frames(self, frames):
        ser = frames["serial"]
        for ex in ("threads", "processes"):
            assert frames[ex].segments["tiles"] == ser.segments["tiles"]
            assert frames[ex].get_array("tile_index").tolist() == ser.get_array(
                "tile_index"
            ).tolist()

    def test_same_absolute_bound_as_untiled(self, field, frames, untiled):
        """The rel->abs bound must resolve against the *full* field, so the
        tiled guarantee is exactly the untiled guarantee."""
        blob0, recon0 = untiled
        for blob in frames.values():
            assert blob.error_bound == blob0.error_bound
        recon = decompress(frames["serial"])
        assert float(np.abs(field - recon).max()) <= blob0.error_bound
        assert float(np.abs(field - recon0).max()) <= blob0.error_bound

    def test_quality_metrics_match_serial_path(self, field, frames):
        """workers>1 (processes) reconstructs bit-identically to the serial
        executor — quality metrics are therefore *identical*, not just close."""
        r_serial = decompress(frames["serial"])
        r_par = decompress(frames["processes"])
        assert np.array_equal(r_serial, r_par)

    def test_odd_field_odd_tiles(self):
        field = _field((37, 29))
        blob = _compress(field, 1e-3, tiles=(16, 16), executor="threads", workers=2)
        recon = decompress(blob)
        assert float(np.abs(field - recon).max()) <= blob.error_bound

    def test_1d_and_float64(self):
        field = _field((301,)).astype(np.float64)
        blob = _compress(field, 1e-4, tiles=(64,), executor="serial")
        recon = decompress(blob)
        assert recon.dtype == np.float64
        assert float(np.abs(field - recon).max()) <= blob.error_bound

    def test_abs_eb_mode_per_tile(self):
        field = _field((40, 40))
        comp = CuszHi(config=CuszHiConfig(tile_shape=(16, 16), eb_mode="abs"))
        blob = comp.compress(field, 0.01)
        assert blob.error_bound == 0.01
        assert float(np.abs(field - decompress(blob)).max()) <= 0.01

    def test_serialization_round_trip(self, field, frames):
        raw = frames["serial"].to_bytes()
        blob = CompressedBlob.from_bytes(raw)
        assert is_tiled(blob)
        recon = decompress(blob)
        assert float(np.abs(field - recon).max()) <= blob.error_bound


# ------------------------------------------------------- multi-tile frames
class TestTiledFrame:
    @pytest.fixture(scope="class")
    def packed(self):
        field = _field((37, 30))
        blob = _compress(field, 1e-3, tiles=(16, 16), executor="serial")
        return field, blob

    def test_offsets_tile_the_frame_exactly(self, packed):
        _, blob = packed
        idx = blob.get_array("tile_index")
        ndim = len(blob.shape)
        total = 0
        for i in range(idx.shape[0]):
            assert int(idx[i, 2 * ndim]) == total  # tiles are packed back to back
            total += int(idx[i, 2 * ndim + 1])
        assert total == len(blob.segments["tiles"])

    def test_tile_entries_cover_field(self, packed):
        field, blob = packed
        cover = np.zeros(field.shape, dtype=np.int32)
        for _, origin, tshape in tile_entries(blob):
            sl = tuple(slice(o, o + s) for o, s in zip(origin, tshape))
            cover[sl] += 1
        assert np.all(cover == 1)

    def test_random_access_single_tile(self, packed):
        field, blob = packed
        full = decompress(blob)
        engine = TiledEngine(config=CuszHiConfig())
        for i in range(tile_count(blob)):
            origin, tile = engine.decompress_tile(blob, i)
            sl = tuple(slice(o, o + s) for o, s in zip(origin, tile.shape))
            assert np.array_equal(tile, full[sl])
            assert float(np.abs(field[sl] - tile).max()) <= blob.error_bound

    def test_unpack_tile_is_standalone_stream(self, packed):
        _, blob = packed
        origin, tshape, payload = unpack_tile(blob, 0)
        inner = CompressedBlob.from_bytes(payload)
        assert inner.shape == tshape
        assert origin == (0, 0)

    def test_unpack_tile_bounds_check(self, packed):
        _, blob = packed
        with pytest.raises(IndexError):
            unpack_tile(blob, tile_count(blob))

    def test_nbytes_counts_index_overhead(self, packed):
        _, blob = packed
        sizes = blob.segment_sizes()
        assert sizes["tile_index"] > 0
        assert blob.nbytes > sizes["tiles"]


# ------------------------------------------------------------- streaming
class TestTiledStreaming:
    def test_writer_reader_tiled_frames(self):
        steps = [_field((24, 40), seed=s) for s in range(3)]
        writer = StreamWriter(eb=1e-3, tile_shape=(16, 16), workers=2, executor="threads")
        blobs = [writer.append(s) for s in steps]
        assert all(is_tiled(b) for b in blobs)
        out = StreamReader(writer.getvalue()).read_all()
        assert len(out) == 3
        for snap, recon, blob in zip(steps, out, blobs):
            assert float(np.abs(snap - recon).max()) <= blob.error_bound

    def test_temporal_delta_with_tiles(self):
        base = _field((24, 24), seed=1)
        steps = [base + 0.01 * i for i in range(4)]
        writer = StreamWriter(eb=1e-3, temporal=True, tile_shape=(16, 16))
        for s in steps:
            writer.append(s)
        abs_eb = resolve_error_bound(steps[0], 1e-3, "rel")
        for snap, recon in zip(steps, StreamReader(writer.getvalue())):
            assert float(np.abs(snap - recon).max()) <= abs_eb + 1e-7

    def test_explicit_compressor_gains_tiles(self):
        comp = CuszHi(mode="tp")
        writer = StreamWriter(compressor=comp, eb=1e-3, tile_shape=(16, 16))
        blob = writer.append(_field((20, 20)))
        assert is_tiled(blob)
        assert blob.meta["pipeline"] == comp.config.pipeline

    def test_tiling_knobs_require_tile_shape(self):
        with pytest.raises(ValueError):
            StreamWriter(eb=1e-3, workers=4)


# ------------------------------------------------------------- cost model
class TestTiledCostModel:
    def test_traces_aggregate_and_speed_up(self):
        field = _field((48, 48, 48))
        comp = CuszHi(config=CuszHiConfig(tile_shape=(24, 24, 24), executor="serial"))
        comp.compress(field, 1e-3)
        engine = TiledEngine(config=comp.config)
        engine.compress(field, 1e-3)
        tile_traces = engine.last_tile_comp_traces
        assert len(tile_traces) == 8
        merged = aggregate_tile_traces(tile_traces)
        assert len(merged) == sum(len(t) for t in tile_traces)
        t1 = tiled_trace_time_s(tile_traces, RTX_6000_ADA, workers=1)
        t8 = tiled_trace_time_s(tile_traces, RTX_6000_ADA, workers=8)
        assert t1 == pytest.approx(trace_time_s(merged, RTX_6000_ADA))
        assert t8 < t1  # parallel lanes shorten the modeled makespan
        assert t8 >= t1 / 8 - 1e-12  # ... but never below the ideal bound

    def test_compressor_trace_survives_tiled_path(self):
        field = _field((32, 32))
        comp = CuszHi(config=CuszHiConfig(tile_shape=(16, 16)))
        comp.compress(field, 1e-3)
        assert comp.last_comp_trace is not None
        assert len(comp.last_comp_trace) > 0


# ------------------------------------------------------------- config API
class TestConfigKnobs:
    def test_tile_shape_coerced_to_tuple(self):
        cfg = CuszHiConfig(tile_shape=[16, 16])
        assert cfg.tile_shape == (16, 16)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tile_shape": (0, 16)},
            {"executor": "mpi"},
            {"workers": -1},
            {"tile_boundary": "wrap"},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CuszHiConfig(**kwargs)

    def test_top_level_compress_rejects_misuse(self):
        field = _field((16, 16))
        with pytest.raises(ValueError):
            _compress(field, 1e-3, codec="cusz-l", tiles=(8, 8))
        with pytest.raises(ValueError):
            _compress(field, 1e-3, workers=4)

"""Core compressor framework: container format, configuration and the
cuSZ-Hi front end (paper §4).  Codec ids live in :mod:`repro.api.registry`."""

from .compressor import CuszHi, resolve_error_bound
from .config import CR_MODE, TP_MODE, CuszHiConfig
from .container import (
    CompressedBlob,
    ContainerError,
    is_tiled,
    pack_tiled,
    tile_count,
    tile_entries,
    unpack_tile,
)
from .selector import ArchetypeScore, score_archetypes, select_compressor
from .streaming import StreamReader, StreamWriter
from .tiling import Tile, TiledEngine, TileGrid, resolve_workers

__all__ = [
    "CuszHi",
    "resolve_error_bound",
    "CuszHiConfig",
    "CR_MODE",
    "TP_MODE",
    "CompressedBlob",
    "ContainerError",
    "is_tiled",
    "pack_tiled",
    "tile_count",
    "tile_entries",
    "unpack_tile",
    "Tile",
    "TileGrid",
    "TiledEngine",
    "resolve_workers",
    "StreamWriter",
    "StreamReader",
    "select_compressor",
    "score_archetypes",
    "ArchetypeScore",
]

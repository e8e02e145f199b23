"""Core compressor framework: container format, configuration and the
cuSZ-Hi front end (paper §4).  Codec ids live in :mod:`repro.api.registry`.

The exported names import on first attribute access (PEP 562), like the
``repro`` package's own, so the stdlib-only :mod:`repro.core.cache` that
the encoders, the predictor and the server import does not pull in the
engine with it.
"""

import importlib

#: every exported name and the submodule defining it
_EXPORTS = {
    "CuszHi": ".compressor",
    "resolve_error_bound": ".compressor",
    "CuszHiConfig": ".config",
    "CR_MODE": ".config",
    "TP_MODE": ".config",
    "CompressedBlob": ".container",
    "ContainerError": ".container",
    "is_tiled": ".container",
    "pack_tiled": ".container",
    "tile_count": ".container",
    "tile_entries": ".container",
    "unpack_tile": ".container",
    "Tile": ".tiling",
    "TileGrid": ".tiling",
    "TiledEngine": ".tiling",
    "resolve_workers": ".tiling",
    "StreamWriter": ".streaming",
    "StreamReader": ".streaming",
    "select_compressor": ".selector",
    "score_archetypes": ".selector",
    "ArchetypeScore": ".selector",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
        globals()[name] = value  # cache: later access skips this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

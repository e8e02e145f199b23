"""repro — reproduction of cuSZ-Hi (SC 2025): "Boosting Scientific
Error-Bounded Lossy Compression through Optimized Synergistic Lossy-Lossless
Orchestration".

Quickstart
----------
>>> import numpy as np, repro
>>> field = repro.datasets.load("nyx", shape=(48, 48, 48))
>>> blob = repro.compress(field, eb=1e-3)                 # cuSZ-Hi-CR mode
>>> recon = repro.decompress(blob)
>>> bool(np.max(np.abs(field - recon)) <= blob.error_bound)
True
>>> blob.compression_ratio > 5
True

The canonical contract lives in :mod:`repro.api`: build a
:class:`~repro.api.CompressionRequest` (one codec name, one error-bound
spec, one tiling spec, one pipeline spec) and dispatch it through the codec
registry::

    import repro.api as api
    result = api.compress(field, api.build_request(codec="fzgpu", eb=1e-3))
    recon  = api.decompress(result.blob)

The top-level :func:`compress`/:func:`decompress` helpers cover the common
path; the subpackages expose the full system: ``repro.core`` (cuSZ-Hi engine +
container), ``repro.predictor``, ``repro.encoders``, ``repro.baselines``,
``repro.gpu``, ``repro.datasets``, ``repro.metrics``, ``repro.analysis``,
``repro.service`` (batch archives), ``repro.server`` (HTTP service),
``repro.client`` (retrying HTTP client) and ``repro.faults``
(seed-deterministic fault injection for the chaos suite).

``import repro`` loads no NumPy: every exported name and subpackage
imports on first attribute access (PEP 562 module ``__getattr__``), so the
CLI parser, the HTTP client, the fault hooks and the process-pool serving
frontend start without the codec engine.  ``import repro.api`` loads the
whole engine (``core``, ``datasets``, ``encoders``, ``gpu``, ``metrics``,
``predictor``, ``quantizer``) and nothing more, so a caller pays for it
before its first compress, not inside it.  No import path of the library,
the CLI, the server or a pool worker loads scipy, which only SSIM needs
(the optional ``analysis`` extra).  A pool worker imports the engine, but
not ``asyncio`` or the HTTP frontend, before its ready handshake.
``tests/test_lazy_import.py`` checks each of these in a fresh interpreter.
"""

from __future__ import annotations

import importlib

#: single version source: the CLI (``repro --version``), the HTTP service
#: (``GET /healthz``) and packaging all report this string.
__version__ = "1.8.0"

#: every subpackage (and the ``client``/``faults`` modules) imports on first
#: attribute access, like the exported names below.
_LAZY_SUBPACKAGES = (
    "analysis", "api", "baselines", "client", "core", "datasets", "encoders",
    "faults", "gpu", "metrics", "predictor", "quantizer", "server", "service",
)

#: exported name -> the module defining it
_EXPORTS = {
    "CuszHi": ".core.compressor",
    "CuszHiConfig": ".core.config",
    "CR_MODE": ".core.config",
    "TP_MODE": ".core.config",
    "CompressedBlob": ".core.container",
    "ContainerError": ".core.container",
    "codec_class": ".api.registry",
    "codec_name": ".api.registry",
    "list_codecs": ".api.registry",
}

__all__ = [
    "compress",
    "decompress",
    "api",
    "client",
    "faults",
    "CuszHi",
    "CuszHiConfig",
    "CR_MODE",
    "TP_MODE",
    "CompressedBlob",
    "ContainerError",
    "list_codecs",
    "codec_class",
    "codec_name",
    "analysis",
    "baselines",
    "core",
    "datasets",
    "encoders",
    "gpu",
    "metrics",
    "predictor",
    "quantizer",
    "server",
    "service",
]


def __getattr__(name: str):
    if name in _LAZY_SUBPACKAGES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # cache: subsequent access skips this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def compress(data, eb: float | None = None, request: "api.CompressionRequest | None" = None):
    """Compress a float field; returns the :class:`CompressedBlob`.

    ``compress(data, eb)`` runs the paper-default cuSZ-Hi-CR path;
    ``compress(data, request=...)`` takes a :class:`repro.api.CompressionRequest`
    for everything else (use :func:`repro.api.compress` when you want the full
    :class:`~repro.api.CompressionResult` instead of just the blob).  The
    pre-1.4 ``mode``/``codec``/``tile_shape``/``workers``/``executor``
    keywords were removed in 1.7; build a request instead::

        api.build_request(codec="fzgpu", eb=1e-3)
        api.build_request(mode="tp", eb=1e-3, tiles=(128,)*3, workers=4)
    """
    from . import api

    if isinstance(eb, api.CompressionRequest):
        raise TypeError(
            "compress() got a CompressionRequest as the error bound; "
            "pass it by keyword: compress(data, request=...)"
        )
    if request is not None:
        # A request is self-contained (it carries its bound): an eb alongside
        # it is a conflict, never silently ignored.
        if eb is not None:
            raise api.RequestError("pass either a request or eb, not both")
        return api.compress(data, request).blob
    if eb is None:
        # Never compress under a bound the caller did not choose.
        raise TypeError("compress() missing the error bound: pass eb= (or a request=)")
    return api.compress(data, api.build_request(eb=eb)).blob


def decompress(blob):
    """Decompress a :class:`CompressedBlob` or its serialized ``bytes`` into
    a NumPy array."""
    from . import api

    return api.decompress(blob)

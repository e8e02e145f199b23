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
(seed-deterministic fault injection for the chaos suite).  Heavy modules
(``analysis``, ``baselines``, ``client``, ``server``, ``service``) import
lazily on first attribute access, so ``import repro`` stays light.
"""

from __future__ import annotations

import importlib

import numpy as _np

from . import api, core, datasets, encoders, gpu, metrics, predictor, quantizer
from .core.compressor import CuszHi
from .core.config import CR_MODE, TP_MODE, CuszHiConfig
from .core.container import CompressedBlob, ContainerError
from .api.registry import codec_class, codec_name, list_codecs

#: single version source: the CLI (``repro --version``), the HTTP service
#: (``GET /healthz``) and packaging all report this string.
__version__ = "1.7.0"

#: heavy subpackages imported lazily via module ``__getattr__`` — keeping
#: ``import repro`` free of asyncio/http (server, client) and the baseline
#: zoo.  ``client`` and ``faults`` are modules, not packages, but lazy-load
#: the same way.
_LAZY_SUBPACKAGES = ("analysis", "baselines", "client", "faults", "server", "service")

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
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module  # cache: subsequent access skips this hook
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_SUBPACKAGES))


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


def decompress(blob) -> "_np.ndarray":
    """Decompress a :class:`CompressedBlob` or its serialized ``bytes``."""
    return api.decompress(blob)

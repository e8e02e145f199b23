"""``repro.api`` — the unified codec API.

One registry, one request/result contract, shared by every layer of the
system (Python facade, CLI, HTTP server, batch-manifest service, bench):

>>> import numpy as np, repro.api as api
>>> field = np.fromfunction(lambda i, j: np.sin(i / 9) * np.cos(j / 7),
...                         (48, 48)).astype(np.float32)
>>> request = api.build_request(codec="cusz-hi-cr", eb=1e-3)
>>> result = api.compress(field, request)
>>> recon = api.decompress(result.blob)
>>> bool(np.max(np.abs(field - recon)) <= result.error_bound)
True
>>> result.compression_ratio > 1
True

New codecs plug in by implementing the :class:`~repro.api.registry.Codec`
protocol and registering under a name (``@register_codec("my-codec")``
after appending a wire id to ``CODEC_IDS``); every consumer — CLI
``--codec`` flags, ``POST /compress?codec=``, manifest ``codec =`` keys,
``repro bench --codec`` — picks them up without further wiring.
"""

from __future__ import annotations

import importlib

import numpy as np

from .registry import (
    CODEC_IDS,
    CapabilityError,
    Codec,
    CodecCapabilities,
    CodecEntry,
    CodecRegistry,
    UnknownCodecError,
    codec_class,
    codec_name,
    list_codecs,
    register_codec,
    register_kernel,
    registry,
)
from .request import (
    DEFAULT_CODEC,
    EXECUTORS,
    REQUEST_SCHEMA,
    CompressionRequest,
    CompressionResult,
    ErrorBoundSpec,
    PipelineSpec,
    RequestError,
    TilingSpec,
    build_request,
    check_executor,
)

__all__ = [
    "REQUEST_SCHEMA",
    "DEFAULT_CODEC",
    "EXECUTORS",
    "CODEC_IDS",
    "RequestError",
    "UnknownCodecError",
    "CapabilityError",
    "ErrorBoundSpec",
    "TilingSpec",
    "PipelineSpec",
    "CompressionRequest",
    "CompressionResult",
    "Codec",
    "CodecCapabilities",
    "CodecEntry",
    "CodecRegistry",
    "registry",
    "register_codec",
    "register_kernel",
    "build_request",
    "check_executor",
    "codec_class",
    "codec_name",
    "list_codecs",
    "compress",
    "decompress",
    "kernel_for",
]


def compress(data, request: CompressionRequest | None = None, **kwargs) -> CompressionResult:
    """Compress ``data`` under a :class:`CompressionRequest`.

    ``kwargs`` (``codec=``, ``mode=``, ``eb=``, ``tiles=``, ...) feed
    :func:`build_request` when no request is given; passing both is an
    error — override the request explicitly instead.
    """
    if request is None:
        request = build_request(**kwargs)
    elif kwargs:
        raise RequestError("pass either a request or build_request keywords, not both")
    codec = registry.get(request.codec)
    return codec.compress(request.with_data(data))


def decompress(blob) -> np.ndarray:
    """Reconstruct the field from a container blob or its serialized bytes.

    Dispatch is blob-driven: the wire id in the header picks the kernel, so
    any registered codec's stream decodes without knowing who produced it.
    Raises :class:`UnknownCodecError` for ids nothing has registered.
    """
    from ..core.container import CompressedBlob

    if isinstance(blob, (bytes, bytearray, memoryview)):
        blob = CompressedBlob.from_bytes(bytes(blob))
    return codec_class(blob.codec)().decompress(blob)


def kernel_for(request: CompressionRequest):
    """The configured kernel-level compressor (``compress(data, eb)``) for a
    request — what :class:`~repro.core.streaming.StreamWriter` and the
    analysis harness build on when they need the raw engine."""
    codec = registry.get(request.codec)
    return codec.kernel(request)


# ``import repro.api`` loads the whole engine (``import repro`` itself is
# lazy), so a caller pays for it here and not inside its first compress.
for _name in ("core.compressor", "core.selector", "core.streaming", "core.tiling",
              "datasets", "encoders", "gpu", "metrics", "predictor", "quantizer"):
    importlib.import_module(f"..{_name}", __name__)
del _name

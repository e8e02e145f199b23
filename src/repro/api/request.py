"""The one request/result contract every layer of the system speaks.

Before this module existed the repo had five parallel entry contracts —
``CuszHi(config).compress(data, eb)``, per-baseline ad-hoc signatures, CLI
flag soup, ``service.manifest`` JobSpec dicts and raw server query strings —
each re-implementing error-bound resolution, tiling/executor selection and
pipeline choice.  Now there is exactly one option set:

* :class:`ErrorBoundSpec` — the bound ``value`` plus its ``mode``
  (``"rel"`` value-range-relative, the paper convention, or ``"abs"``);
* :class:`TilingSpec` — tile extents plus the executor/worker fan-out for
  the tiled parallel engine;
* :class:`PipelineSpec` — an explicit lossless-pipeline override for codecs
  that support it (the cuSZ-Hi engine family);
* :class:`CompressionRequest` — codec name + the specs above + free-form
  codec ``options`` and string ``meta``, with ``to_dict``/``from_dict``
  (wire schema :data:`REQUEST_SCHEMA`) so HTTP bodies, manifests and CLI
  flags all deserialize into the same object;
* :class:`CompressionResult` — the produced container blob plus derived
  metrics (CR, bitrate, absolute bound) and the data-stripped request.

:func:`build_request` is the single defaulting/validation path: the CLI,
the HTTP server, the batch-manifest parser and the ``repro.compress``
back-compat shim all funnel their inputs through it.

Examples
--------
>>> req = build_request(eb=1e-3)
>>> req.codec, req.error_bound.value, req.error_bound.mode
('cusz-hi-cr', 0.001, 'rel')
>>> tiled = build_request(mode="tp", eb=1e-2, tiles=(64, 64), workers=2)
>>> tiled.codec, tiled.tiling.tiles
('cusz-hi-tp', (64, 64))
>>> CompressionRequest.from_dict(tiled.to_dict()) == tiled
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isfinite
from typing import Any, Mapping

import numpy as np

from ..defaults import EXECUTORS, REQUEST_SCHEMA

__all__ = [
    "REQUEST_SCHEMA",
    "DEFAULT_CODEC",
    "EXECUTORS",
    "RequestError",
    "ErrorBoundSpec",
    "TilingSpec",
    "PipelineSpec",
    "CompressionRequest",
    "CompressionResult",
    "build_request",
    "check_executor",
]

#: the codec a request resolves to when nothing else is asked for
DEFAULT_CODEC = "cusz-hi-cr"


class RequestError(ValueError):
    """Raised when a compression request is structurally invalid."""


def check_executor(executor: str, what: str = "executor") -> str:
    """Validate an executor name (the one place the lineup is enforced)."""
    if executor not in EXECUTORS:
        raise RequestError(f"{what} must be one of {EXECUTORS}, got {executor!r}")
    return executor


# Spec validators shared by requests, batch manifests and eval configs; the
# manifest and config parsers re-raise their RequestError as their own type.


def require(cond: Any, message: str) -> None:
    """Raise ``RequestError(message)`` unless ``cond`` holds."""
    if not cond:
        raise RequestError(message)


def check_dims(value: Any, what: str) -> tuple[int, ...]:
    """A non-empty list of positive ints (shapes, tile extents)."""
    require(
        isinstance(value, (list, tuple))
        and bool(value)
        and all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in value),
        f"{what} must be a non-empty list of positive integers, got {value!r}",
    )
    return tuple(int(d) for d in value)


def check_keys(
    doc: Any, allowed: Any, what: str, not_mapping: str | None = None, unknown: str = "unknown keys"
) -> None:
    """``doc`` is a mapping whose keys all lie in ``allowed``."""
    require(isinstance(doc, Mapping), not_mapping or f"{what} must be a mapping, got {doc!r}")
    extra = set(doc) - set(allowed)
    require(not extra, f"{what}: {unknown} {sorted(extra)}")


def check_count(value: Any, message: str, minimum: int = 0) -> int:
    """An int, not a bool, of at least ``minimum`` (workers, timesteps, seeds)."""
    require(isinstance(value, int) and not isinstance(value, bool) and value >= minimum, message)
    return value


def check_flag(value: Any, what: str) -> bool:
    """A real bool: ``"no"`` or ``0`` is not a flag."""
    require(isinstance(value, bool), f"{what} must be true or false, got {value!r}")
    return value


def check_name(value: Any, message: str) -> str:
    """A string with something besides whitespace in it."""
    require(isinstance(value, str) and value.strip(), message)
    return value


def check_unique(values: list, message: str) -> None:
    """No value repeats; ``message`` is followed by the repeated ones."""
    dupes = sorted({v for v in values if values.count(v) > 1})
    require(not dupes, f"{message} {dupes}")


@dataclass(frozen=True)
class ErrorBoundSpec:
    """An error bound: the value and how it is interpreted.

    ``mode="rel"`` is the paper's value-range-relative convention
    (``abs_eb = value * (max - min)``); ``mode="abs"`` passes the value
    through as the absolute bound.

    >>> ErrorBoundSpec(1e-3).mode
    'rel'
    >>> ErrorBoundSpec(-1.0)
    Traceback (most recent call last):
        ...
    repro.api.request.RequestError: error bound must be a positive finite number, got -1.0
    """

    value: float = 1e-3
    mode: str = "rel"

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise RequestError(f"error bound must be a number, got {self.value!r}")
        if not (self.value > 0 and isfinite(self.value)):
            raise RequestError(f"error bound must be a positive finite number, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))
        if self.mode not in ("rel", "abs"):
            raise RequestError(f"error-bound mode must be 'rel' or 'abs', got {self.mode!r}")

    def to_dict(self) -> dict:
        return {"value": self.value, "mode": self.mode}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ErrorBoundSpec":
        check_keys(doc, {"value", "mode"}, "error_bound")
        return cls(value=doc.get("value", 1e-3), mode=doc.get("mode", "rel"))


@dataclass(frozen=True)
class TilingSpec:
    """Tiled-parallel execution: tile extents plus the worker fan-out.

    ``executor=None`` means "the codec's default" (threads for the tiled
    engine); ``workers=0`` auto-sizes to the visible CPU count.
    """

    tiles: tuple[int, ...]
    executor: str | None = None
    workers: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tiles", check_dims(self.tiles, "tiles"))
        if self.executor is not None:
            check_executor(self.executor, "tiling executor")
        check_count(
            self.workers, f"tiling workers must be an integer >= 0 (0 = auto), got {self.workers!r}"
        )

    def to_dict(self) -> dict:
        return {"tiles": list(self.tiles), "executor": self.executor, "workers": self.workers}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TilingSpec":
        check_keys(doc, {"tiles", "executor", "workers"}, "tiling")
        if "tiles" not in doc:
            raise RequestError("tiling needs a 'tiles' list")
        return cls(
            tiles=tuple(doc["tiles"]) if isinstance(doc["tiles"], list) else doc["tiles"],
            executor=doc.get("executor"),
            workers=doc.get("workers", 0),
        )


@dataclass(frozen=True)
class PipelineSpec:
    """Explicit lossless-pipeline override (cuSZ-Hi engine family only).

    ``name`` is a :mod:`repro.encoders.pipelines` pipeline (``"HF"``,
    ``"HF+RRE4-TCMS8-RZE1"``, ...); the codec resolves it at dispatch time.
    """

    name: str

    def __post_init__(self):
        check_name(self.name, f"pipeline name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "name", self.name.strip())

    def to_dict(self) -> dict:
        return {"name": self.name}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "PipelineSpec":
        check_keys(doc, {"name"}, "pipeline")
        if "name" not in doc:
            raise RequestError("pipeline needs a 'name'")
        return cls(name=doc["name"])


def _as_pairs(value: Any, what: str, value_types: tuple) -> tuple[tuple[str, Any], ...]:
    if value is None:
        return ()
    items = value.items() if isinstance(value, Mapping) else value
    out = []
    try:
        for k, v in items:
            require(isinstance(k, str) and k, f"{what} keys must be non-empty strings, got {k!r}")
            require(
                isinstance(v, value_types),
                f"{what}[{k!r}] must be one of {value_types}, got {v!r}",
            )
            out.append((k, v))
    except RequestError:
        raise
    except (TypeError, ValueError):
        raise RequestError(
            f"{what} must be a mapping or iterable of pairs, got {value!r}"
        ) from None
    return tuple(sorted(out))


@dataclass(frozen=True)
class CompressionRequest:
    """Everything a codec needs to compress one field, minus nothing.

    The request is frozen and hashable (the ``data`` payload is excluded
    from equality/hashing); ``to_dict``/``from_dict`` serialize the option
    set — never the data — under schema :data:`REQUEST_SCHEMA`.

    >>> req = CompressionRequest(codec="fzgpu", error_bound=1e-2)
    >>> req.error_bound
    ErrorBoundSpec(value=0.01, mode='rel')
    >>> sorted(req.to_dict())
    ['codec', 'error_bound', 'meta', 'options', 'pipeline', 'schema', 'tiling']
    """

    codec: str = DEFAULT_CODEC
    error_bound: ErrorBoundSpec = field(default_factory=ErrorBoundSpec)
    tiling: TilingSpec | None = None
    pipeline: PipelineSpec | None = None
    #: codec-specific knobs (e.g. ``{"rate": 8.0}`` for cuzfp)
    options: tuple[tuple[str, Any], ...] = ()
    #: free-form string metadata carried through to consumers
    meta: tuple[tuple[str, str], ...] = ()
    #: the field to compress; rides along but is never serialized/compared
    data: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_name(self.codec, f"codec must be a non-empty string, got {self.codec!r}")
        object.__setattr__(self, "codec", self.codec.strip())
        eb = self.error_bound
        if isinstance(eb, (int, float)) and not isinstance(eb, bool):
            eb = ErrorBoundSpec(value=eb)
        elif isinstance(eb, Mapping):
            eb = ErrorBoundSpec.from_dict(eb)
        if not isinstance(eb, ErrorBoundSpec):
            raise RequestError(f"error_bound must be an ErrorBoundSpec or number, got {eb!r}")
        object.__setattr__(self, "error_bound", eb)
        tiling = self.tiling
        if isinstance(tiling, (list, tuple)):
            tiling = TilingSpec(tiles=tuple(tiling))
        elif isinstance(tiling, Mapping):
            tiling = TilingSpec.from_dict(tiling)
        if tiling is not None and not isinstance(tiling, TilingSpec):
            raise RequestError(f"tiling must be a TilingSpec, tile tuple or None, got {tiling!r}")
        object.__setattr__(self, "tiling", tiling)
        pipeline = self.pipeline
        if isinstance(pipeline, str):
            pipeline = PipelineSpec(name=pipeline)
        elif isinstance(pipeline, Mapping):
            pipeline = PipelineSpec.from_dict(pipeline)
        if pipeline is not None and not isinstance(pipeline, PipelineSpec):
            raise RequestError(f"pipeline must be a PipelineSpec, name or None, got {pipeline!r}")
        object.__setattr__(self, "pipeline", pipeline)
        object.__setattr__(
            self, "options", _as_pairs(self.options, "options", (str, int, float, bool))
        )
        object.__setattr__(self, "meta", _as_pairs(self.meta, "meta", (str,)))

    # ------------------------------------------------------------ conveniences
    def option(self, key: str, default=None):
        return dict(self.options).get(key, default)

    def with_data(self, data) -> "CompressionRequest":
        """The same request carrying ``data`` as its payload."""
        return replace(self, data=data)

    def without_data(self) -> "CompressionRequest":
        return replace(self, data=None) if self.data is not None else self

    # ------------------------------------------------------------------- wire
    def to_dict(self) -> dict:
        """Serialize the option set (schema ``repro.request/1``); no data."""
        return {
            "schema": REQUEST_SCHEMA,
            "codec": self.codec,
            "error_bound": self.error_bound.to_dict(),
            "tiling": self.tiling.to_dict() if self.tiling else None,
            "pipeline": self.pipeline.to_dict() if self.pipeline else None,
            "options": dict(self.options),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "CompressionRequest":
        """Validate + deserialize a ``to_dict`` document (unknown keys and a
        foreign schema id are rejected, not ignored)."""
        check_keys(
            doc,
            {"schema", "codec", "error_bound", "tiling", "pipeline", "options", "meta"},
            "request",
        )
        schema = doc.get("schema", REQUEST_SCHEMA)
        if schema != REQUEST_SCHEMA:
            raise RequestError(f"request schema {schema!r} is not {REQUEST_SCHEMA!r}")
        return cls(
            codec=doc.get("codec", DEFAULT_CODEC),
            error_bound=doc.get("error_bound", ErrorBoundSpec()),
            tiling=doc.get("tiling"),
            pipeline=doc.get("pipeline"),
            options=doc.get("options"),
            meta=doc.get("meta"),
        )


@dataclass(frozen=True)
class CompressionResult:
    """One codec invocation's outcome: the container blob plus derived
    metrics and the (data-stripped) request that produced it."""

    blob: Any  # CompressedBlob (kept untyped to keep this module import-light)
    codec: str
    request: CompressionRequest
    wall_s: float = 0.0

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.blob.shape)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.blob.dtype)

    @property
    def error_bound(self) -> float:
        """The *absolute* bound the produced stream guarantees."""
        return float(self.blob.error_bound)

    @property
    def nbytes(self) -> int:
        return int(self.blob.nbytes)

    @property
    def compression_ratio(self) -> float:
        return float(self.blob.compression_ratio)

    @property
    def bitrate(self) -> float:
        return float(self.blob.bitrate)

    def to_bytes(self) -> bytes:
        """Serialize the container (delegates to the blob)."""
        return self.blob.to_bytes()

    def to_dict(self) -> dict:
        """JSON-ready summary (reports, HTTP headers, job rows)."""
        return {
            "codec": self.codec,
            "shape": list(self.shape),
            "dtype": self.dtype.name,
            "eb_abs": self.error_bound,
            "nbytes": self.nbytes,
            "cr": self.compression_ratio,
            "bitrate": self.bitrate,
            "wall_s": round(self.wall_s, 6),
        }


def build_request(
    codec: str | None = None,
    mode: str | None = None,
    eb: float | None = None,
    eb_mode: str | None = None,
    tiles: tuple[int, ...] | None = None,
    workers: int | None = None,
    executor: str | None = None,
    pipeline: str | PipelineSpec | None = None,
    options: Mapping | None = None,
    meta: Mapping | None = None,
    base: CompressionRequest | None = None,
    resolve: bool = True,
) -> CompressionRequest:
    """The single defaulting + validation path from loose knobs to a request.

    Every consumer layer (CLI flags, HTTP query parameters, batch-manifest
    fields, the deprecated ``repro.compress`` keywords) funnels through
    here, so the rules live in exactly one place:

    * ``mode`` (``"cr"``/``"tp"``) is sugar for the two published cuSZ-Hi
      codecs and conflicts with an explicit ``codec``;
    * ``workers``/``executor`` without ``tiles`` is an error (they describe
      the tiled fan-out);
    * ``base`` seeds every unspecified knob (manifest job defaults flowing
      into per-field overrides); overriding ``codec`` drops the base's
      codec-specific carry-overs (tiling, pipeline, options) unless they
      are re-specified;
    * with ``resolve=True`` (default) the codec name is checked against the
      registry and the request is validated against the codec's declared
      capabilities (unknown name / tiling on a non-tiling codec fail here,
      not at dispatch time).

    >>> build_request().codec
    'cusz-hi-cr'
    >>> build_request(mode="tp", codec="cusz-l")
    Traceback (most recent call last):
        ...
    repro.api.request.RequestError: mode='tp' conflicts with codec='cusz-l'; mode is sugar for the cusz-hi codecs
    """
    explicit_codec = codec is not None
    if mode is not None:
        if mode not in ("cr", "tp"):
            raise RequestError(f"mode must be 'cr' or 'tp', got {mode!r}")
        if codec is not None:
            raise RequestError(
                f"mode={mode!r} conflicts with codec={codec!r}; "
                "mode is sugar for the cusz-hi codecs"
            )
        codec = f"cusz-hi-{mode}"

    # Only an *explicit* codec override drops the base's codec-specific
    # carry-overs; mode sugar switches between engine variants, which all
    # share the same tiling/pipeline semantics.
    codec_changed = explicit_codec and base is not None and codec != base.codec
    if base is not None:
        resolved_codec = codec if codec is not None else base.codec
        eb_spec = ErrorBoundSpec(
            value=eb if eb is not None else base.error_bound.value,
            mode=eb_mode if eb_mode is not None else base.error_bound.mode,
        )
        base_tiling = None if codec_changed else base.tiling
        base_pipeline = None if codec_changed else base.pipeline
        base_options = () if codec_changed else base.options
        base_meta = base.meta
    else:
        resolved_codec = codec if codec is not None else DEFAULT_CODEC
        eb_spec = ErrorBoundSpec(
            value=eb if eb is not None else 1e-3,
            mode=eb_mode if eb_mode is not None else "rel",
        )
        base_tiling = base_pipeline = None
        base_options = base_meta = ()

    if tiles is not None:
        tiling = TilingSpec(
            # Non-sequence values pass through raw so TilingSpec rejects
            # them with a RequestError instead of tuple() raising TypeError.
            tiles=tuple(tiles) if isinstance(tiles, (list, tuple)) else tiles,
            executor=executor,
            workers=0 if workers is None else workers,
        )
    else:
        if executor is not None or workers:
            raise RequestError("workers/executor require tiles (they describe the tiled fan-out)")
        tiling = base_tiling

    if pipeline is not None:
        pipeline_spec = pipeline if isinstance(pipeline, PipelineSpec) else PipelineSpec(pipeline)
    else:
        pipeline_spec = base_pipeline

    merged_options = dict(base_options)
    if options:
        merged_options.update(options)
    merged_meta = dict(base_meta)
    if meta:
        merged_meta.update(meta)

    request = CompressionRequest(
        codec=resolved_codec,
        error_bound=eb_spec,
        tiling=tiling,
        pipeline=pipeline_spec,
        options=merged_options,
        meta=merged_meta,
    )
    if resolve:
        from .registry import registry

        registry.validate_request(request)
    return request

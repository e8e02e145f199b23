"""Manifest-driven batch job specification (the service's input format).

A manifest describes a *corpus* — many fields compressed, stored and
retrieved together — the way SDRBench archives, climate ensembles and RTM
shot gathers actually arrive.  It is a TOML (Python >= 3.11, via ``tomllib``)
or JSON document with one ``[job]`` table of defaults and a ``[[fields]]``
array of per-field entries::

    [job]
    name = "climate-q3"
    eb = 1e-3              # value-range-relative bound (default for fields)
    mode = "cr"            # "cr" | "tp"
    executor = "processes" # field-level fan-out: serial | threads | processes
    workers = 0            # 0 = auto-size to the visible CPU count

    [[fields]]
    name = "temperature"
    dataset = "cesm-atm"   # repro.datasets registry reference
    shape = [128, 256]     # optional shape override
    seed = 1

    [[fields]]
    name = "pressure"
    path = "pressure_96_96_96.f32"   # SDRBench raw file instead of a dataset
    eb = 1e-4              # per-field override
    tiles = [48, 48, 48]   # tiled multi-frame entry (random-access decode)

    [[fields]]
    name = "shots"
    dataset = "rtm"
    timesteps = 4          # >1: snapshot-stream entry (core.streaming)
    temporal = true        # delta-compress successive snapshots

Compression semantics (``eb``/``mode``/``codec``/``tiles``/``pipeline``)
are **not** validated here: each field's knobs become per-field overrides
of the job-level :class:`repro.api.CompressionRequest`
(:meth:`FieldSpec.request`), so the one request validation path — including
codec-capability checks like "this codec cannot tile" — runs at parse time
and raises :class:`ManifestError` with the field's name attached.

Structural errors (no fields, duplicate names, unknown dataset, conflicting
keys) also raise :class:`ManifestError` at parse time; *runtime* problems
(a raw file missing on disk, a compression failure) are left to the
runner's per-field failure isolation so one bad field cannot sink the
corpus.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..api import (
    CapabilityError,
    CompressionRequest,
    ErrorBoundSpec,
    RequestError,
    UnknownCodecError,
    build_request,
    check_executor,
    registry,
)
from ..api.request import (
    check_count,
    check_dims,
    check_flag,
    check_keys,
    check_name,
    check_unique,
    require,
)

try:  # Python >= 3.11; on 3.10 TOML manifests degrade to a clean error
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on py3.10
    _toml = None

__all__ = [
    "FieldSpec",
    "JobSpec",
    "ManifestError",
    "jobspec_to_doc",
    "load_document",
    "load_manifest",
    "parse_manifest",
    "resolve_field_path",
]

_REQUEST_ERRORS = (RequestError, CapabilityError, UnknownCodecError)


class ManifestError(ValueError):
    """Raised when a manifest file is unreadable, unparsable or invalid."""


@dataclass(frozen=True)
class FieldSpec:
    """One corpus entry: a dataset/file reference plus compression knobs.

    The knobs (``eb``/``mode``/``codec``/``tiles``/``pipeline``) are stored
    raw (``None`` = inherit the job default) and resolved through
    :meth:`request` into the canonical contract.
    """

    name: str
    dataset: str | None = None
    path: str | None = None
    shape: tuple[int, ...] | None = None
    seed: int = 0
    eb: float | None = None
    mode: str | None = None
    codec: str | None = None
    tiles: tuple[int, ...] | None = None
    pipeline: str | None = None
    timesteps: int = 1
    temporal: bool = False
    #: replication hint for the distributed tier: ``hot = true`` fields are
    #: copied across k shards by ``repro cluster run`` so their reads survive
    #: a lost shard (single-node runners ignore the flag).
    hot: bool = False

    @property
    def is_stream(self) -> bool:
        return self.timesteps > 1

    def request(self, job: "JobSpec") -> CompressionRequest:
        """This field's :class:`~repro.api.CompressionRequest`: the job-level
        request with this entry's overrides applied (the one defaulting and
        validation path — no manifest-local eb/tiling/pipeline rules)."""
        return build_request(
            base=job.request(),
            codec=self.codec,
            mode=None if self.codec is not None else self.mode,
            eb=self.eb,
            tiles=self.tiles,
            pipeline=self.pipeline,
        )


@dataclass(frozen=True)
class JobSpec:
    """A parsed manifest: job-level defaults plus the field corpus."""

    name: str
    eb: float = 1e-3
    mode: str = "cr"
    executor: str = "serial"
    workers: int = 0
    tiles: tuple[int, ...] | None = None
    pipeline: str | None = None
    base_dir: str = "."
    fields: tuple[FieldSpec, ...] = field(default_factory=tuple)

    def request(self) -> CompressionRequest:
        """The job-level default :class:`~repro.api.CompressionRequest`."""
        return build_request(
            mode=self.mode,
            eb=self.eb,
            tiles=self.tiles,
            pipeline=self.pipeline,
        )

    def resolve_path(self, spec: FieldSpec) -> str:
        """Raw-file refs are relative to the manifest's directory."""
        return resolve_field_path(self.base_dir, spec)


def resolve_field_path(base_dir: str, spec: FieldSpec) -> str:
    """The one place manifest-relative raw paths are resolved (runner + cost
    estimation must agree on what a field ref points at)."""
    assert spec.path is not None
    if os.path.isabs(spec.path):
        return spec.path
    return os.path.join(base_dir, spec.path)


_FIELD_KEYS = frozenset(
    (
        "name",
        "dataset",
        "path",
        "shape",
        "dims",
        "seed",
        "eb",
        "mode",
        "codec",
        "tiles",
        "pipeline",
        "timesteps",
        "temporal",
        "hot",
    )
)

_JOB_KEYS = frozenset(("name", "eb", "mode", "executor", "workers", "tiles", "pipeline"))


def _parse_field(raw: dict, pos: int) -> FieldSpec:
    """Structural validation of one ``[[fields]]`` entry (data source, shape,
    stream geometry); compression knobs are carried raw and validated by the
    request layer in :func:`parse_manifest`."""
    check_keys(raw, _FIELD_KEYS, f"fields[{pos}]", f"fields[{pos}] must be a table/object")
    name = check_name(raw.get("name"), f"fields[{pos}] needs a non-empty 'name'")
    dataset, path = raw.get("dataset"), raw.get("path")
    require(
        (dataset is None) != (path is None),
        f"field {name!r} must set exactly one of 'dataset' or 'path'",
    )
    if dataset is not None:
        from ..datasets.registry import get_info

        try:
            get_info(dataset)
        except KeyError as exc:
            raise ManifestError(f"field {name!r}: {exc.args[0]}") from None
    require(
        not ("shape" in raw and "dims" in raw),
        f"field {name!r}: set 'shape' or its alias 'dims', not both",
    )
    shape = raw.get("shape", raw.get("dims"))
    if shape is not None:
        shape = check_dims(shape, f"field {name!r} shape")
    timesteps = check_count(
        raw.get("timesteps", 1), f"field {name!r}: timesteps must be an integer >= 1", minimum=1
    )
    require(
        timesteps == 1 or path is None,
        f"field {name!r}: snapshot streams (timesteps > 1) need a 'dataset' reference",
    )
    seed = check_count(raw.get("seed", 0), f"field {name!r}: seed must be an integer >= 0")
    eb = raw.get("eb")
    tiles = raw.get("tiles")
    return FieldSpec(
        name=name.strip(),
        dataset=dataset,
        path=path,
        shape=shape,
        seed=seed,
        eb=float(eb) if isinstance(eb, (int, float)) and not isinstance(eb, bool) else eb,
        mode=raw.get("mode"),
        codec=raw.get("codec"),
        tiles=tuple(tiles) if isinstance(tiles, list) else tiles,
        pipeline=raw.get("pipeline"),
        timesteps=timesteps,
        temporal=check_flag(raw.get("temporal", False), f"field {name!r}: temporal"),
        hot=check_flag(raw.get("hot", False), f"field {name!r}: hot"),
    )


def parse_manifest(doc: dict, base_dir: str = ".", default_name: str = "batch") -> JobSpec:
    """Validate a decoded manifest document into a :class:`JobSpec`.

    Examples
    --------
    >>> spec = parse_manifest({
    ...     "job": {"name": "demo", "eb": 1e-3, "executor": "threads"},
    ...     "fields": [{"name": "rho", "dataset": "nyx", "shape": [32, 32, 32]},
    ...                {"name": "p", "path": "p_96_96_96.f32", "eb": 1e-4}],
    ... })
    >>> spec.name, spec.executor, len(spec.fields)
    ('demo', 'threads', 2)
    >>> spec.fields[0].shape, spec.fields[1].eb
    ((32, 32, 32), 0.0001)
    >>> spec.fields[1].request(spec).error_bound
    ErrorBoundSpec(value=0.0001, mode='rel')

    Structural problems surface immediately, not at run time:

    >>> parse_manifest({"fields": []})
    Traceback (most recent call last):
        ...
    repro.service.manifest.ManifestError: manifest needs a non-empty 'fields' array
    """
    try:
        return _parse_manifest(doc, base_dir, default_name)
    except RequestError as exc:  # the shared spec validators
        raise ManifestError(str(exc)) from None


def _parse_manifest(doc: dict, base_dir: str, default_name: str) -> JobSpec:
    check_keys(
        doc,
        ("job", "fields"),
        "manifest",
        "manifest root must be a table/object",
        unknown="unknown top-level keys",
    )
    job = doc.get("job", {})
    check_keys(job, _JOB_KEYS, "job", "'job' must be a table/object")
    raw_fields = doc.get("fields")
    require(
        isinstance(raw_fields, list) and raw_fields,
        "manifest needs a non-empty 'fields' array",
    )
    eb = job.get("eb", 1e-3)
    try:
        ErrorBoundSpec(value=eb)  # the one shared bound validation
    except RequestError as exc:
        raise ManifestError(f"job.eb: {exc}") from None
    executor = check_executor(job.get("executor", "serial"), "job.executor")
    workers = check_count(job.get("workers", 0), "job.workers must be >= 0 (0 = auto)")
    name = check_name(job.get("name", default_name), "job.name must be a non-empty string")
    fields = tuple(_parse_field(raw, i) for i, raw in enumerate(raw_fields))
    check_unique([f.name for f in fields], "duplicate field names:")
    tiles = job.get("tiles")
    spec = JobSpec(
        name=name,
        eb=float(eb),
        mode=job.get("mode", "cr"),
        executor=executor,
        workers=workers,
        tiles=tuple(tiles) if isinstance(tiles, list) else tiles,
        pipeline=job.get("pipeline"),
        base_dir=base_dir,
        fields=fields,
    )
    # Resolve every request once at parse time: the single validation path
    # (repro.api.build_request + codec capabilities) rejects bad eb/mode/
    # codec/tiles/pipeline combinations before any compute is scheduled.
    try:
        spec.request()
    except _REQUEST_ERRORS as exc:
        raise ManifestError(f"job: {exc}") from None
    for f in fields:
        try:
            request = f.request(spec)
        except _REQUEST_ERRORS as exc:
            raise ManifestError(f"field {f.name!r}: {exc}") from None
        # Streaming is a per-codec capability like tiling: reject snapshot
        # streams on codecs that cannot serve as a StreamWriter kernel here,
        # not with an opaque TypeError deep inside the runner.
        if f.is_stream and not registry.capabilities(request.codec).streaming:
            raise ManifestError(
                f"field {f.name!r}: codec {request.codec!r} does not support "
                "snapshot streams (timesteps > 1)"
            )
    return spec


def load_document(path: str, error_cls: type[ValueError], what: str) -> dict:
    """Read a TOML or JSON document, the format chosen by suffix.

    Shared by :func:`load_manifest` and the eval orchestrator's
    ``load_config``: every failure raises ``error_cls`` with a message that
    names ``path`` and ``what`` (``"manifest"`` or ``"config"``).
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error_cls(f"cannot read {what} {path}: {exc.strerror or exc}") from None

    def loads_json() -> dict:
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error_cls(f"{path}: invalid JSON {what}: {exc}") from None

    def loads_toml() -> dict:
        if _toml is None:
            raise error_cls(
                f"{path}: TOML {what}s need Python >= 3.11 (tomllib); use a JSON {what} here"
            )
        try:
            return _toml.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, _toml.TOMLDecodeError) as exc:
            raise error_cls(f"{path}: invalid TOML {what}: {exc}") from None

    suffix = os.path.splitext(path)[1].lower()
    if suffix == ".json":
        return loads_json()
    if suffix == ".toml":
        return loads_toml()
    try:  # no/unknown suffix: try JSON first (a strict subset), then TOML
        return loads_json()
    except error_cls:
        return loads_toml()


def load_manifest(path: str) -> JobSpec:
    """Read + parse a TOML/JSON manifest file (format chosen by suffix)."""
    doc = load_document(path, ManifestError, "manifest")
    base_dir = os.path.dirname(os.path.abspath(path))
    default_name = os.path.splitext(os.path.basename(path))[0]
    return parse_manifest(doc, base_dir=base_dir, default_name=default_name)


def jobspec_to_doc(spec: JobSpec) -> dict:
    """Serialize a parsed :class:`JobSpec` back into a manifest document.

    The distributed tier's coordinator ships the job to its workers over
    HTTP as exactly this document; :func:`parse_manifest` round-trips it, so
    workers validate through the same single path the CLI and the batch
    runner use.  Raw-file paths stay manifest-relative — the worker receives
    the coordinator's ``base_dir`` alongside the document.

    >>> spec = parse_manifest({
    ...     "job": {"name": "demo", "eb": 1e-3},
    ...     "fields": [{"name": "rho", "dataset": "nyx", "shape": [8, 8, 8],
    ...                 "hot": True}],
    ... })
    >>> respec = parse_manifest(jobspec_to_doc(spec))
    >>> respec.fields == spec.fields and respec.name == spec.name
    True
    >>> respec.fields[0].hot
    True
    """
    job: dict = {
        "name": spec.name,
        "eb": spec.eb,
        "mode": spec.mode,
        "executor": spec.executor,
        "workers": spec.workers,
    }
    if spec.tiles is not None:
        job["tiles"] = list(spec.tiles)
    if spec.pipeline is not None:
        job["pipeline"] = spec.pipeline
    fields = []
    for f in spec.fields:
        doc: dict = {"name": f.name}
        if f.dataset is not None:
            doc["dataset"] = f.dataset
        if f.path is not None:
            doc["path"] = f.path
        if f.shape is not None:
            doc["shape"] = list(f.shape)
        if f.seed:
            doc["seed"] = f.seed
        for key in ("eb", "mode", "codec", "pipeline"):
            value = getattr(f, key)
            if value is not None:
                doc[key] = value
        if f.tiles is not None:
            doc["tiles"] = list(f.tiles)
        if f.timesteps != 1:
            doc["timesteps"] = f.timesteps
        if f.temporal:
            doc["temporal"] = True
        if f.hot:
            doc["hot"] = True
        fields.append(doc)
    return {"job": job, "fields": fields}


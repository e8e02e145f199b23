"""Experiment-matrix configs: one TOML file per paper figure/table.

A config declares the run matrix **declaratively** — which datasets, which
codecs (or ablation steps), which error bounds / rates, which tilings — and
the orchestrator (:mod:`repro.evaluation.runner`) expands it into
:class:`~repro.api.CompressionRequest` cells.  The committed files under
``configs/`` reproduce the paper: ``configs/fig8.toml`` (rate-distortion),
``configs/table4.toml`` (fixed-eb CR), ``configs/table5.toml`` (ablation)
and ``configs/smoke.toml`` (CI-sized).

Format::

    [eval]
    title = "Table 4 — fixed-eb compression ratios"
    kind = "cr-table"              # "cr-table" | "rate-distortion" | "ablation"

    [matrix]
    datasets = ["nyx", "miranda"]  # repro.datasets registry names
    codecs = ["cusz-hi-cr", "cusz-l", "cuzfp"]
    ebs = [1e-2, 1e-3]             # relative bounds for error-bounded codecs
    # eb_mode = "rel"              # or "abs"
    # tilings = [[48, 48, 48]]     # extra tiled-execution axis (engine only)
    # steps = ["cusz-ib", ...]     # kind="ablation" replaces codecs with steps

    [matrix.rates]                 # fixed-rate codecs sweep rates, not bounds
    cuzfp = [2.0, 4.0, 8.0]

    [datasets.nyx]                 # optional per-dataset overrides
    shape = [16, 16, 16]
    seed = 0

    [execution]
    executor = "serial"            # serial | threads | processes
    workers = 0                    # 0 = auto-size to the CPU count

Validation is **parse-time and total**: every cell the matrix will expand to
is checked against the codec registry's declared capabilities here, and a
:class:`ConfigError` always names the offending TOML key (``matrix.codecs[2]
= 'gzip'``, ``matrix.tilings[0] x matrix.codecs[1]``, ...), so a config
never fails halfway through a multi-hour run.

Examples
--------
>>> cfg = parse_config({
...     "eval": {"kind": "cr-table"},
...     "matrix": {"datasets": ["nyx"], "codecs": ["cusz-hi-cr"], "ebs": [1e-3]},
... }, name="demo")
>>> cfg.kind, cfg.datasets[0].name, cfg.ebs
('cr-table', 'nyx', (0.001,))
>>> parse_config({"eval": {"kind": "cr-table"},
...               "matrix": {"datasets": ["mars"], "codecs": ["cusz-l"],
...                          "ebs": [1e-3]}})
Traceback (most recent call last):
    ...
repro.evaluation.config.ConfigError: matrix.datasets[0] = 'mars': unknown dataset; known: ['cesm-atm', 'hurricane', 'jhtdb', 'miranda', 'nyx', 'qmcpack', 'rtm', 'scale-letkf']
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import isfinite

from ..api import (
    CapabilityError,
    RequestError,
    UnknownCodecError,
    build_request,
    check_executor,
    registry,
)
from ..api.request import check_count, check_dims, check_keys, check_name, check_unique, require
from ..service.manifest import load_document

__all__ = [
    "KINDS",
    "ConfigError",
    "DatasetRef",
    "EvalConfig",
    "ablation_step_labels",
    "load_config",
    "parse_config",
]

#: the figure/table shapes the report renderer knows how to lay out
KINDS = ("cr-table", "rate-distortion", "ablation")

_REQUEST_ERRORS = (RequestError, CapabilityError, UnknownCodecError)


class ConfigError(ValueError):
    """Raised when an experiment config is unreadable, unparsable or names
    a cell the registry's capabilities cannot honor.  The message always
    carries the offending TOML key."""


def ablation_step_labels() -> tuple[str, ...]:
    """The Table 5 increment labels, in column order (the ``matrix.steps``
    vocabulary; imported lazily so parsing configs stays engine-free)."""
    from ..analysis.ablation import ABLATION_STEPS

    return tuple(label for label, _ in ABLATION_STEPS)


@dataclass(frozen=True)
class DatasetRef:
    """One dataset axis entry: registry name plus optional shape/seed."""

    name: str
    shape: tuple[int, ...] | None = None
    seed: int = 0

    @property
    def ndim(self) -> int:
        if self.shape is not None:
            return len(self.shape)
        from ..datasets.registry import get_info

        return len(get_info(self.name).default_shape)


@dataclass(frozen=True)
class EvalConfig:
    """A parsed experiment config: the declarative run matrix."""

    name: str
    title: str
    kind: str
    datasets: tuple[DatasetRef, ...]
    codecs: tuple[str, ...] = ()
    ebs: tuple[float, ...] = ()
    eb_mode: str = "rel"
    rates: tuple[tuple[str, tuple[float, ...]], ...] = ()
    steps: tuple[str, ...] = ()
    tilings: tuple[tuple[int, ...], ...] = ()
    executor: str = "serial"
    workers: int = 0

    def rates_for(self, codec: str) -> tuple[float, ...]:
        return dict(self.rates).get(codec, ())

    def matrix_dict(self) -> dict:
        """The matrix axes as a JSON-ready document (report provenance)."""
        doc: dict = {
            "datasets": [
                {"name": d.name, "shape": list(d.shape) if d.shape else None, "seed": d.seed}
                for d in self.datasets
            ],
            "ebs": list(self.ebs),
            "eb_mode": self.eb_mode,
        }
        if self.kind == "ablation":
            doc["steps"] = list(self.steps)
        else:
            doc["codecs"] = list(self.codecs)
            doc["rates"] = {c: list(r) for c, r in self.rates}
            doc["tilings"] = [list(t) for t in self.tilings]
        return doc


def _check_table(doc, allowed, what: str) -> None:
    check_keys(doc, allowed, what, f"{what} must be a table/object")


def _as_positive_floats(value, what: str) -> tuple[float, ...]:
    require(isinstance(value, list) and value, f"{what} must be a non-empty list of numbers")
    out = []
    for i, v in enumerate(value):
        ok = isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 and isfinite(v)
        require(ok, f"{what}[{i}] = {v!r}: must be a positive finite number")
        out.append(float(v))
    return tuple(out)


_EVAL_KEYS = frozenset(("title", "kind"))
_MATRIX_KEYS = frozenset(("datasets", "codecs", "ebs", "eb_mode", "rates", "steps", "tilings"))
_DATASET_KEYS = frozenset(("shape", "seed"))
_EXECUTION_KEYS = frozenset(("executor", "workers"))


def _parse_datasets(matrix: dict, overrides: dict) -> tuple[DatasetRef, ...]:
    from ..datasets.registry import DATASETS

    names = matrix.get("datasets")
    require(
        isinstance(names, list) and names and all(isinstance(d, str) for d in names),
        "matrix.datasets must be a non-empty list of dataset names",
    )
    check_unique(names, "matrix.datasets: duplicate entries")
    for i, name in enumerate(names):
        require(
            name in DATASETS,
            f"matrix.datasets[{i}] = {name!r}: unknown dataset; known: {sorted(DATASETS)}",
        )
    _check_table(overrides, names, "datasets")
    refs = []
    for name in names:
        over = overrides.get(name, {})
        _check_table(over, _DATASET_KEYS, f"datasets.{name}")
        shape = check_dims(over["shape"], f"datasets.{name}.shape") if "shape" in over else None
        seed = check_count(over.get("seed", 0), f"datasets.{name}.seed must be an integer >= 0")
        refs.append(DatasetRef(name=name, shape=shape, seed=seed))
    return tuple(refs)


def _parse_codecs(matrix: dict) -> tuple[str, ...]:
    raw = matrix.get("codecs")
    require(
        isinstance(raw, list) and raw and all(isinstance(c, str) for c in raw),
        "matrix.codecs must be a non-empty list of codec names",
    )
    check_unique(raw, "matrix.codecs: duplicate entries")
    for i, name in enumerate(raw):
        try:
            registry.entry(name)
        except UnknownCodecError:
            raise ConfigError(
                f"matrix.codecs[{i}] = {name!r}: unknown codec; "
                f"registered codecs: {registry.names()}"
            ) from None
    return tuple(raw)


def _parse_rates(matrix: dict, codecs: tuple[str, ...]) -> tuple[tuple[str, tuple[float, ...]], ...]:
    raw = matrix.get("rates", {})
    require(isinstance(raw, dict), "matrix.rates must be a table of codec -> rate list")
    out = []
    for codec, rates in raw.items():
        require(
            codec in codecs,
            f"matrix.rates.{codec}: codec is not listed in matrix.codecs",
        )
        require(
            not registry.capabilities(codec).error_bounded,
            f"matrix.rates.{codec}: codec is error-bounded; it sweeps matrix.ebs, not rates",
        )
        out.append((codec, _as_positive_floats(rates, f"matrix.rates.{codec}")))
    return tuple(out)


def _parse_tilings(matrix: dict) -> tuple[tuple[int, ...], ...]:
    raw = matrix.get("tilings", [])
    require(isinstance(raw, list), "matrix.tilings must be a list of tile-shape lists")
    return tuple(check_dims(t, f"matrix.tilings[{i}]") for i, t in enumerate(raw))


def _validate_cells(cfg: EvalConfig) -> None:
    """Reject every capability-mismatched cell the matrix would expand to,
    naming the TOML keys that combine into it (the parse-time guarantee).

    Dimensionality is deliberately *not* cross-checked against the codec's
    declared ``dims``: evaluation runs the harness kernel path (like
    :func:`repro.analysis.run_case`), which follows the paper in pushing
    4-D QMCPack through the 3-D-validated baselines.
    """
    rates = dict(cfg.rates)
    for ci, codec in enumerate(cfg.codecs):
        caps = registry.capabilities(codec)
        if caps.error_bounded:
            require(
                bool(cfg.ebs),
                f"matrix.ebs: required (matrix.codecs[{ci}] = {codec!r} is error-bounded)",
            )
        else:
            require(
                codec in rates,
                f"matrix.codecs[{ci}] = {codec!r}: fixed-rate codec needs a rate sweep "
                f"under [matrix.rates] (e.g. {codec} = [4.0, 8.0])",
            )
        if not caps.error_bounded:
            # Rate sweeps expand untiled (a fixed-rate codec has no tiled
            # cells in the matrix), so the tiling axis does not apply.
            continue
        for ti, tiles in enumerate(cfg.tilings):
            if not caps.tiling:
                raise ConfigError(
                    f"matrix.tilings[{ti}] x matrix.codecs[{ci}] = {codec!r}: codec "
                    "does not support tiling (capability mismatch)"
                )
            for di, ref in enumerate(cfg.datasets):
                if len(tiles) != ref.ndim:
                    raise ConfigError(
                        f"matrix.tilings[{ti}] = {list(tiles)} x matrix.datasets[{di}] = "
                        f"{ref.name!r}: tile shape is {len(tiles)}-D, dataset is "
                        f"{ref.ndim}-D"
                    )
            # The one canonical validation path sees each (codec, tiling)
            # combination once, so any rule it adds later is enforced here too.
            try:
                build_request(codec=codec, eb=cfg.ebs[0] if cfg.ebs else None, tiles=tiles)
            except _REQUEST_ERRORS as exc:
                raise ConfigError(
                    f"matrix.tilings[{ti}] x matrix.codecs[{ci}] = {codec!r}: {exc}"
                ) from None


def parse_config(doc: dict, name: str = "eval") -> EvalConfig:
    """Validate a decoded config document into an :class:`EvalConfig`."""
    try:
        return _parse_config(doc, name)
    except RequestError as exc:  # the shared spec validators
        raise ConfigError(str(exc)) from None


def _parse_config(doc: dict, name: str) -> EvalConfig:
    check_keys(
        doc, ("eval", "matrix", "datasets", "execution"), "config",
        "config root must be a table/object",
    )
    ev = doc.get("eval", {})
    _check_table(ev, _EVAL_KEYS, "eval")
    kind = ev.get("kind")
    require(kind in KINDS, f"eval.kind must be one of {list(KINDS)}, got {kind!r}")
    title = check_name(ev.get("title", name), "eval.title must be a non-empty string")

    matrix = doc.get("matrix")
    require(isinstance(matrix, dict), "config needs a [matrix] table")
    _check_table(matrix, _MATRIX_KEYS, "matrix")
    datasets = _parse_datasets(matrix, doc.get("datasets", {}))

    ebs = _as_positive_floats(matrix["ebs"], "matrix.ebs") if "ebs" in matrix else ()
    eb_mode = matrix.get("eb_mode", "rel")
    require(eb_mode in ("rel", "abs"), f"matrix.eb_mode must be 'rel' or 'abs', got {eb_mode!r}")

    execution = doc.get("execution", {})
    _check_table(execution, _EXECUTION_KEYS, "execution")
    executor = check_executor(execution.get("executor", "serial"), "execution.executor")
    workers = check_count(
        execution.get("workers", 0), "execution.workers must be an integer >= 0 (0 = auto)"
    )

    if kind == "ablation":
        for key in ("codecs", "rates", "tilings"):
            require(
                key not in matrix,
                f"matrix.{key}: not allowed for kind='ablation' (use matrix.steps)",
            )
        require(bool(ebs), "matrix.ebs: required for kind='ablation'")
        labels = ablation_step_labels()
        raw_steps = matrix.get("steps", list(labels))
        require(
            isinstance(raw_steps, list) and raw_steps,
            "matrix.steps must be a non-empty list of ablation step labels",
        )
        for i, step in enumerate(raw_steps):
            require(
                step in labels,
                f"matrix.steps[{i}] = {step!r}: unknown ablation step; known: {list(labels)}",
            )
        check_unique(raw_steps, "matrix.steps: duplicate entries")
        return EvalConfig(
            name=name,
            title=title,
            kind=kind,
            datasets=datasets,
            ebs=ebs,
            eb_mode=eb_mode,
            steps=tuple(raw_steps),
            executor=executor,
            workers=workers,
        )

    require("steps" not in matrix, "matrix.steps: only allowed for kind='ablation'")
    codecs = _parse_codecs(matrix)
    cfg = EvalConfig(
        name=name,
        title=title,
        kind=kind,
        datasets=datasets,
        codecs=codecs,
        ebs=ebs,
        eb_mode=eb_mode,
        rates=_parse_rates(matrix, codecs),
        tilings=_parse_tilings(matrix),
        executor=executor,
        workers=workers,
    )
    _validate_cells(cfg)
    return cfg


def load_config(path: str) -> EvalConfig:
    """Read + parse a TOML/JSON experiment config (format by suffix; the
    config's ``name`` defaults to the file's stem)."""
    doc = load_document(path, ConfigError, "config")
    return parse_config(doc, name=os.path.splitext(os.path.basename(path))[0])

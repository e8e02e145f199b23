"""Named lossless pipelines (paper Fig. 6 / Fig. 7) and their registry.

A pipeline is an ordered chain of byte->byte stages.  The two pipelines
shipped inside cuSZ-Hi are::

    cuSZ-Hi-CR:  HF + RRE4 - TCMS8 - RZE1     (entropy + two reducing stages)
    cuSZ-Hi-TP:  TCMS1 - BIT1 - RRE1          (Huffman-free, high throughput)

plus every candidate evaluated in the Fig. 6 benchmarking sweep.  Pipeline
names use the paper's syntax: ``+`` separates the Huffman preprocessor from
the LC stages, ``-`` separates LC components, ``nvCOMP::X``/``GPULZ``/
``ndzip`` name the external codecs.

Each ``encode`` and ``decode`` records a :class:`StageTrace` (per-stage byte
sizes) consumed by the GPU cost model to place the pipeline on the Fig. 6
throughput axis.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .ans import RansCodec
from .bitcomp import BitcompCodec
from .components import make_component
from .deflate import GDEFLATE, LZ4_SURROGATE, ZSTD_SURROGATE
from .gpulz import GpuLzCodec
from .huffman import HuffmanCodec
from .ndzip import NdzipCodec

__all__ = [
    "LosslessPipeline",
    "StageTrace",
    "get_pipeline",
    "parse_pipeline",
    "PIPELINE_CATALOG",
    "CR_PIPELINE",
    "TP_PIPELINE",
]

#: The pipeline names evaluated in Fig. 6 of the paper.
PIPELINE_CATALOG = (
    "HF",
    "HF+RRE1",
    "HF+TUPLQ1-RRE1",
    "HF+RRE4-TCMS8-RZE1",
    "HF+TUPLD2-RRE2-TUPLQ1-RRE1",
    "HF+nvCOMP::ANS",
    "HF+nvCOMP::Bitcomp",
    "HF+nvCOMP::GDeflate",
    "HF+nvCOMP::LZ4",
    "HF+nvCOMP::Zstd",
    "HF+GPULZ",
    "HF+ndzip",
    "RRE1",
    "RRE1-RRE2",
    "TCMS1-BIT1-RRE1",
    "RRE1-RZE1-DIFFMS1-CLOG1",
    "nvCOMP::ANS",
    "nvCOMP::Bitcomp",
    "nvCOMP::GDeflate",
    "nvCOMP::LZ4",
    "nvCOMP::Zstd",
    "GPULZ",
    "ndzip",
)

#: Pipelines selected for the two cuSZ-Hi modes (paper §5.2.2).
CR_PIPELINE = "HF+RRE4-TCMS8-RZE1"
TP_PIPELINE = "TCMS1-BIT1-RRE1"

_ATOMS = {
    "HF": lambda: HuffmanCodec(),
    "nvCOMP::ANS": lambda: RansCodec(),
    "nvCOMP::Bitcomp": lambda: BitcompCodec(),
    "nvCOMP::GDeflate": lambda: GDEFLATE,
    "nvCOMP::LZ4": lambda: LZ4_SURROGATE,
    "nvCOMP::Zstd": lambda: ZSTD_SURROGATE,
    "GPULZ": lambda: GpuLzCodec(),
    "ndzip": lambda: NdzipCodec(),
}


@dataclass
class StageTrace:
    """Byte sizes observed at each stage boundary during one encode (or one
    decode, recorded as the encode of its output would see them)."""

    stage_names: list[str] = field(default_factory=list)
    in_bytes: list[int] = field(default_factory=list)
    out_bytes: list[int] = field(default_factory=list)

    def record(self, name: str, nin: int, nout: int) -> None:
        self.stage_names.append(name)
        self.in_bytes.append(nin)
        self.out_bytes.append(nout)


def parse_pipeline(name: str) -> list[tuple[str, object]]:
    """Parse a pipeline name into ``(stage_name, codec)`` pairs."""
    stages: list[tuple[str, object]] = []
    for group in name.split("+"):
        group = group.strip()
        if group in _ATOMS:
            stages.append((group, _ATOMS[group]()))
            continue
        # A dash-separated LC component chain (dashes inside "nvCOMP::X"
        # atoms never occur).
        for part in group.split("-"):
            part = part.strip()
            if part in _ATOMS:
                stages.append((part, _ATOMS[part]()))
            else:
                stages.append((part, make_component(part)))
    if not stages:
        raise ValueError(f"empty pipeline spec {name!r}")
    return stages


class LosslessPipeline:
    """Composable chain of self-describing lossless stages."""

    def __init__(self, name: str):
        self.name = name
        self.stages = parse_pipeline(name)
        # Instances are shared (``get_pipeline``) by tile threads, so each
        # thread sees the traces of its own calls.
        self._traces = threading.local()

    @property
    def last_trace(self) -> StageTrace | None:
        """Stage sizes of this thread's last ``encode``."""
        return getattr(self._traces, "encode", None)

    @property
    def last_decode_trace(self) -> StageTrace | None:
        """Stage sizes of this thread's last ``decode``, in encode order."""
        return getattr(self._traces, "decode", None)

    def encode(self, buf: bytes) -> bytes:
        trace = StageTrace()
        # Stages slice and concatenate bytes; normalize bytes-like input
        # (e.g. zero-copy container memoryviews) once at the boundary.
        data = bytes(buf) if not isinstance(buf, bytes) else buf
        for sname, codec in self.stages:
            nin = len(data)
            data = codec.encode(data)
            trace.record(sname, nin, len(data))
        self._traces.encode = trace
        return data

    def decode(self, buf: bytes) -> bytes:
        data = bytes(buf) if not isinstance(buf, bytes) else buf
        sizes = []
        for sname, codec in reversed(self.stages):
            nout = len(data)
            data = codec.decode(data)
            sizes.append((sname, len(data), nout))
        trace = StageTrace()
        for stage in reversed(sizes):
            trace.record(*stage)
        self._traces.decode = trace
        return data

    def ratio_on(self, buf: bytes) -> float:
        if not buf:
            return 1.0
        return len(buf) / max(1, len(self.encode(buf)))

    def __repr__(self) -> str:
        return f"<LosslessPipeline {self.name}>"


_CACHE: dict[str, LosslessPipeline] = {}


def get_pipeline(name: str) -> LosslessPipeline:
    """Shared pipeline instances (stages are stateless between calls except
    for the informational, per-thread ``last_trace`` and
    ``last_decode_trace``)."""
    if name not in _CACHE:
        _CACHE[name] = LosslessPipeline(name)
    return _CACHE[name]

"""Spans and call counts recorded from the benchmark's own files.

The program carries no tracing of its own yet, so a traced run swaps each
layer's public function for a thin wrapper that opens a span around the
original (:class:`LayerPatches`) and puts the originals back afterwards.
Spans stay in memory; ``run.py`` folds them into per-layer metrics at the
end of the run.  :class:`CallCounter` is the separate ``sys.setprofile``
pass behind the ``calls_per_*`` metrics; it runs after the timed pass so
its cost never reaches a span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from metrics import CALL_MODULES


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of one thread; a span's parent is the innermost span
    open when it started, and every span carries the op id of its root."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: op id -> label (the input's shape) for the per-shape stage table
        self.labels: dict[int, str] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op, index))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()
            if op is not None:
                self._op = None

    def add(self, name: str, start: float, end: float, op: int | None) -> None:
        """Record a finished root span (concurrent client requests, which a
        stack cannot nest)."""
        self.spans.append(Span(name, start, end, None, op, len(self.spans)))

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the part its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.index, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.index] = s.duration - covered
        return out


class LayerPatches:
    """Wrap layer functions in spans; :meth:`restore` undoes every patch.

    Targets are looked up where the caller resolves them at call time:
    ``repro.core.compressor`` imports ``autotune_levels``, ``reorder`` and
    friends by name, so those are patched in that module's namespace.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, span: str, after=None) -> None:
        """Open span ``span`` around ``owner.attr``; ``after(recorder, args,
        result)`` then records counts taken from the call."""
        recorder = self.recorder

        def around(func):
            def wrapper(*args, **kwargs):
                with recorder.span(span):
                    result = func(*args, **kwargs)
                if after is not None:
                    after(recorder, args, result)
                return result

            return wrapper

        self._patch(owner, attr, around)

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` under ``counter`` (no span: these
        are the thousands of small calls inside one decode)."""
        counts = self.recorder.counts

        def around(func):
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return func(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, around)

    def _patch(self, owner, attr: str, around) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        wrapper = around(raw.__func__ if kind is not None else raw)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _after_engine_compress(recorder: SpanRecorder, args, result) -> None:
    trace = args[0].last_comp_trace
    recorder.counts["gpu.launches"] += len(trace)
    recorder.counts["gpu.bytes"] += trace.total_bytes
    recorder.counts["gpu.points"] += _points(result.shape)
    recorder.counts["gpu.ops"] += 1
    for seg in ("codes", "anchors", "outliers"):
        recorder.counts[f"segment.{seg}"] += len(result.segments.get(seg, b""))


def _after_interp(recorder: SpanRecorder, args, result) -> None:
    shape = getattr(result, "shape", None)
    if shape is None:  # compress returns a PredictorResult
        shape = result.codes.shape
    recorder.counts["interp.points"] += _points(shape)


def _after_encode(recorder: SpanRecorder, args, result) -> None:
    recorder.counts["encode.bytes"] += len(args[1])


def _after_decode(recorder: SpanRecorder, args, result) -> None:
    recorder.counts["decode.bytes"] += len(result)


def _points(shape) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n


def patch_layers(recorder: SpanRecorder) -> LayerPatches:
    """Install spans around every layer boundary the benchmark can see."""
    import repro.api as api
    import repro.core.compressor as compressor
    import repro.encoders.huffman as huffman
    from repro.core.container import CompressedBlob
    from repro.encoders.pipelines import LosslessPipeline
    from repro.predictor.interpolation import InterpolationPredictor
    from repro.service.archive import ArchiveStore
    from repro.service.runner import BatchRunner

    p = LayerPatches(recorder)
    p.wrap(api, "compress", "api.compress")
    p.wrap(api, "decompress", "api.decompress")
    p.wrap(compressor.CuszHi, "compress", "core.compressor.compress", after=_after_engine_compress)
    p.wrap(compressor.CuszHi, "decompress", "core.compressor.decompress")
    p.wrap(compressor, "resolve_error_bound", "core.compressor.bound")
    p.wrap(compressor, "autotune_levels", "predictor.autotune")
    p.wrap(compressor, "reorder", "predictor.reorder")
    p.wrap(compressor, "inverse_reorder", "predictor.reorder.inverse")
    p.wrap(InterpolationPredictor, "compress", "predictor.interpolation.compress",
           after=_after_interp)
    p.wrap(InterpolationPredictor, "decompress", "predictor.interpolation.decompress",
           after=_after_interp)
    p.wrap(LosslessPipeline, "encode", "encoders.encode", after=_after_encode)
    p.wrap(LosslessPipeline, "decode", "encoders.decode", after=_after_decode)
    p.count(huffman, "extract_bit_windows", "bitio.extract_bit_windows")
    p.wrap(CompressedBlob, "to_bytes", "core.container.serialize")
    p.wrap(CompressedBlob, "from_bytes", "core.container.parse")
    p.wrap(ArchiveStore, "add_blob", "service.archive.append")
    p.wrap(ArchiveStore, "get", "service.archive.get")
    p.wrap(ArchiveStore, "verify", "service.archive.verify")
    p.wrap(BatchRunner, "run", "service.runner.job")
    return p


def _call_bucket(module: str | None) -> str:
    if not module or not module.startswith("repro."):
        return "external"
    rest = module[len("repro."):]
    if rest == "api" or rest.startswith("api."):
        return "api"
    if rest == "gpu" or rest.startswith("gpu."):
        return "gpu"
    return rest if rest in _CALL_SET else "repro.other"


_CALL_SET = frozenset(CALL_MODULES)


class CallCounter:
    """Count Python calls (by callee module) and C calls (by calling
    module) while active, with ``sys.setprofile``."""

    def __init__(self):
        self.counts: Counter = Counter()

    def _profile(self, frame, event, arg):
        if event == "call" or event == "c_call":
            self.counts[_call_bucket(frame.f_globals.get("__name__"))] += 1

    @contextmanager
    def active(self):
        previous = sys.getprofile()
        sys.setprofile(self._profile)
        try:
            yield self
        finally:
            sys.setprofile(previous)


def count_round_trip(data, request) -> tuple[dict, dict]:
    """Calls per module of one ``repro.api`` compress (with serialization)
    and of the decompress of its bytes."""
    import repro.api as api

    counter = CallCounter()
    with counter.active():
        payload = api.compress(data, request).blob.to_bytes()
    comp = dict(counter.counts)
    counter.counts.clear()
    with counter.active():
        api.decompress(payload)
    return comp, dict(counter.counts)

"""Metric catalogue and the statistics every workload reports through.

The catalogue is the single source of truth for ``BENCHMARK.json``
(``run.py --write-manifest`` regenerates it from here) and for the names a
run may print.  End-to-end metrics are exercised by every workload; the
per-layer ones are reported by every traced run, with ``0`` where the
layer is not on that workload's path in the benchmark process (the
README's layer map says which workload moves which number).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: a percentile is reported only when at least this many samples lie
#: beyond it, so p90 needs 100 samples
TAIL_SAMPLES = 10

MB = 1e6


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def manifest(self) -> dict:
        doc = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            doc["bound"] = self.bound
        return doc


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    Metric("compress_mb_s", "MB/s", "higher", 0.25),
    Metric("decompress_mb_s", "MB/s", "higher", 0.25),
    Metric("compress_ms_mean", "ms", "lower", 0.25),
    Metric("decompress_ms_mean", "ms", "lower", 0.25),
    Metric("compression_ratio", "x", "higher", 0.01),
    Metric("psnr_db", "dB", "higher", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

#: printed in the report table when the workload has the samples, never
#: in the result line: the read figures do not exist on every workload, and
#: the percentiles are not steady enough to gate on a shared VM, whose
#: vCPUs run about 1.5x slower for roughly half of the time in bursts of
#: 0.1-2 s.  An op of ~100 ms then lands in one speed or the other, the
#: latencies form two clusters of varying weight, and the median jumps
#: between them from run to run; the mean moves with the weight smoothly.
REPORT_ONLY = (
    Metric("compress_ms_p50", "ms", "lower"),
    Metric("decompress_ms_p50", "ms", "lower"),
    Metric("compress_ms_p90", "ms", "lower"),
    Metric("decompress_ms_p90", "ms", "lower"),
    Metric("read_ms_mean", "ms", "lower"),
    Metric("read_ms_p50", "ms", "lower"),
    Metric("read_ms_p90", "ms", "lower"),
)

#: modules whose calls the counting pass attributes separately; everything
#: else in ``repro`` is ``repro.other`` and code outside it ``external``
CALL_MODULES = (
    "api",
    "core.compressor",
    "core.container",
    "core.config",
    "predictor.autotune",
    "predictor.interpolation",
    "predictor.reorder",
    "encoders.pipelines",
    "encoders.huffman",
    "encoders.ans",
    "encoders.bitio",
    "gpu",
    "repro.other",
    "external",
)


PER_LAYER = (
    Metric("host.calib_ms", "ms", "lower"),
    Metric("trace.overhead_share", "share", "lower"),
    Metric("op.other_ms", "ms", "lower"),
    Metric("op.other_share", "share", "lower"),
    Metric("api.compress.self_ms", "ms", "lower"),
    Metric("api.decompress.self_ms", "ms", "lower"),
    Metric("core.compressor.bound_ms", "ms", "lower"),
    Metric("predictor.autotune.ms", "ms", "lower"),
    Metric("predictor.autotune.share", "share", "lower"),
    Metric("predictor.interpolation.compress_ms", "ms", "lower"),
    Metric("predictor.interpolation.decompress_ms", "ms", "lower"),
    Metric("predictor.interpolation.mpts_s", "Mpts/s", "higher"),
    Metric("predictor.interpolation.plan_hits", "count", "higher"),
    Metric("predictor.interpolation.plan_misses", "count", "lower"),
    Metric("predictor.reorder.ms", "ms", "lower"),
    Metric("predictor.reorder.inverse_ms", "ms", "lower"),
    Metric("encoders.encode_ms", "ms", "lower"),
    Metric("encoders.decode_ms", "ms", "lower"),
    Metric("encoders.encode_mb_s", "MB/s", "higher"),
    Metric("encoders.decode_mb_s", "MB/s", "higher"),
    Metric("encoders.bitio.extract_calls_per_decode", "count", "lower"),
    Metric("encoders.huffman.table_hit_ratio", "ratio", "higher"),
    Metric("encoders.ans.table_hit_ratio", "ratio", "higher"),
    *(Metric(f"calls_per_compress.{m}", "count", "lower") for m in CALL_MODULES),
    *(Metric(f"calls_per_decompress.{m}", "count", "lower") for m in CALL_MODULES),
    Metric("gpu.kernel.launches_per_op", "count", "lower"),
    Metric("gpu.kernel.computed_bytes_per_point", "B/pt", "lower"),
    Metric("core.container.serialize_ms", "ms", "lower"),
    Metric("core.container.parse_ms", "ms", "lower"),
    Metric("core.container.segment_bytes.codes", "B", "lower"),
    Metric("core.container.segment_bytes.anchors", "B", "lower"),
    Metric("core.container.segment_bytes.outliers", "B", "lower"),
    Metric("server.route_ms_p50.compress", "ms", "lower"),
    Metric("server.route_ms_p50.decompress", "ms", "lower"),
    Metric("server.route_ms_p50.read", "ms", "lower"),
    Metric("server.outside_ms", "ms", "lower"),
    Metric("server.pool.ewma_wall_ms", "ms", "lower"),
    Metric("server.pool.depth_high_water", "count", "lower"),
    Metric("server.pool.dispatch_imbalance", "share", "lower"),
    Metric("server.pool.read_cache_hit_ratio", "ratio", "higher"),
    Metric("server.pool.errors", "count", "lower"),
    Metric("server.pool.rejected", "count", "lower"),
    Metric("server.admission.rejected_429", "count", "lower"),
    Metric("client.conn_opens_per_request", "count", "lower"),
    Metric("client.retries", "count", "lower"),
    Metric("service.archive.append_ms", "ms", "lower"),
    Metric("service.archive.bytes_written", "B", "lower"),
    Metric("service.archive.overhead_bytes", "B", "lower"),
    Metric("service.archive.verify_s", "s", "lower"),
    Metric("service.archive.blob_cache_hits", "count", "higher"),
    Metric("service.archive.blob_cache_misses", "count", "lower"),
    Metric("service.runner.job_s", "s", "lower"),
    Metric("service.runner.busy_share", "share", "higher"),
)

UNITS = {m.name: m.unit for m in (*END_TO_END, *REPORT_ONLY, *PER_LAYER)}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-percentile (``0 < q < 100``) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def has_tail(n_samples: int, q: float) -> bool:
    """True when at least :data:`TAIL_SAMPLES` samples lie beyond the
    ``q``-percentile of ``n_samples`` samples (p90 needs 100)."""
    return n_samples - math.ceil(q / 100.0 * n_samples) >= TAIL_SAMPLES


def within_bound(original, recon, eb_abs: float) -> bool:
    """``max|x - x'| <= eb``, evaluated in float64."""
    import numpy as np

    x = np.asarray(original, dtype=np.float64)
    return bool(np.max(np.abs(np.asarray(recon, dtype=np.float64).reshape(x.shape) - x)) <= eb_abs)


@dataclass
class OpLog:
    """Per-kind latency samples, byte totals and quality sums of one pass.

    ``kind`` is ``compress``, ``decompress`` or ``read``.  Quality terms are
    summed with :func:`math.fsum`, so the figures do not depend on the
    order concurrent ops complete in.
    """

    samples: dict = field(default_factory=dict)
    raw_bytes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    cr_raw: int = 0
    cr_packed: int = 0
    nse_terms: list = field(default_factory=list)
    n_points: int = 0
    digests: list = field(default_factory=list)

    def record(self, kind: str, wall_s: float, raw_nbytes: int) -> None:
        self.samples.setdefault(kind, []).append(wall_s)
        self.raw_bytes[kind] = self.raw_bytes.get(kind, 0) + raw_nbytes

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def quality(self, original, recon, eb_abs: float) -> bool:
        """Bound-check ``recon`` against ``original`` and fold it into the
        PSNR sums; returns False on a violated bound."""
        import numpy as np

        x = np.asarray(original, dtype=np.float64)
        err = np.asarray(recon, dtype=np.float64).reshape(x.shape) - x
        value_range = float(x.max() - x.min()) or 1.0
        self.nse_terms.append(float(np.dot(err.ravel(), err.ravel())) / value_range**2)
        self.n_points += x.size
        return bool(np.max(np.abs(err)) <= eb_abs)

    def ratio(self, raw_nbytes: int, container_nbytes: int) -> None:
        self.cr_raw += raw_nbytes
        self.cr_packed += container_nbytes

    def psnr_db(self) -> float:
        """Value-range PSNR over every reconstructed point: each field's
        squared error is normalized by its own value range."""
        nmse = math.fsum(self.nse_terms) / max(1, self.n_points)
        return -10.0 * math.log10(nmse) if nmse > 0 else float("inf")


def end_to_end(log: OpLog, timed_s: float, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end figures of one pass."""
    out = {"setup_s": setup_s}
    n_ops = sum(len(v) for v in log.samples.values())
    out["ops_per_s"] = n_ops / timed_s
    comp = log.samples.get("compress", [])
    dec = log.samples.get("decompress", [])
    if comp:
        out["compress_mb_s"] = log.raw_bytes["compress"] / MB / sum(comp)
    if dec:
        out["decompress_mb_s"] = log.raw_bytes["decompress"] / MB / sum(dec)
    for kind, values in sorted(log.samples.items()):
        out[f"{kind}_ms_mean"] = 1000.0 * math.fsum(values) / len(values)
        out[f"{kind}_ms_p50"] = 1000.0 * percentile(values, 50)
        if has_tail(len(values), 90):
            out[f"{kind}_ms_p90"] = 1000.0 * percentile(values, 90)
    if log.cr_packed:
        out["compression_ratio"] = log.cr_raw / log.cr_packed
    if log.n_points:
        out["psnr_db"] = log.psnr_db()
    out["peak_rss_mb"] = peak_rss_mb
    return out

"""Roofline throughput model for simulated GPU kernels (Fig. 6 / Fig. 10).

Each kernel's time is the max of its memory time and its compute time at the
class-specific sustained efficiency, plus a fixed launch overhead:

    t = launch + max(bytes_moved / (BW * eff_mem), flops / (FP32 * eff_fp))

End-to-end compressor throughput divides the *input* size by the summed
kernel times, matching how the paper reports GiB/s (GPU kernel speed, input-
size normalized).  The model is deliberately simple; what Fig. 10 needs is
the *relative* ordering of compressors and the rough magnitudes, both of
which are driven by the byte counts the real pipelines move — and those are
measured, not estimated, from the arrays this reproduction processes.

The per-stage kernel schedules of the lossless pipelines (Fig. 6 throughput
axis) are derived from each stage's measured input/output sizes via
:func:`pipeline_kernels`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .device import DeviceSpec
from .kernel import EFFICIENCY, KernelRecord, KernelTrace

if TYPE_CHECKING:  # annotation only: repro.encoders imports this module
    from ..encoders.pipelines import StageTrace

__all__ = [
    "kernel_time_s",
    "trace_time_s",
    "throughput_gibs",
    "aggregate_tile_traces",
    "tiled_trace_time_s",
    "tiled_throughput_gibs",
    "lpt_order",
    "pipeline_kernels",
    "STAGE_KERNEL_MODELS",
]

GiB = float(2**30)


def kernel_time_s(record: KernelRecord, device: DeviceSpec, scale: float = 1.0) -> float:
    """Seconds for one kernel; ``scale`` linearly scales the data volume.

    The reproduction runs on fields ~100-500x smaller than the paper's files;
    at that size every kernel is launch-overhead-bound and throughput numbers
    are meaningless.  Passing ``scale = paper_elements / our_elements``
    evaluates the model at the paper's data volume with the same launch count
    — the regime Fig. 6/Fig. 10 report.
    """
    eff = EFFICIENCY[record.efficiency_class]
    t_mem = scale * record.bytes_moved / (device.mem_bw_bytes * eff)
    t_fp = scale * record.flops / (device.fp32_flops * max(eff, 0.5)) if record.flops else 0.0
    return device.kernel_launch_us * 1e-6 + max(t_mem, t_fp)


def trace_time_s(trace: KernelTrace, device: DeviceSpec, scale: float = 1.0) -> float:
    return sum(kernel_time_s(r, device, scale) for r in trace)


def throughput_gibs(
    input_nbytes: int, trace: KernelTrace, device: DeviceSpec, scale: float = 1.0
) -> float:
    """End-to-end GiB/s for a run that processed ``input_nbytes``.

    With ``scale`` != 1 both the data volume and the input size are scaled,
    so the result is the throughput the same schedule would reach on a
    ``scale``-times larger file.
    """
    t = trace_time_s(trace, device, scale)
    return (scale * input_nbytes / GiB) / t if t > 0 else float("inf")


# --------------------------------------------------------------------------
# Tiled execution (repro.core.tiling).
#
# A tiled run produces one KernelTrace per tile.  For data-volume accounting
# (Fig. 10's bytes-moved axis) the tile traces simply concatenate; for the
# time axis, tiles execute concurrently on `workers` lanes, so the modeled
# wall time is the makespan of a longest-processing-time assignment of the
# per-tile schedules onto the lanes — not the serial sum.
# --------------------------------------------------------------------------


def aggregate_tile_traces(traces) -> KernelTrace:
    """Merge per-tile kernel traces into one flat trace (data-volume view)."""
    merged = KernelTrace()
    for t in traces:
        if t is not None:
            merged.extend(t)
    return merged


def tiled_trace_time_s(traces, device: DeviceSpec, workers: int, scale: float = 1.0) -> float:
    """Modeled wall-clock seconds for tile traces spread over ``workers`` lanes.

    Greedy LPT assignment: sort tiles by modeled time, place each on the
    least-loaded lane, return the maximum lane load.
    """
    workers = max(1, int(workers))
    times = sorted((trace_time_s(t, device, scale) for t in traces if t is not None), reverse=True)
    if not times:
        return 0.0
    lanes = [0.0] * min(workers, len(times))
    for t in times:
        lanes[int(np.argmin(lanes))] += t
    return max(lanes)


def lpt_order(costs, workers: int) -> tuple[list[int], float]:
    """Longest-processing-time scheduling order for independent jobs.

    Generalizes the tile-makespan model above to any job list with scalar
    cost estimates (the batch archive service feeds it per-field element
    counts).  Returns ``(order, makespan)``: the job indices sorted for LPT
    submission (largest first — a pool consuming them greedily realizes the
    classic 4/3-approximate makespan) and the modeled makespan of the greedy
    assignment onto ``workers`` lanes, in the same unit as ``costs``.
    """
    costs = [float(c) for c in costs]
    order = sorted(range(len(costs)), key=costs.__getitem__, reverse=True)
    if not order:
        return [], 0.0
    lanes = [0.0] * max(1, min(int(workers), len(costs)))
    for i in order:
        lanes[int(np.argmin(lanes))] += costs[i]
    return order, max(lanes)


def tiled_throughput_gibs(
    input_nbytes: int, traces, device: DeviceSpec, workers: int, scale: float = 1.0
) -> float:
    """End-to-end GiB/s of a tiled run under the parallel makespan model."""
    t = tiled_trace_time_s(traces, device, workers, scale)
    return (scale * input_nbytes / GiB) / t if t > 0 else float("inf")


# --------------------------------------------------------------------------
# Stage-level kernel models for lossless pipelines.
#
# Each entry: (passes_over_input, passes_over_output, efficiency_class,
#              flops_per_input_byte).  "Passes" count global-memory sweeps of
# the stage's own input/output; e.g. Huffman encode reads the symbols for the
# histogram, again for the code gather, and scatters the bitstream.
# --------------------------------------------------------------------------
STAGE_KERNEL_MODELS: dict[str, tuple[float, float, str, float]] = {
    # GPU Huffman is the known pipeline bottleneck [Rivera et al., IPDPS'22]:
    # histogram atomics + tree/table build + bit scatter with warp ballots.
    "HF": (6.0, 1.0, "histogram", 8.0),
    "HF-dec": (4.0, 1.0, "histogram", 10.0),
    "RRE1": (2.0, 1.0, "streaming", 1.0),
    "RRE2": (2.0, 1.0, "streaming", 1.0),
    "RRE4": (2.0, 1.0, "streaming", 1.0),
    "RRE8": (2.0, 1.0, "streaming", 1.0),
    "RZE1": (2.0, 1.0, "streaming", 1.0),
    "TCMS1": (1.0, 1.0, "streaming", 1.0),
    "TCMS8": (1.0, 1.0, "streaming", 1.0),
    "BIT1": (1.0, 1.0, "shuffle", 1.0),
    "BIT8": (1.0, 1.0, "shuffle", 1.0),
    "DIFF1": (1.0, 1.0, "streaming", 1.0),
    "DIFFMS1": (1.5, 1.0, "streaming", 1.5),
    "CLOG1": (2.0, 1.0, "shuffle", 2.0),
    "TUPLD2": (1.0, 1.0, "shuffle", 0.5),
    "TUPLQ1": (1.0, 1.0, "shuffle", 0.5),
    "nvCOMP::ANS": (2.0, 1.0, "histogram", 6.0),
    "nvCOMP::Bitcomp": (1.5, 1.0, "streaming", 2.0),
    "nvCOMP::GDeflate": (4.0, 1.0, "serial-ish", 12.0),
    "nvCOMP::LZ4": (2.0, 1.0, "gather", 4.0),
    "nvCOMP::Zstd": (8.0, 1.0, "serial-ish", 30.0),
    "GPULZ": (2.5, 1.0, "gather", 4.0),
    "ndzip": (1.5, 1.0, "shuffle", 2.0),
}


def pipeline_kernels(trace: StageTrace, decode: bool = False) -> KernelTrace:
    """Build a kernel schedule from the measured stage boundary sizes."""
    kt = KernelTrace()
    names = trace.stage_names
    nin = trace.in_bytes
    nout = trace.out_bytes
    order = range(len(names))
    for i in order:
        key = names[i]
        if decode and key == "HF":
            key = "HF-dec"
        model = STAGE_KERNEL_MODELS.get(key) or STAGE_KERNEL_MODELS.get(
            names[i], (2.0, 1.0, "streaming", 1.0)
        )
        p_in, p_out, eff, fpb = model
        src, dst = (nout[i], nin[i]) if decode else (nin[i], nout[i])
        # Huffman decode is driven by the *symbol count* (one table gather
        # and bit-window extraction per decoded symbol), not by the size of
        # the compressed bitstream it consumes.
        work = dst if key == "HF-dec" else src
        kt.launch(
            name=("dec:" if decode else "enc:") + names[i],
            bytes_read=int(p_in * work),
            bytes_written=int(p_out * dst),
            flops=int(fpb * work),
            efficiency_class=eff,
        )
    return kt

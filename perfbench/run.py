#!/usr/bin/env python3
"""Layer-by-layer benchmark of the cuSZ-Hi library, server and batch tier.

Run from the repository root::

    python3 perfbench/run.py --workload small-fields --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload small-fields --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

A run generates its inputs from ``--seed``, sets the system up (timed as
``setup_s``), runs a fixed number of ops scaled from ``--seconds``, checks
every output, prints a report table and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same pass untraced and then
traced, and reports the per-layer metrics (see README.md).  The program
under test is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

# One BLAS thread per process: every workload stays within the CPU count
# (the library loops are single-threaded; server and batch workers are one
# process per CPU), and idle BLAS threads spinning beside them would only
# add noise.  Set before numpy is first imported; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    CALL_MODULES, END_TO_END, PER_LAYER, REPORT_ONLY, UNITS, end_to_end,
)

RUN_SECONDS = 10

#: name -> (module, class, why); the why lines go into BENCHMARK.json
WORKLOADS = {
    "small-fields": ("library", "SmallFields",
                     "32^3/64^3 and small 2-D fields through repro.api, CR and TP alternating: "
                     "the fixed per-call regime where autotune and Huffman decode dominate"),
    "serve-mixed": ("serving", "ServeMixed",
                    "one client connection against repro serve with 2 worker processes: "
                    "compress, decompress and reads of a BatchRunner-seeded archive"),
}


class Context:
    def __init__(self, seed: int, seconds: int, workload: str):
        self.seed = seed
        self.seconds = seconds
        self.root = ROOT
        self.src = SRC
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` or stop with status 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro resolved to {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return repro


def host_probe() -> float:
    """Milliseconds for a fixed numpy sort plus a fixed pure-Python loop:
    a diagnostic that shows when a run landed on a slow host."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 20).astype(np.float32)
    best = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(data, kind="quicksort")
        acc = 0
        for i in range(200_000):
            acc += i & 7
        best.append(time.perf_counter() - t0)
    return 1000.0 * sorted(best)[1]


def peak_rss_mb() -> float:
    """Σ peak RSS (``VmHWM``) of this process and every live descendant:
    on ``serve-mixed`` the server and each pool worker.  Children that have
    already ended (batch seeding workers, cold set-up passes) ran before
    the timed phase and are not counted."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # ended while we looked
            children.setdefault(ppid, []).append(int(entry))
    total_kb, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        todo += children.get(pid, [])
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                total_kb += next(int(line.split()[1]) for line in fh
                                 if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            pass
    return total_kb / 1024.0


def cache_snapshot() -> dict:
    from repro.encoders import ans, huffman
    from repro.predictor.interpolation import level_plan_stats
    from repro.service.archive import blob_cache_stats

    return {
        "huffman": huffman.table_cache_stats(),
        "ans": ans.table_cache_stats(),
        "plans": level_plan_stats(),
        "blobs": blob_cache_stats(),
    }


def cache_layers(before: dict, after: dict) -> dict:
    def delta(kind, key):
        return after[kind].get(key, 0) - before[kind].get(key, 0)

    def hit_ratio(kind):
        hits, misses = delta(kind, "hits"), delta(kind, "misses")
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "encoders.huffman.table_hit_ratio": hit_ratio("huffman"),
        "encoders.ans.table_hit_ratio": hit_ratio("ans"),
        "predictor.interpolation.plan_hits": delta("plans", "hits"),
        "predictor.interpolation.plan_misses": delta("plans", "misses"),
        "service.archive.blob_cache_hits": delta("blobs", "hits"),
        "service.archive.blob_cache_misses": delta("blobs", "misses"),
    }


def reset_table_caches() -> None:
    from repro.encoders import ans, huffman

    huffman.reset_table_cache()
    ans.reset_table_cache()


def span_layers(rec) -> dict:
    """Per-layer times from the traced pass, per outermost engine op."""
    selfs = rec.self_times()
    spans = rec.spans

    def outer(name):
        out = []
        for s in spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and spans[p].name != name:
                p = spans[p].parent
            if p is None:
                out.append(s)
        return out

    def total(name):
        return sum(s.duration for s in outer(name))

    def per(name, n):
        return 1000.0 * total(name) / n if n else 0.0

    n_comp = len(outer("core.compressor.compress"))
    n_dec = len(outer("core.compressor.decompress"))
    c = rec.counts
    interp_s = total("predictor.interpolation.compress") + total(
        "predictor.interpolation.decompress")
    roots = [s for s in spans if s.parent is None and s.op is not None]
    root_s = sum(s.duration for s in roots)
    n_serialize = len(outer("core.container.serialize"))
    n_parse = len(outer("core.container.parse"))
    n_append = len(outer("service.archive.append"))
    n_decode = len(outer("encoders.decode"))
    return {
        "op.other_ms": 1000.0 * sum(selfs[s.index] for s in roots) / len(roots) if roots else 0.0,
        "op.other_share": sum(selfs[s.index] for s in roots) / root_s if root_s else 0.0,
        "api.compress.self_ms": 1000.0 * sum(selfs[s.index] for s in outer("api.compress"))
        / max(1, len(outer("api.compress"))),
        "api.decompress.self_ms": 1000.0 * sum(selfs[s.index] for s in outer("api.decompress"))
        / max(1, len(outer("api.decompress"))),
        "core.compressor.bound_ms": per("core.compressor.bound", n_comp),
        "predictor.autotune.ms": per("predictor.autotune", n_comp),
        "predictor.autotune.share": total("predictor.autotune") / total("api.compress")
        if total("api.compress") else 0.0,
        "predictor.interpolation.compress_ms": per("predictor.interpolation.compress", n_comp),
        "predictor.interpolation.decompress_ms": per("predictor.interpolation.decompress", n_dec),
        "predictor.interpolation.mpts_s": c["interp.points"] / 1e6 / interp_s if interp_s else 0.0,
        "predictor.reorder.ms": per("predictor.reorder", n_comp),
        "predictor.reorder.inverse_ms": per("predictor.reorder.inverse", n_dec),
        "encoders.encode_ms": per("encoders.encode", n_comp),
        "encoders.decode_ms": per("encoders.decode", n_dec),
        "encoders.encode_mb_s": c["encode.bytes"] / 1e6 / total("encoders.encode")
        if total("encoders.encode") else 0.0,
        "encoders.decode_mb_s": c["decode.bytes"] / 1e6 / total("encoders.decode")
        if total("encoders.decode") else 0.0,
        "encoders.bitio.extract_calls_per_decode":
            c["bitio.extract_bit_windows"] / n_decode if n_decode else 0.0,
        "gpu.kernel.launches_per_op": c["gpu.launches"] / c["gpu.ops"] if c["gpu.ops"] else 0.0,
        "gpu.kernel.computed_bytes_per_point":
            c["gpu.bytes"] / c["gpu.points"] if c["gpu.points"] else 0.0,
        "core.container.serialize_ms": per("core.container.serialize", n_serialize),
        "core.container.parse_ms": per("core.container.parse", n_parse),
        "core.container.segment_bytes.codes": c["segment.codes"],
        "core.container.segment_bytes.anchors": c["segment.anchors"],
        "core.container.segment_bytes.outliers": c["segment.outliers"],
        "service.archive.append_ms": per("service.archive.append", n_append),
    }


def stage_table(rec) -> list[str]:
    """Markdown rows: mean self ms per op of every span name, one column
    per op label (the input's shape), plus each column's op count and wall."""
    selfs = rec.self_times()
    stages: dict[str, dict[str, float]] = {}
    walls: dict[str, list[float]] = {}
    for s in rec.spans:
        if s.op is None or s.op not in rec.labels:
            continue
        label = rec.labels[s.op]
        stages.setdefault(s.name, {}).setdefault(label, 0.0)
        stages[s.name][label] += selfs[s.index]
        if s.parent is None:
            walls.setdefault(label, []).append(s.duration)
    if not walls:
        return []
    labels = sorted(walls, key=lambda k: (k.count("x"), len(k), k))
    rows = ["| stage (self ms per op) | " + " | ".join(labels) + " |",
            "|---" * (len(labels) + 1) + "|",
            "| ops | " + " | ".join(str(len(walls[k])) for k in labels) + " |"]
    for name in sorted(stages):
        cells = [stages[name].get(k, 0.0) * 1000.0 / len(walls[k]) for k in labels]
        rows.append(f"| {name} | " + " | ".join(f"{c:.2f}" for c in cells) + " |")
    rows.append("| **op wall** | " + " | ".join(
        f"{1000.0 * sum(walls[k]) / len(walls[k]):.2f}" for k in labels) + " |")
    return rows


def run(args) -> dict:
    """Inputs, set-up, the timed pass and, with ``--trace 1``, a second
    traced pass and the call-counting pass."""
    import importlib

    import_repro()
    from spans import SpanRecorder, count_round_trip, patch_layers

    module, cls, _ = WORKLOADS[args.workload]
    ctx = Context(args.seed, args.seconds, args.workload)
    os.makedirs(ctx.work, exist_ok=True)
    workload = getattr(importlib.import_module(module), cls)(ctx)
    report: dict = {"host.calib_ms": [host_probe()], "stages": []}
    layers: dict = {}
    try:
        workload.make_inputs()
        report["setup_passes"] = workload.setup()
        timed = workload.run_pass()
        rss_mb = peak_rss_mb()
        log = timed["log"]
        if args.trace:
            reset_table_caches()
            rec = SpanRecorder()
            before = cache_snapshot()
            patches = patch_layers(rec)
            try:
                workload.rearm()
                traced = workload.run_pass(rec)
            finally:
                patches.restore()
            layers.update(cache_layers(before, cache_snapshot()))
            layers.update(span_layers(rec))
            report["stages"] = stage_table(rec)
            comp, dec = count_round_trip(*workload.first_request())
            for bucket in CALL_MODULES:
                layers[f"calls_per_compress.{bucket}"] = comp.get(bucket, 0)
                layers[f"calls_per_decompress.{bucket}"] = dec.get(bucket, 0)
            layers["trace.overhead_share"] = traced["timed_s"] / timed["timed_s"] - 1.0
            log.attempted += traced["log"].attempted
            log.failed += traced["log"].failed
            log.errors += [f"traced pass: {err}" for err in traced["log"].errors]
            if traced["log"].digests != log.digests:
                log.fail("blob digests differ between the untraced and traced pass")
        layers.update(workload.layer)
    finally:
        workload.close()
        shutil.rmtree(ctx.work, ignore_errors=True)
    report["host.calib_ms"].append(host_probe())
    figures = end_to_end(log, timed["timed_s"], statistics.median(report["setup_passes"]),
                         rss_mb)
    missing = [m.name for m in END_TO_END if m.name not in figures]
    if missing:
        log.fail(f"workload did not exercise {missing}")
    layers["host.calib_ms"] = statistics.mean(report["host.calib_ms"])
    report.update(figures=figures, layers=layers, log=log)
    return report


def print_report(args, report: dict) -> dict:
    log = report["log"]
    figures, layers = report["figures"], report["layers"]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# host.calib_ms before/after: "
          + " / ".join(f"{v:.2f}" for v in report["host.calib_ms"]))
    print("# setup passes (s): " + " ".join(f"{t:.3f}" for t in report["setup_passes"]))
    print(f"# ops attempted={log.attempted} failed={log.failed} "
          + " ".join(f"{k}={len(v)}" for k, v in sorted(log.samples.items())))
    for err in log.errors:
        print(f"# FAILED {err}")
    for m in (*END_TO_END, *REPORT_ONLY):
        if m.name in figures:
            print(f"{m.name:<28} {figures[m.name]:>14.4f} {m.unit}")
    if args.trace:
        for m in PER_LAYER:
            print(f"{m.name:<48} {layers.get(m.name, 0.0):>14.4f} {m.unit}")
        for row in report["stages"]:
            print(row)
    wanted = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else figures
    metrics = {m.name: {"value": float(source.get(m.name, 0.0)), "unit": UNITS[m.name]}
               for m in wanted}
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }


def write_manifest() -> None:
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w[2]} for n, w in WORKLOADS.items()],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from the metric catalogue and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    report = run(args)
    result = print_report(args, report)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

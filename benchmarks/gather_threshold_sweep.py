"""Warm interpolation replay time against the gather cut-off.

A replay level whose planes hold at most ``interpolation.GATHER_PLANE``
points runs each round as one gather program; larger levels run flat runs.
This script times warm ``InterpolationPredictor.compress`` (no
reconstruction kept) and ``decompress`` of each field at several cut-offs,
all in one process: every repetition walks the cut-offs (reversed on odd
repetitions) so that a host whose speed drifts slows every cut-off alike.
The replay-program cache is raised to 1 GiB, so a cut-off whose programs
would not fit the default cache is timed warm anyway.

    python benchmarks/gather_threshold_sweep.py --thresholds 0,64,512,4096 \\
        --fields nyx:32x32x32,nyx:64x64x64,cesm-atm:96x192 --out sweep.json

A field is ``dataset:shape`` (``repro.datasets.load``, seed 0) or
``sine:shape``, a smooth sum of sines plus 1% noise.  Each row is
``{"field", "op", "threshold", "ms": [one median of --calls calls per
repetition]}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from repro.core.cache import ByteBudgetLRU
from repro.core.compressor import resolve_error_bound
from repro.datasets import load
from repro.predictor import interpolation
from repro.predictor.autotune import autotune_levels


def make_field(spec: str) -> np.ndarray:
    name, dims = spec.split(":")
    shape = tuple(int(d) for d in dims.split("x"))
    if name != "sine":
        return load(name, shape=shape, seed=0)
    grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij", sparse=True)
    x = sum(np.sin(g / (5.0 + 2 * i)) for i, g in enumerate(grids))
    return (x + 0.01 * np.random.default_rng(0).standard_normal(shape)).astype(np.float32)


def median_ms(fn, calls: int) -> float:
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--thresholds", required=True, help="comma-separated GATHER_PLANE values")
    ap.add_argument("--fields", required=True, help="comma-separated dataset:AxBxC or sine:AxBxC")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--calls", type=int, default=15)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    thresholds = [int(t) for t in args.thresholds.split(",")]
    fields = []
    for spec in args.fields.split(","):
        x = make_field(spec)
        eb = resolve_error_bound(x, 1e-3, "rel")
        fields.append((spec, x, eb, autotune_levels(x, 16)))
    interpolation._REPLAYS = ByteBudgetLRU(1 << 30)
    pred = interpolation.InterpolationPredictor(16)
    rows = {}
    for rep in range(args.reps):
        for t in thresholds if rep % 2 == 0 else thresholds[::-1]:
            interpolation.GATHER_PLANE = t
            interpolation._REPLAYS.clear()
            interpolation._LOCAL.__dict__.clear()  # a fresh workspace
            for spec, x, eb, levels in fields:
                res = pred.compress(x, eb, levels, keep_recon=False)
                dargs = (res.codes, res.anchors, res.outlier_values, x.shape, eb,
                         res.level_configs, x.dtype)
                for _ in range(3):  # build and bind every program
                    pred.compress(x, eb, levels, keep_recon=False)
                    pred.decompress(*dargs)
                for op, fn in (
                    ("compress", lambda: pred.compress(x, eb, levels, keep_recon=False)),
                    ("decompress", lambda: pred.decompress(*dargs)),
                ):
                    row = rows.setdefault((spec, op, t), [])
                    row.append(round(median_ms(fn, args.calls), 4))
    out = [{"field": f, "op": op, "threshold": t, "ms": ms} for (f, op, t), ms in rows.items()]
    for row in out:
        print(f"{row['op']:10s} {row['field']:22s} T={row['threshold']:<6d} "
              f"median {statistics.median(row['ms']):7.3f} ms")
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the four phases of a ``serve-mixed`` set-up, one by one.

Run from the repository root::

    python3 benchmarks/serve_setup_phases.py --runs 5 --label change

Each run repeats what ``perfbench/serving.py`` times as one ``setup_s``
sample, with its own inputs and code:

* ``seed_s``: the ``BatchRunner`` job that writes the archive, and its
  verify;
* ``containers_s``: the ``api.compress`` calls that build the
  ``POST /decompress`` bodies;
* ``spawn_to_port_s``: ``repro serve --workers-procs 2`` from spawn until
  it prints its port, which it does once its workers are ready;
* ``warmup_s``: ``/healthz`` until 200, then the warm-up requests.

It prints one JSON line per run, then one line of medians.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import Context, import_repro  # noqa: E402
from serving import Server, ServeMixed  # noqa: E402

PHASES = ("seed_s", "containers_s", "spawn_to_port_s", "warmup_s")


def one_setup(workload: ServeMixed) -> dict:
    """One set-up, phase by phase; the server it starts is left running
    for ``workload.close()``."""
    import repro.api as api

    compress, spent = api.compress, [0.0]

    def timed_compress(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return compress(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0

    api.compress = timed_compress  # only the containers call it in this process
    try:
        t0 = time.perf_counter()
        workload._seed()
        seed_and_containers = time.perf_counter() - t0
    finally:
        api.compress = compress
    workload._build_ops()
    server = Server(workload.ctx, workload.root)
    t1 = time.perf_counter()
    server.start()
    t2 = time.perf_counter()
    workload.server = server
    server.wait_healthy()
    from metrics import OpLog

    warm = OpLog()
    asyncio.run(workload._drive(server.port, workload.warmup, warm, check=False))
    if warm.failed:
        raise RuntimeError(f"warm-up requests failed: {warm.errors}")
    t3 = time.perf_counter()
    return {
        "seed_s": seed_and_containers - spent[0],
        "containers_s": spent[0],
        "spawn_to_port_s": t2 - t1,
        "warmup_s": t3 - t2,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="set-ups to time")
    parser.add_argument("--seed", type=int, default=1, help="perfbench input seed")
    parser.add_argument("--label", default="", help="free-form label on every line")
    args = parser.parse_args(argv)

    import_repro()
    ctx = Context(args.seed, 10, "serve-phases")
    os.makedirs(ctx.work, exist_ok=True)
    workload = ServeMixed(ctx)
    rows = []
    try:
        workload.make_inputs()
        for i in range(args.runs):
            workload.close()
            row = {k: round(v, 4) for k, v in one_setup(workload).items()}
            row["total_s"] = round(sum(row[k] for k in PHASES), 4)
            rows.append(row)
            print(json.dumps({"label": args.label, "run": i, **row}), flush=True)
    finally:
        workload.close()
        shutil.rmtree(ctx.work, ignore_errors=True)
    medians = {k: round(statistics.median(r[k] for r in rows), 4) for k in rows[0]}
    print(json.dumps({"label": args.label, "median_of": len(rows), **medians}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

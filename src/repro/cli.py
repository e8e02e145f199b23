"""Command-line interface: compress / decompress / inspect / batch-archive.

Usage::

    repro compress  INPUT.f32 -o out.rpz -d 512 512 512 --eb 1e-3
    repro decompress out.rpz -o recon.f32
    repro info      out.rpz
    repro bench     --dataset nyx --eb 1e-3
    repro batch     corpus.toml -o corpus.rpza --report report.json
    repro eval      configs/fig8.toml --markdown fig8.md
    repro eval      configs/table4.toml -o table4.json --executor processes
    repro archive   ls corpus.rpza
    repro archive   get corpus.rpza temperature -o temp.f32
    repro archive   verify corpus.rpza --deep
    repro archive   verify out/worker-*.rpza
    repro archive   repair corpus.rpza
    repro serve     ./archives --port 8077 --cache-bytes 268435456
    repro serve     ./archives --workers-procs 4 --queue-depth 64 --deadline-ms 5000
    repro cluster   run corpus.toml -o out --workers 4 --replicas 2
    repro cluster   coordinator corpus.toml --port 8090
    repro cluster   worker --coordinator 127.0.0.1:8090 --shard out/w0.rpza

Each subcommand's ``--help`` names the documentation file covering it
(``docs/ARCHITECTURE.md``, ``docs/API.md``, ``docs/COOKBOOK.md``,
``docs/OPERATIONS.md``).

Input files follow the SDRBench raw convention; dims can be embedded in the
file name (``name_512_512_512.f32``) or passed via ``-d``.

Exit codes, the same for every command: 0 when it succeeded; 1 when it ran
but some of its work failed (batch fields, eval cells, verify problems, a
cluster job that did not drain); 2 on a usage or input error (bad flag
value, bad manifest or config, missing or corrupt input, unwritable
output), reported as one ``error: <message>`` line on stderr, never as a
traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

# Building the parser and running `serve` load no NumPy: each command
# imports the engine pieces it runs.
from . import __version__
from .defaults import EXECUTORS, REQUEST_SCHEMA


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _check_output_dirs(*paths: str | None) -> None:
    """Refuse, before a long run, an output path whose directory is missing."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"{path}: no such directory")


def _cmd_compress(args) -> int:
    from .api import build_request, compress
    from .datasets.io import read_raw

    shape = tuple(args.dims) if args.dims else None
    data = read_raw(args.input, shape=shape)
    if data.ndim == 1 and shape is None:
        return _fail("pass -d/--dims (or encode dims in the file name)")

    # Flags parse into the one canonical request; all defaulting/validation
    # (eb, tiling, pipeline, codec capabilities) happens in repro.api.
    request = build_request(
        codec=args.codec,
        mode=None if args.codec is not None else args.mode,
        eb=args.eb,
        tiles=tuple(args.tiles) if args.tiles else None,
        workers=args.workers or None,
        executor=args.executor,
        pipeline=args.pipeline,
    )
    payload = compress(data, request).blob.to_bytes()
    with open(args.output, "wb") as fh:
        fh.write(payload)
    print(
        f"{args.input}: {data.nbytes} -> {len(payload)} bytes  "
        f"CR={data.nbytes / len(payload):.2f}  bitrate={8 * len(payload) / data.size:.3f}"
    )
    return 0


def _cmd_decompress(args) -> int:
    from .api import decompress
    from .core.container import read_blob
    from .datasets.io import write_raw

    recon = decompress(read_blob(args.input))
    write_raw(args.output, recon)
    print(f"{args.input}: wrote {recon.nbytes} bytes to {args.output} (shape {recon.shape})")
    return 0


def _cmd_info(args) -> int:
    import numpy as np

    from .api import codec_name
    from .core.container import read_blob

    blob = read_blob(args.input)
    print(f"codec        : {codec_name(blob.codec)} (id {blob.codec})")
    print(f"shape        : {blob.shape}  dtype {np.dtype(blob.dtype).name}")
    print(f"error bound  : {blob.error_bound:.6g} (absolute)")
    print(f"stream size  : {blob.nbytes} bytes  CR {blob.compression_ratio:.2f}  "
          f"bitrate {blob.bitrate:.3f}")
    print("segments     :")
    for name, size in blob.segment_sizes().items():
        print(f"  {name:16s} {size:12d} bytes")
    interesting = {k: v for k, v in blob.meta.items() if not k.startswith("__seg_")}
    if interesting:
        print("meta         :")
        for k, v in interesting.items():
            print(f"  {k:16s} {v}")
    return 0


def _cmd_bench(args) -> int:
    if args.diff is not None:
        return _cmd_bench_diff(args)
    if args.pipeline or args.smoke:
        return _cmd_bench_pipeline(args)
    if args.codec is not None:
        return _fail("--codec applies to the pipeline matrix; add --pipeline or --smoke")
    from .analysis.harness import EVAL_ORDER, run_case
    from .analysis.tables import format_table
    from .datasets.registry import DATASETS, load

    if args.dataset not in DATASETS:
        return _fail(f"unknown dataset {args.dataset!r}; known: {sorted(DATASETS)}")
    data = load(args.dataset, seed=args.seed)
    rows = []
    for name in EVAL_ORDER:
        r = run_case(name, data, args.eb)
        rows.append([name, f"{r.cr:.1f}", f"{r.bitrate:.3f}", f"{r.psnr:.1f}", f"{r.max_err:.3g}"])
    print(format_table(["compressor", "CR", "bitrate", "PSNR", "max|err|"], rows,
                       title=f"dataset={args.dataset} eb={args.eb}"))
    return 0


def _cmd_bench_pipeline(args) -> int:
    from .bench import format_report, run_pipeline_bench, write_report

    report = run_pipeline_bench(
        smoke=args.smoke, label=args.label, repeats=args.repeats, codec=args.codec
    )
    write_report(report, args.output)
    print(format_report(report))
    print(f"wrote {args.output}")
    return 0


def _cmd_bench_diff(args) -> int:
    from .bench import diff_reports, load_report

    old_path, new_path = args.diff
    old, new = load_report(old_path), load_report(new_path)
    result = diff_reports(old, new, threshold=args.threshold, min_wall=args.min_wall)
    for line in result["improvements"]:
        print(f"improved:  {line}")
    for line in result["skipped"]:
        print(f"skipped:   {line}")
    for line in result["digest_changes"]:
        print(f"DIGEST:    {line}")
    for line in result["missing"]:
        print(f"MISSING:   {line}", file=sys.stderr)
    for line in result["regressions"]:
        print(f"REGRESSED: {line}", file=sys.stderr)
    if result["regressions"] or result["missing"]:
        print(
            f"{len(result['regressions'])} regression(s) beyond the "
            f"{args.threshold:.0%} threshold, {len(result['missing'])} unmatched "
            f"case(s) ({old_path} -> {new_path})",
            file=sys.stderr,
        )
        return 1
    print(f"no regressions beyond {args.threshold:.0%} ({old_path} -> {new_path})")
    return 0


def _cmd_batch(args) -> int:
    from .service import BatchRunner, load_manifest

    spec = load_manifest(args.manifest)
    _check_output_dirs(args.report)
    report = BatchRunner(
        spec,
        args.output,
        executor=args.executor,
        workers=args.workers,
        resume=not args.no_resume,
    ).run()
    if args.report:
        report.write(args.report)
    counts = report.counts
    for r in report.fields:
        if r.status == "ok":
            print(
                f"  ok      {r.name:24s} CR={r.cr:8.2f}  bitrate={r.bitrate:.3f}  "
                f"PSNR={r.psnr:6.1f}  {r.wall_s:6.2f}s"
            )
        elif r.status == "skipped":
            print(f"  skipped {r.name:24s} (already in archive)")
        else:
            print(f"  FAILED  {r.name:24s} {r.error}")
    print(
        f"{spec.name}: {counts['ok']} ok, {counts['skipped']} skipped, "
        f"{counts['failed']} failed -> {args.output} "
        f"({report.executor} x{report.workers}, {report.wall_s:.2f}s)"
    )
    return 0 if report.ok else 1


def _cmd_eval(args) -> int:
    from .evaluation import (
        build_report,
        load_config,
        render_html,
        render_markdown,
        run_eval,
        write_report,
    )

    cfg = load_config(args.config)
    _check_output_dirs(args.output, args.markdown, args.html)
    archive = args.archive or f"EVAL_{cfg.name}.rpza"
    run = run_eval(
        cfg,
        archive,
        resume=not args.no_resume,
        executor=args.executor,
        workers=args.workers,
    )
    report = build_report(run)
    output = args.output or f"EVAL_{cfg.name}.json"
    # A failed write below loses only a rendering: the archive already holds
    # every finished cell, and a rerun resumes for free.
    write_report(report, output)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(report) + "\n")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(report))
    resumed = set(run.resumed)
    for r in run.cells:
        if r.status == "failed":
            print(f"  FAILED  {r.cell:44s} {r.error}")
        elif r.cell in resumed:
            print(f"  resumed {r.cell:44s} CR={r.cr:8.2f}  (from archive)")
        else:
            print(
                f"  ok      {r.cell:44s} CR={r.cr:8.2f}  PSNR={r.psnr:6.1f}  "
                f"{r.wall_s:6.2f}s"
            )
    print(
        f"{cfg.name}: {len(run.executed)} executed, {len(run.resumed)} resumed, "
        f"{len(run.failed)} failed -> {output} "
        f"({run.executor} x{run.workers}, {run.wall_s:.2f}s, archive {archive})"
    )
    return 0 if run.ok else 1


def _open_archive(path: str):
    from .service import ArchiveStore

    return ArchiveStore(path, mode="r")


def _cmd_archive_ls(args) -> int:
    with _open_archive(args.archive) as arch:
        entries = arch.entries()
    print(f"{args.archive}: {len(entries)} entries")
    for e in entries:
        shape = "x".join(str(d) for d in e.shape)
        steps = f" x{e.timesteps}t" if e.timesteps > 1 else ""
        print(
            f"  {e.name:24s} {e.kind:6s} {e.codec:14s} {shape}{steps} {e.dtype:8s} "
            f"eb={e.eb_abs:.3g}  {e.nbytes:10d} B  CR={e.compression_ratio:.2f}"
        )
    return 0


def _cmd_archive_get(args) -> int:
    from .datasets.io import write_raw

    with _open_archive(args.archive) as arch:
        if args.tile is not None:
            origin, data = arch.get_tile(args.name, args.tile)
            write_raw(args.output, data)
            print(
                f"{args.name}[tile {args.tile}] @ {origin}: wrote {data.nbytes} bytes "
                f"to {args.output} (shape {data.shape})"
            )
        else:
            data = arch.get(args.name)
            write_raw(args.output, data)
            print(
                f"{args.name}: wrote {data.nbytes} bytes to {args.output} "
                f"(shape {data.shape})"
            )
    return 0


def _cmd_archive_verify(args) -> int:
    import glob as _glob

    from .service import ArchiveError

    # Expand globs ourselves so `repro archive verify out/worker-*.rpza`
    # behaves the same from scripts (no shell) as from an interactive shell.
    paths: list[str] = []
    for raw in args.archives:
        matched = sorted(_glob.glob(raw))
        paths.extend(matched if matched else [raw])
    depth = "deep" if args.deep else "structural"
    rows: list[tuple[str, str, int, int]] = []  # (path, verdict, entries, problems)
    unreadable = 0
    total_problems = 0
    for path in paths:
        try:
            with _open_archive(path) as arch:
                problems = arch.verify(name=args.entry, deep=args.deep)
                n = 1 if args.entry else len(arch)
        except (ArchiveError, OSError) as exc:
            print(f"PROBLEM: {path}: {exc}", file=sys.stderr)
            rows.append((path, "UNREADABLE", 0, 1))
            unreadable += 1
            continue
        for p in problems:
            print(f"PROBLEM: {path}: {p}", file=sys.stderr)
        total_problems += len(problems)
        rows.append((path, "OK" if not problems else "FAILED", n, len(problems)))
    if len(rows) == 1 and not unreadable:
        # Single-archive invocations keep their familiar one-line verdict.
        path, verdict, n, nproblems = rows[0]
        noun = "entry" if n == 1 else "entries"
        if verdict == "OK":
            print(f"{path}: {n} {noun} OK ({depth} check)")
            return 0
        print(f"{path}: {nproblems} problem(s) in {n} {noun}", file=sys.stderr)
        return 1
    width = max(len(r[0]) for r in rows)
    print(f"{'archive':{width}s}  {'verdict':10s} {'entries':>7s} {'problems':>8s}")
    for path, verdict, n, nproblems in rows:
        print(f"{path:{width}s}  {verdict:10s} {n:7d} {nproblems:8d}")
    bad = sum(1 for r in rows if r[1] != "OK")
    print(
        f"{len(rows)} archive(s): {len(rows) - bad} OK, {bad} with problems ({depth} check)",
        file=sys.stderr if bad else sys.stdout,
    )
    if unreadable:
        return 2
    return 1 if total_problems else 0


def _cmd_archive_repair(args) -> int:
    import json

    from .service.archive import ArchiveStore

    report = ArchiveStore.repair(args.archive)  # unrepairable: ArchiveError, exit 2
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(
            f"{args.archive}: scanned {report['scanned']} entries — "
            f"{len(report['ok'])} ok, {len(report['restored'])} restored from "
            f"replicas, {len(report['quarantined'])} quarantined"
            + (" (index rebuilt)" if report["index_recovered"] else "")
        )
        for problem in report["problems"]:
            print(f"  {problem}", file=sys.stderr)
        if report["quarantined"]:
            print(f"  quarantined payloads under {report['quarantine_dir']}", file=sys.stderr)
    return 1 if report["quarantined"] else 0


def _cmd_serve(args) -> int:
    from .server.pool import DEFAULT_CACHE_BYTES, build_pool

    pool = build_pool(
        args.workers_procs,
        queue_depth=args.queue_depth,
        cache_bytes=DEFAULT_CACHE_BYTES if args.cache_bytes is None else args.cache_bytes,
    )
    # Worker processes boot first: their engine imports run while this
    # process imports the HTTP frontend, which loads no NumPy.
    pool.spawn()

    import asyncio

    from .server.app import ReproServer

    async def _serve() -> None:
        await server.start()
        # SIGTERM/SIGINT trigger a graceful drain: refuse new work, finish
        # in-flight requests, flush stats, then stop (docs/OPERATIONS.md).
        server.install_signal_handlers()
        # The OS picks the port for --port 0; clients need to see the result.
        print(
            f"serving {server.archive_root} on http://{server.host}:{server.port}",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass  # graceful drain closed the listener under us
        finally:
            await server.stop()

    try:
        server = ReproServer(
            args.root, host=args.host, port=args.port, deadline_ms=args.deadline_ms, pool=pool
        )
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        # Anything up to the first successful bind: socket in use, privileged
        # port, unwritable archive root, ...
        raise OSError(
            exc.errno,
            f"cannot serve {args.root} on {args.host}:{args.port}: {exc.strerror or exc}",
        ) from None
    finally:
        pool.close()  # a server that never started still owns the spawned workers
    return 0


def _cmd_cluster_coordinator(args) -> int:
    import asyncio

    from .cluster import ClusterCoordinator
    from .service import load_manifest

    spec = load_manifest(args.manifest)
    coordinator = ClusterCoordinator(
        spec, host=args.host, port=args.port, lease_ttl_s=args.lease_ttl
    )

    async def _serve() -> dict:
        await coordinator.start()
        # The OS picks the port for --port 0; workers need to see the result.
        print(f"coordinating {spec.name} on http://{coordinator.address}", flush=True)
        try:
            return await coordinator.run_until_drained(
                timeout_s=args.timeout if args.timeout > 0 else None
            )
        finally:
            await coordinator.stop()

    try:
        report = asyncio.run(_serve())
    except KeyboardInterrupt:
        return 1
    return _finish_cluster_report(report, args.report)


def _cmd_cluster_worker(args) -> int:
    from .client import RetryPolicy
    from .cluster import ClusterWorker

    summary = ClusterWorker(
        args.coordinator,
        args.shard,
        name=args.name,
        policy=RetryPolicy(deadline_s=args.deadline if args.deadline > 0 else None),
        seed=args.seed,
    ).run()
    print(
        f"worker {summary['worker']}: {summary['ok']} ok, {summary['failed']} failed, "
        f"{summary['resumed']} resumed -> {summary['shard']} "
        f"({summary['client']['requests']} requests over "
        f"{summary['client']['conn_opens']} connection(s))"
    )
    return 0 if summary["failed"] == 0 else 1


def _finish_cluster_report(report: dict, report_path: str | None) -> int:
    import json

    if report_path:
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for row in report["reassignments"]:
        print(
            f"  reassigned {row['field']:24s} from {row['worker']} "
            f"(attempt {row['attempt']}, held {row['held_s']:.1f}s)"
        )
    for name, row in sorted(report["workers"].items()):
        print(
            f"  {name:8s} {row['ok']:3d} ok {row['failed']:3d} failed "
            f"{row['resumed']:3d} resumed  {row['throughput_mbs']:8.1f} MB/s  "
            f"-> {row['shard']}"
        )
    problems = report.get("verify_problems", [])
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    status = "converged" if report["drained"] else "DID NOT DRAIN"
    print(
        f"{report['job']}: {status} — {report['ok']} ok, {report['failed']} failed "
        f"of {report['fields']} fields in {report['elapsed_s']:.2f}s "
        f"({len(report['reassignments'])} reassignment(s))"
    )
    failed = report["failed"] or problems or not report["drained"]
    return 1 if failed else 0


def _cmd_cluster_run(args) -> int:
    from .cluster import run_cluster
    from .faults import FaultPlan
    from .service import load_manifest

    spec = load_manifest(args.manifest)
    _check_output_dirs(args.report)
    worker_env = None
    if args.faults:
        if not 0 <= args.fault_worker < args.workers:
            return _fail(
                f"--fault-worker {args.fault_worker} out of range for {args.workers} workers"
            )
        with open(args.faults) as fh:
            plan = FaultPlan.loads(fh.read(), source=args.faults)
        # Arm exactly one victim: every worker arms REPRO_FAULTS at import
        # with its own hit counters, so a plan in the shared environment
        # would fire in all of them at once.
        worker_env = {args.fault_worker: {"REPRO_FAULTS": plan.dumps()}}
    report = run_cluster(
        spec,
        args.outdir,
        workers=args.workers,
        lease_ttl_s=args.lease_ttl,
        replicas=args.replicas,
        timeout_s=args.timeout,
        worker_env=worker_env,
    )
    report_path = args.report or f"{args.outdir.rstrip('/')}/cluster_report.json"
    return _finish_cluster_report(report, report_path)


def _add_command(sub, name: str, help_text: str, doc: str, **kwargs):
    """Register a subcommand with the one-line help + docs-pointer epilog
    every command carries (tests assert both are present and non-empty)."""
    return sub.add_parser(
        name,
        help=help_text,
        description=help_text[0].upper() + help_text[1:] + ".",
        epilog=f"Documentation: {doc}",
        **kwargs,
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    p.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__} (request schema {REQUEST_SCHEMA})",
        help="print the package version and request-schema version",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = _add_command(
        sub,
        "compress",
        "compress a raw float field into a .rpz container",
        "docs/COOKBOOK.md (recipe: compress a field)",
    )
    pc.add_argument("input")
    pc.add_argument("-o", "--output", required=True)
    pc.add_argument("-d", "--dims", type=int, nargs="+", default=None)
    pc.add_argument("--eb", type=float, default=1e-3, help="value-range-relative bound")
    pc.add_argument("--mode", choices=("cr", "tp"), default="cr")
    pc.add_argument(
        "--codec",
        default=None,
        help="any registered codec name instead of cuSZ-Hi-CR (see `repro bench`"
        " --help or GET /codecs for the registry)",
    )
    pc.add_argument(
        "--tiles",
        type=int,
        nargs="+",
        default=None,
        metavar="T",
        help="tile shape for parallel tiled compression (e.g. --tiles 128 128 128)",
    )
    pc.add_argument(
        "--workers", type=int, default=0, help="tile-parallel workers (0 = CPU count)"
    )
    pc.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="tile executor (requires --tiles; default: threads)",
    )
    pc.add_argument(
        "--pipeline",
        default=None,
        metavar="NAME",
        help="lossless-pipeline override for the cuSZ-Hi engine"
        " (e.g. HF, HF+RRE4-TCMS8-RZE1)",
    )
    pc.set_defaults(func=_cmd_compress)

    pd = _add_command(
        sub,
        "decompress",
        "decompress a .rpz stream back to raw field bytes",
        "docs/COOKBOOK.md (recipe: decompress)",
    )
    pd.add_argument("input")
    pd.add_argument("-o", "--output", required=True)
    pd.set_defaults(func=_cmd_decompress)

    pi = _add_command(
        sub,
        "info",
        "inspect a .rpz stream's header, segments and metadata",
        "docs/ARCHITECTURE.md (container format reference)",
    )
    pi.add_argument("input")
    pi.set_defaults(func=_cmd_info)

    pb = _add_command(
        sub,
        "bench",
        "benchmark: CR/PSNR table, or the pinned pipeline perf matrix",
        "docs/PERFORMANCE.md (pipeline bench, report schema, diffing) and docs/API.md",
    )
    pb.add_argument("--dataset", default="nyx")
    pb.add_argument("--eb", type=float, default=1e-3)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument(
        "--codec",
        default=None,
        help="run the --pipeline matrix through one registered codec"
        " (default: the cuSZ-Hi engine in CR mode)",
    )
    pb.add_argument(
        "--pipeline",
        action="store_true",
        help="run the pinned 1D/2D/3D pipeline matrix and write a JSON perf report",
    )
    pb.add_argument(
        "--smoke",
        action="store_true",
        help="pipeline matrix on small shapes (CI-sized; implies --pipeline)",
    )
    pb.add_argument(
        "-o",
        "--output",
        default="BENCH_pipeline.json",
        help="where --pipeline/--smoke write the JSON report",
    )
    pb.add_argument("--label", default=None, help="free-form label stored in the report")
    pb.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repeats per case; per-stage minimum wall time is reported (default 3)",
    )
    pb.add_argument(
        "--diff",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="compare two pipeline reports; exit 1 on wall-time regressions",
    )
    pb.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative wall-time regression threshold for --diff (default 0.25)",
    )
    pb.add_argument(
        "--min-wall",
        type=float,
        default=0.02,
        help="skip --diff timing checks when the baseline stage wall is below"
        " this many seconds (millisecond walls measure the scheduler)",
    )
    pb.set_defaults(func=_cmd_bench)

    pba = _add_command(
        sub,
        "batch",
        "run a manifest of fields into an archive",
        "docs/API.md (JobSpec / BatchRunner) and docs/COOKBOOK.md (recipe: resume a batch)",
    )
    pba.add_argument("manifest", help="TOML/JSON job manifest (see repro.service.manifest)")
    pba.add_argument("-o", "--output", required=True, help="archive path (.rpza file)")
    pba.add_argument("--report", default=None, help="write the JSON job report here")
    pba.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="field-level executor (default: the manifest's job.executor)",
    )
    pba.add_argument(
        "--workers", type=int, default=None, help="field-parallel workers (0 = CPU count)"
    )
    pba.add_argument(
        "--no-resume",
        action="store_true",
        help="recompress fields even when the archive already holds them",
    )
    pba.set_defaults(func=_cmd_batch)

    pe = _add_command(
        sub,
        "eval",
        "run a paper figure/table experiment matrix from a TOML config",
        "docs/EVALUATION.md (config reference, resume semantics, report schema)",
    )
    pe.add_argument(
        "config", help="TOML/JSON experiment config (e.g. configs/fig8.toml)"
    )
    pe.add_argument(
        "-o",
        "--output",
        default=None,
        help="where to write the repro.eval-report/1 JSON (default EVAL_<name>.json)",
    )
    pe.add_argument(
        "--markdown", default=None, metavar="PATH", help="also render the report as markdown"
    )
    pe.add_argument(
        "--html", default=None, metavar="PATH", help="also render the report as HTML"
    )
    pe.add_argument(
        "--archive",
        default=None,
        help="cell archive backing resume (.rpza file; default EVAL_<name>.rpza)",
    )
    pe.add_argument(
        "--no-resume",
        action="store_true",
        help="re-execute every cell (default: skip cells already in the archive)",
    )
    pe.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="cell-level executor (default: the config's execution.executor)",
    )
    pe.add_argument(
        "--workers", type=int, default=None, help="cell-parallel workers (0 = CPU count)"
    )
    pe.set_defaults(func=_cmd_eval)

    pa = _add_command(
        sub,
        "archive",
        "inspect / read / verify a batch archive",
        "docs/API.md (ArchiveStore) and docs/ARCHITECTURE.md (.rpza format)",
    )
    asub = pa.add_subparsers(dest="archive_command", required=True)

    pls = _add_command(
        asub,
        "ls",
        "list archive entries with codec, shape and ratio",
        "docs/API.md (ArchiveStore)",
    )
    pls.add_argument("archive")
    pls.set_defaults(func=_cmd_archive_ls)

    pget = _add_command(
        asub,
        "get",
        "extract one entry (or one tile of it) as a raw field",
        "docs/COOKBOOK.md (recipe: partial tile read)",
    )
    pget.add_argument("archive")
    pget.add_argument("name")
    pget.add_argument("-o", "--output", required=True)
    pget.add_argument(
        "--tile",
        type=int,
        default=None,
        metavar="I",
        help="partial decompression: decode only tile I of a tiled entry",
    )
    pget.set_defaults(func=_cmd_archive_get)

    pver = _add_command(
        asub,
        "verify",
        "integrity-check archive entries (structural, or --deep full decode)",
        "docs/API.md (ArchiveStore.verify)",
    )
    pver.add_argument(
        "archives",
        nargs="+",
        help="archive paths or globs; several at once print a per-archive summary table",
    )
    pver.add_argument(
        "--entry", default=None, metavar="NAME", help="check only this entry in each archive"
    )
    pver.add_argument(
        "--deep", action="store_true", help="also fully decompress every checked entry"
    )
    pver.set_defaults(func=_cmd_archive_verify)

    prep = _add_command(
        asub,
        "repair",
        "self-heal a corrupt archive: rebuild the index, restore from "
        "replicas, quarantine what cannot be saved",
        "docs/OPERATIONS.md (corruption runbook) and docs/API.md "
        "(ArchiveStore.repair)",
    )
    prep.add_argument("archive")
    prep.add_argument(
        "--json", action="store_true", help="print the full repro.archive-repair/1 report"
    )
    prep.set_defaults(func=_cmd_archive_repair)

    ps = _add_command(
        sub,
        "serve",
        "serve compress/decompress, archive reads and batch jobs over HTTP",
        "docs/API.md (HTTP endpoints), docs/OPERATIONS.md (worker pool, "
        "overload behavior, drain) and docs/COOKBOOK.md (recipe: query /stats)",
        # A retired ``--workers N`` (compress threads) must be refused, not
        # read as an abbreviation of ``--workers-procs N`` (processes).
        allow_abbrev=False,
    )
    ps.add_argument(
        "root",
        nargs="?",
        default=".",
        help="archive root directory served under /archives (created if missing)",
    )
    ps.add_argument("--host", default="127.0.0.1", help="bind address")
    ps.add_argument("--port", type=int, default=8077, help="bind port (0 = pick a free port)")
    ps.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="LRU byte budget for decompressed tile/field reads (0 disables the cache)",
    )
    ps.add_argument(
        "--workers-procs",
        type=int,
        default=1,
        help="worker processes for heavy work (1 = in-process, 0 = CPU count)",
    )
    ps.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="heavy requests in flight before new ones get 429 + Retry-After",
    )
    ps.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="per-request deadline for heavy work; expired requests get 503 (0 = none)",
    )
    ps.set_defaults(func=_cmd_serve)

    pcl = _add_command(
        sub,
        "cluster",
        "distributed batch tier: coordinator, workers, single-host runs",
        "docs/API.md (repro cluster), docs/OPERATIONS.md (topology, tuning, runbooks)",
    )
    csub = pcl.add_subparsers(dest="cluster_command", required=True)

    pcc = _add_command(
        csub,
        "coordinator",
        "serve one manifest's work queue over HTTP until every field is acked",
        "docs/API.md (coordinator endpoints) and docs/OPERATIONS.md (lease tuning)",
    )
    pcc.add_argument("manifest")
    pcc.add_argument("--host", default="127.0.0.1", help="bind address")
    pcc.add_argument("--port", type=int, default=0, help="bind port (0 = pick a free port)")
    pcc.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        metavar="S",
        help="seconds a lease survives without an ack or heartbeat",
    )
    pcc.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        metavar="S",
        help="give up if the queue has not drained after S seconds (0 = wait forever)",
    )
    pcc.add_argument(
        "--report", default=None, metavar="PATH", help="write the repro.cluster-report/1 JSON here"
    )
    pcc.set_defaults(func=_cmd_cluster_coordinator)

    pcw = _add_command(
        csub,
        "worker",
        "pull leased fields from a coordinator and compress them into one shard",
        "docs/API.md (repro cluster worker) and docs/OPERATIONS.md (lost-worker runbook)",
    )
    pcw.add_argument(
        "--coordinator", required=True, metavar="HOST:PORT", help="coordinator address"
    )
    pcw.add_argument(
        "--shard", required=True, metavar="PATH", help="this worker's .rpza shard (append mode)"
    )
    pcw.add_argument("--name", default=None, help="worker identity (default: w<pid>)")
    pcw.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="S",
        help="per-request retry budget against the coordinator (0 = none)",
    )
    pcw.add_argument("--seed", type=int, default=0, help="retry-jitter seed")
    pcw.set_defaults(func=_cmd_cluster_worker)

    pcr = _add_command(
        csub,
        "run",
        "single-host cluster: local coordinator + N worker processes + merged verify",
        "docs/API.md (repro cluster run) and docs/OPERATIONS.md (topology)",
    )
    pcr.add_argument("manifest")
    pcr.add_argument(
        "-o", "--outdir", required=True, help="directory for worker shards and the report"
    )
    pcr.add_argument("--workers", type=int, default=2, help="worker processes to spawn")
    pcr.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        metavar="S",
        help="seconds a lease survives without an ack or heartbeat",
    )
    pcr.add_argument(
        "--replicas",
        type=int,
        default=2,
        metavar="K",
        help="copies of each hot field across distinct shards (1 = off)",
    )
    pcr.add_argument(
        "--timeout", type=float, default=600.0, metavar="S", help="abort if not drained in time"
    )
    pcr.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="report path (default: OUTDIR/cluster_report.json)",
    )
    pcr.add_argument(
        "--faults",
        default=None,
        metavar="FILE",
        help="JSON fault plan armed in one designated worker (chaos testing)",
    )
    pcr.add_argument(
        "--fault-worker",
        type=int,
        default=0,
        metavar="IDX",
        help="which worker index receives the --faults plan",
    )
    pcr.set_defaults(func=_cmd_cluster_run)
    return p


#: Typed errors outside the OSError and ValueError families, by defining
#: module.  They are looked up in sys.modules rather than imported: a class
#: whose module never loaded cannot have been raised, and importing one
#: would load the engine into a command that never needed it.
_TYPED_ERRORS = (
    ("repro.api.registry", "UnknownCodecError"),
    ("repro.client", "ClientError"),
    ("repro.cluster.worker", "WorkerError"),
)


def _typed_errors() -> tuple[type[Exception], ...]:
    loaded = [getattr(sys.modules.get(module), name, None) for module, name in _TYPED_ERRORS]
    return (OSError, ValueError, *(cls for cls in loaded if cls is not None))


def _message(exc: Exception) -> str:
    if isinstance(exc, OSError) and exc.strerror:
        return f"{exc.filename}: {exc.strerror}" if exc.filename else exc.strerror
    return str(exc)


def main(argv: list[str] | None = None) -> int:
    """Run one command; the CLI's one error boundary.

    An OSError (TimeoutError included), a ValueError (ManifestError,
    ConfigError, ArchiveError, ContainerError, RequestError, CapabilityError
    and the decoders' own), an UnknownCodecError, ClientError or WorkerError
    becomes one ``error:`` line on stderr and exit code 2.  Anything else is
    a bug and keeps its traceback.
    """
    import logging

    args = build_parser().parse_args(argv)
    # Operational events (serve drain progress, worker restarts, cluster
    # leases) go to the "repro.*" loggers; give them a handler on stderr.
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    try:
        return args.func(args)
    except _typed_errors() as exc:  # evaluated only once something is raised
        return _fail(_message(exc))


if __name__ == "__main__":
    sys.exit(main())

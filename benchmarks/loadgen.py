#!/usr/bin/env python3
"""Declarative load harness for ``repro serve`` (the PR-6 acceptance tool).

A TOML **run table** describes the experiment the muBench way: request mixes
× concurrency levels × payload sizes × repetitions, crossed into run cells.
Each cell fires a fixed number of requests at the server from ``concurrency``
concurrent clients and records per-request wall times; the report persists
p50/p99 latency and throughput per cell into a ``repro.loadgen/1`` JSON
artifact (committed under ``benchmarks/history/`` for the trajectory record).

Run table format::

    title = "pool acceptance"
    requests = 64          # requests per cell
    warmup = 4             # unmeasured priming requests per cell
    repetitions = 1
    eb = 1e-3              # error bound for compress/decompress payloads

    [mixes.compress-heavy] # one table per mix: kind -> weight
    compress = 0.9
    read = 0.1

    [factors]
    concurrency = [2, 8]   # concurrent client connections
    payload = [24]         # cubic field side: 24 -> float32 24x24x24

Request kinds: ``compress`` (POST a raw field), ``decompress`` (POST a
pre-built container), ``read`` (GET a seeded archive field) and ``stats``
(GET /stats).  Every cell also records the SHA-256 of one canonical
compress response, so two artifacts (say ``--workers-procs 1`` vs ``4``)
prove the pooled path byte-identical by comparing digests.

Requests go through :class:`repro.client.AsyncReproClient`: 429/503
responses are retried with capped, ``Retry-After``-honoring backoff, and
each cell records ``retries`` (extra attempts that eventually got an
answer) and ``gave_up`` (requests still retryable after the whole budget)
instead of dying on the first overload response.  Latencies are measured
to the *final* answer, backoff pauses included.

Usage (spawn a fresh server, then drain it with SIGTERM)::

    python benchmarks/loadgen.py benchmarks/loadgen_smoke.toml \
        --spawn --workers-procs 2 -o loadgen.json

or aim at a running server: ``--host 127.0.0.1 --port 8077``
(``read`` kinds then need ``--archive NAME --field FIELD``).

Exit status is 1 if any request failed (non-2xx) or timed out — the CI
``loadgen-smoke`` job relies on that.  Python >= 3.11 (``tomllib``).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

LOADGEN_SCHEMA = "repro.loadgen/1"
KINDS = ("compress", "decompress", "read", "stats")
_DEFAULTS = {"requests": 32, "warmup": 2, "repetitions": 1, "eb": 1e-3}


def _ensure_repro_importable() -> None:
    """Make ``repro`` importable when run straight from a checkout."""
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError:
        sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One run cell: a (mix, concurrency, payload, repetition) combination."""

    mix_name: str
    mix: tuple[tuple[str, float], ...]  # (kind, weight), insertion order
    concurrency: int
    payload: int
    repetition: int
    requests: int
    warmup: int
    eb: float

    @property
    def seed(self) -> str:
        return f"{self.mix_name}|c{self.concurrency}|p{self.payload}|r{self.repetition}"


def parse_run_table(text: str) -> tuple[dict, list[RunSpec]]:
    """Parse a TOML run table into ``(meta, run cells)``.

    Cells are the full cross product mixes × concurrency × payload, repeated
    ``repetitions`` times, in deterministic order (mix, then concurrency,
    then payload, then repetition).

    >>> meta, runs = parse_run_table('''
    ... title = "smoke"
    ... requests = 8
    ... [mixes.compress-only]
    ... compress = 1.0
    ... [factors]
    ... concurrency = [1, 2]
    ... payload = [8]
    ... ''')
    >>> meta["title"], meta["requests"]
    ('smoke', 8)
    >>> len(runs)  # 1 mix x 2 concurrency x 1 payload x 1 repetition
    2
    >>> runs[0].mix_name, runs[0].concurrency, runs[0].payload
    ('compress-only', 1, 8)
    >>> runs[1].concurrency
    2
    >>> parse_run_table('[mixes.bad]\\nteleport = 1\\n[factors]\\nconcurrency=[1]\\npayload=[8]')
    Traceback (most recent call last):
    ...
    ValueError: mix 'bad': unknown request kind 'teleport' (known: compress, decompress, read, stats)
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover — py3.10
        raise SystemExit("loadgen run tables need Python >= 3.11 (tomllib)") from None
    doc = tomllib.loads(text)
    meta = {key: doc.get(key, default) for key, default in _DEFAULTS.items()}
    meta["title"] = doc.get("title", "untitled")
    mixes = doc.get("mixes")
    if not isinstance(mixes, dict) or not mixes:
        raise ValueError("run table needs at least one [mixes.<name>] table")
    for name, weights in mixes.items():
        for kind in weights:
            if kind not in KINDS:
                raise ValueError(
                    f"mix {name!r}: unknown request kind {kind!r} (known: {', '.join(KINDS)})"
                )
        if not weights or sum(weights.values()) <= 0:
            raise ValueError(f"mix {name!r}: weights must sum to a positive number")
    factors = doc.get("factors", {})
    concurrency = factors.get("concurrency")
    payload = factors.get("payload")
    if not concurrency or not payload:
        raise ValueError("run table needs [factors] with concurrency = [...] and payload = [...]")
    runs = [
        RunSpec(
            mix_name=name,
            mix=tuple((k, float(w)) for k, w in weights.items()),
            concurrency=int(c),
            payload=int(p),
            repetition=rep,
            requests=int(meta["requests"]),
            warmup=int(meta["warmup"]),
            eb=float(meta["eb"]),
        )
        for name, weights in mixes.items()
        for c in concurrency
        for p in payload
        for rep in range(int(meta["repetitions"]))
    ]
    return meta, runs


# ------------------------------------------------------------------ payloads


def make_field(side: int) -> np.ndarray:
    """The deterministic float32 ``side``³ field every client sends.

    Seeded by the side length alone, so a ``--workers-procs 1`` run and a
    pooled run compress byte-for-byte the same input.
    """
    rng = np.random.default_rng(side)
    smooth = np.fromfunction(
        lambda i, j, k: np.sin(i / 9.0) * np.cos(j / 7.0) + k / max(1, side), (side, side, side)
    )
    return (smooth + 0.05 * rng.standard_normal((side, side, side))).astype(np.float32)


class _Workload:
    """Pre-built request bodies/targets for one payload size."""

    def __init__(self, side: int, eb: float, archive: str | None, field: str | None):
        self.side = side
        self.eb = eb
        self.field_bytes = make_field(side).tobytes()
        dims = ",".join([str(side)] * 3)
        self.compress_target = f"/compress?shape={dims}&eb={eb:g}"
        _ensure_repro_importable()
        from repro import api

        self.blob_bytes = api.compress(make_field(side), api.build_request(eb=eb)).to_bytes()
        self.read_target = f"/archives/{archive}/fields/{field}" if archive and field else None

    def request_for(self, kind: str) -> tuple[str, str, bytes]:
        if kind == "compress":
            return "POST", self.compress_target, self.field_bytes
        if kind == "decompress":
            return "POST", "/decompress", self.blob_bytes
        if kind == "read":
            if self.read_target is None:
                raise SystemExit(
                    "mix uses 'read' but no archive is available; "
                    "use --spawn or pass --archive/--field"
                )
            return "GET", self.read_target, b""
        return "GET", "/stats", b""


# --------------------------------------------------------------- HTTP client


def _make_client(host: str, port: int, timeout_s: float, seed: str):
    """One retrying client (``repro.client``) for a run cell.

    429/503 responses are retried with capped, seeded-jitter backoff
    (honoring ``Retry-After``), so a saturated server shows up as
    ``retries``/``gave_up`` counts in the record rather than a dead cell.
    """
    _ensure_repro_importable()
    from repro.client import AsyncReproClient, RetryPolicy

    policy = RetryPolicy(max_attempts=4, base_s=0.05, cap_s=2.0, attempt_timeout_s=timeout_s)
    return AsyncReproClient(host, port, policy=policy, seed=seed)


async def run_cell(
    spec: RunSpec, host: str, port: int, workload: _Workload, timeout_s: float
) -> dict:
    """Execute one run cell and return its JSON-ready record."""
    from repro.client import RetriesExhausted

    rnd = random.Random(spec.seed)
    kinds = [k for k, _ in spec.mix]
    weights = [w for _, w in spec.mix]
    schedule = rnd.choices(kinds, weights=weights, k=spec.requests)
    http = _make_client(host, port, timeout_s, spec.seed)
    for kind in rnd.choices(kinds, weights=weights, k=spec.warmup):
        method, target, body = workload.request_for(kind)
        try:
            await http.request(method, target, body, deadline_s=timeout_s)
        except RetriesExhausted:
            pass  # warmups prime caches; their failures are not measured
    http.stats = dict.fromkeys(http.stats, 0)  # measure post-warmup only

    queue: asyncio.Queue = asyncio.Queue()
    for kind in schedule:
        queue.put_nowait(kind)
    latencies_ms: list[float] = []
    by_status: dict[str, int] = {}
    timeouts = 0

    async def client() -> None:
        nonlocal timeouts
        while True:
            try:
                kind = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            method, target, body = workload.request_for(kind)
            t0 = time.perf_counter()
            try:
                resp = await http.request(method, target, body, deadline_s=timeout_s)
            except RetriesExhausted:
                timeouts += 1  # no response within the attempt/deadline budget
                continue
            latencies_ms.append((time.perf_counter() - t0) * 1000.0)
            by_status[str(resp.status)] = by_status.get(str(resp.status), 0) + 1

    t0 = time.perf_counter()
    await asyncio.gather(*[client() for _ in range(spec.concurrency)])
    wall_s = time.perf_counter() - t0

    ok = sum(n for s, n in by_status.items() if s.startswith("2"))
    failed = sum(by_status.values()) - ok  # still non-2xx after all retries
    arr = np.asarray(latencies_ms) if latencies_ms else np.asarray([0.0])
    return {
        "mix": spec.mix_name,
        "concurrency": spec.concurrency,
        "payload": spec.payload,
        "repetition": spec.repetition,
        "requests": spec.requests,
        "ok": ok,
        "failed": failed,
        "timeouts": timeouts,
        "retries": http.stats["retries"],
        "gave_up": http.stats["gave_up"],
        "statuses": dict(sorted(by_status.items())),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(ok / wall_s, 2) if wall_s > 0 else 0.0,
        "p50_ms": round(float(np.percentile(arr, 50)), 3),
        "p99_ms": round(float(np.percentile(arr, 99)), 3),
        "mean_ms": round(float(arr.mean()), 3),
    }


# ------------------------------------------------------------- server spawn


class SpawnedServer:
    """A ``repro serve`` child process with a seeded archive root.

    Started on port 0; the bound port is parsed from the child's first
    stdout line.  ``stop()`` sends SIGTERM — every spawned run exercises the
    graceful-drain path, not just the happy path.
    """

    def __init__(self, root: str, args: argparse.Namespace):
        self.root = root
        self.args = args
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def seed_archive(self, payload_sides: list[int], eb: float) -> None:
        _ensure_repro_importable()
        from repro import api
        from repro.service import ArchiveStore

        with ArchiveStore(os.path.join(self.root, "corpus.rpza"), mode="w") as archive:
            for side in payload_sides:
                blob = api.compress(make_field(side), api.build_request(eb=eb))
                archive.add_blob(f"f{side}", blob.blob)

    def start(self) -> None:
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            self.root,
            "--port",
            "0",
            "--workers-procs",
            str(self.args.workers_procs),
            "--queue-depth",
            str(self.args.queue_depth),
            "--deadline-ms",
            str(self.args.deadline_ms),
        ]
        if self.args.cache_bytes is not None:
            cmd += ["--cache-bytes", str(self.args.cache_bytes)]
        env = dict(os.environ)
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True
        )
        assert self.proc.stdout is not None
        # Both the CLI's announcement and the server's operational log line
        # carry "http://H:P"; scan for whichever lands first (stderr and
        # stdout are merged, so log lines may interleave).
        seen = []
        for line in self.proc.stdout:
            seen.append(line)
            match = re.search(r"http://([^\s/]+):(\d+)", line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        raise SystemExit("server failed to start: " + "".join(seen))

    def stop(self) -> int:
        if self.proc is None:
            return 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


# ------------------------------------------------------------------- driver


async def drive(args: argparse.Namespace, meta: dict, runs: list[RunSpec]) -> dict:
    host, port = args.host, args.port
    payload_sides = sorted({r.payload for r in runs})
    eb = float(meta["eb"])
    archive = args.archive
    server: SpawnedServer | None = None
    if args.spawn:
        root = tempfile.mkdtemp(prefix="repro-loadgen-")
        server = SpawnedServer(root, args)
        server.seed_archive(payload_sides, eb)
        server.start()
        host, port = server.host, server.port
        archive = "corpus"

    records = []
    canonical: dict[str, str] = {}
    server_config = {
        "workers_procs": args.workers_procs if args.spawn else None,
        "queue_depth": args.queue_depth if args.spawn else None,
        "deadline_ms": args.deadline_ms if args.spawn else None,
        "spawned": bool(args.spawn),
    }
    try:
        probe_client = _make_client(host, port, args.timeout_s, "canonical-probe")
        for side in payload_sides:
            # Canonical digest: one deterministic compress per payload size;
            # identical across server configs iff blobs are byte-identical.
            probe = _Workload(side, eb, None, None)
            resp = await probe_client.request(
                "POST", probe.compress_target, probe.field_bytes, deadline_s=args.timeout_s
            )
            if resp.status != 200:
                raise SystemExit(f"canonical compress for payload {side} failed: {resp.status}")
            canonical[str(side)] = hashlib.sha256(resp.body).hexdigest()
        for spec in runs:
            field = args.field if args.field else f"f{spec.payload}"
            workload = _Workload(spec.payload, spec.eb, archive, field)
            record = await run_cell(spec, host, port, workload, args.timeout_s)
            records.append(record)
            print(
                f"  {spec.mix_name:>16s}  c={spec.concurrency:<3d} p={spec.payload}^3 "
                f"rep={spec.repetition}  {record['throughput_rps']:8.1f} req/s  "
                f"p50 {record['p50_ms']:7.1f} ms  p99 {record['p99_ms']:7.1f} ms"
                + ("  [FAILURES]" if record["failed"] or record["timeouts"] else ""),
                flush=True,
            )
        resp = await probe_client.request("GET", "/stats", deadline_s=args.timeout_s)
        stats = resp.json() if resp.status == 200 else None
    finally:
        if server is not None:
            code = server.stop()
            print(f"  server drained and exited with code {code}", flush=True)

    return {
        "schema": LOADGEN_SCHEMA,
        "generated_unix": int(time.time()),
        "table": {**meta, "cells": len(runs)},
        "host": {
            "cpus": os.cpu_count(),
            "python": ".".join(map(str, sys.version_info[:3])),
            "platform": sys.platform,
        },
        "server": server_config,
        "canonical_blob_sha256": canonical,
        "runs": records,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("table", help="TOML run table (see module docstring)")
    parser.add_argument("-o", "--output", default=None, help="write the JSON artifact here")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument(
        "--spawn", action="store_true", help="spawn a fresh repro serve child on a free port"
    )
    parser.add_argument("--workers-procs", type=int, default=1, help="spawned server: pool size")
    parser.add_argument("--queue-depth", type=int, default=64, help="spawned server: 429 bound")
    parser.add_argument("--deadline-ms", type=float, default=0.0, help="spawned server: deadline")
    parser.add_argument("--cache-bytes", type=int, default=None, help="spawned server: LRU budget")
    parser.add_argument("--archive", default=None, help="archive name for 'read' requests")
    parser.add_argument("--field", default=None, help="field name for 'read' requests")
    parser.add_argument("--timeout-s", type=float, default=60.0, help="per-request timeout")
    parser.add_argument(
        "--allow-errors", action="store_true", help="exit 0 even if requests failed"
    )
    args = parser.parse_args(argv)

    with open(args.table, "rb") as fh:
        meta, runs = parse_run_table(fh.read().decode("utf-8"))
    print(f"loadgen: {meta['title']!r} — {len(runs)} cells", flush=True)
    report = asyncio.run(drive(args, meta, runs))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}", flush=True)
    bad = sum(r["failed"] + r["timeouts"] for r in report["runs"])
    if bad and not args.allow_errors:
        print(f"loadgen: {bad} failed/timed-out requests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

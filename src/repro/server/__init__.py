"""Async compression service (``repro serve``).

The network layer of the system: a stdlib-only asyncio HTTP server exposing
compress/decompress, random-access archive reads (whole fields and single
tiles), and manifest batch jobs — with one task protocol for all heavy work,
run on a frontend thread (:class:`InlinePool`) or in worker processes
(:class:`WorkerPool`, ``--workers-procs``), a byte-budgeted LRU cache for
decompressed reads (:class:`ByteBudgetLRU`), admission control and deadlines
(429/503), graceful SIGTERM drain, and schema-versioned counters plus
per-route latency histograms on ``GET /stats``.  See ``docs/API.md`` for the
endpoint reference, ``docs/OPERATIONS.md`` for deployment/tuning, and
``docs/ARCHITECTURE.md`` for where this layer sits in the system.
"""

from ..core.cache import ByteBudgetLRU
from .app import DEFAULT_CACHE_BYTES, STATS_SCHEMA, HttpError, ReproServer, run_server
from .jobs import JobManager
from .metrics import LatencyHistogram, RouteLatencies
from .pool import DEFAULT_QUEUE_DEPTH, HashRing, InlinePool, WorkerPool

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_QUEUE_DEPTH",
    "STATS_SCHEMA",
    "HttpError",
    "ReproServer",
    "run_server",
    "ByteBudgetLRU",
    "JobManager",
    "LatencyHistogram",
    "RouteLatencies",
    "HashRing",
    "WorkerPool",
    "InlinePool",
]

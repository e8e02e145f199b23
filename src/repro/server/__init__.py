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

import importlib

#: every exported name and the submodule defining it.  They import lazily
#: via module ``__getattr__`` (as ``repro`` does for its heavy subpackages),
#: so a spawned pool worker, which imports :mod:`repro.server.pool`, loads
#: neither :mod:`repro.server.app` nor ``asyncio``.
_EXPORTS = {
    "DEFAULT_CACHE_BYTES": ".pool",
    "DEFAULT_QUEUE_DEPTH": ".pool",
    "STATS_SCHEMA": ".app",
    "HttpError": "..http",
    "ReproServer": ".app",
    "run_server": ".app",
    "ByteBudgetLRU": "..core.cache",
    "JobManager": ".jobs",
    "LatencyHistogram": ".metrics",
    "RouteLatencies": ".metrics",
    "HashRing": ".pool",
    "WorkerPool": ".pool",
    "InlinePool": ".pool",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
        globals()[name] = value  # cache: later access skips this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""Names every layer shares, in a module that imports no NumPy.

The CLI parser and the process-pool serving frontend read these without
loading the codec engine; :mod:`repro.api` and :mod:`repro.core.tiling`
re-export them.
"""

from __future__ import annotations

import os

__all__ = ["REQUEST_SCHEMA", "EXECUTORS", "resolve_workers"]

#: wire-format identifier stamped into serialized requests (``to_dict``)
REQUEST_SCHEMA = "repro.request/1"

#: the executor lineup every fan-out knob in the system chooses from
EXECUTORS = ("serial", "threads", "processes")


def resolve_workers(workers: int | None) -> int:
    """``0``/``None`` means auto: one worker per visible CPU."""
    if workers:
        return int(workers)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1

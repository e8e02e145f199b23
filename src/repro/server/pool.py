"""Multi-process worker pool: route CPU-heavy work off the frontend process.

The asyncio frontend (:mod:`repro.server.app`) is excellent at sockets and
terrible at NumPy: the hot compression path holds the GIL for hundreds of
milliseconds at a time, so in a single process one heavy ``POST /compress``
starves every concurrent request — including ``GET /healthz``.  This module
puts ``N`` **worker processes** behind the frontend:

* each worker runs :func:`_worker_main`: a blocking loop over its own task
  queue that hands every task to :func:`_execute` — the one task body, which
  runs ``compress`` / ``decompress`` / archive ``read`` tasks through
  :mod:`repro.api`.  Single-process serving (:class:`InlinePool`) runs the
  same body on one frontend thread, so both tiers answer byte-identically;
* tasks travel as small picklable tuples over per-worker
  ``multiprocessing`` queues (pipe transport); each worker sends its
  results back over its own pipe, and a dispatcher thread waits on all of
  them and resolves asyncio futures via ``loop.call_soon_threadsafe``.  No
  lock is shared between processes: a worker killed mid-write can break
  only its own pipes, and its respawn gets new ones;
* archive reads are **sharded by consistent hashing** on
  ``(archive, field)`` (:class:`HashRing`), so each worker's byte-budgeted
  blob cache holds a disjoint slice of the corpus instead of ``N`` copies
  of the same hot fields;
* compress/decompress tasks go to the least-loaded worker (fewest in-flight
  tasks, round-robin tie-break);
* the pool enforces **admission control**: once ``queue_depth`` tasks are
  in flight, :meth:`WorkerPool.submit` raises :class:`PoolSaturated`
  carrying a ``Retry-After`` estimate derived from an EWMA of recent task
  walls (the HTTP layer turns it into a 429);
* **deadlines** ride with each task as an absolute wall-clock timestamp;
  a worker picking up an already-expired task skips the work and reports
  ``expired`` (the HTTP layer's 503), so a backlog drains at queue speed
  instead of compute speed.  The frontend additionally stops waiting at
  the deadline and calls :meth:`WorkerPool.abandon`; a result arriving for
  an abandoned task is counted (``expired`` if the worker skipped it,
  ``late_results`` if it computed an answer nobody wanted) but never
  delivered;
* a worker that dies mid-task fails only its own in-flight tasks — each gets
  a retryable 503 (compress/read tasks are idempotent; :mod:`repro.client`
  retries them) — and is respawned by the dispatcher, so the pool survives
  worker crashes without ever surfacing a 500;
* detected storage corruption (:class:`~repro.service.ArchiveCorruption`)
  travels back with an error *kind* so the frontend can count it in the
  ``integrity`` stats block and flag ``/healthz`` degraded.

Workers are spawned (never forked) so they hold no inherited locks from the
frontend's threads, and they ignore SIGINT/SIGTERM: shutdown is owned by
the frontend's drain sequence, which stops admissions first and sends each
worker a sentinel once in-flight work has settled.  A frontend that dies
without draining (SIGKILL) sends no sentinel; each worker has a thread
that waits on its parent's sentinel and ends the worker when it fires.
A spawned worker imports the codec engine (``import repro.api``) before its
ready handshake, but neither :mod:`repro.server.app` nor ``asyncio`` (the
frontend imports asyncio for :meth:`WorkerPool.submit`).  This module itself
imports no NumPy: ``repro serve --workers-procs N`` builds the pool with
:func:`build_pool` and calls :meth:`WorkerPool.spawn` before the frontend
imports anything else, so the workers' engine imports overlap the
frontend's own boot.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait
from typing import TYPE_CHECKING

from ..defaults import resolve_workers

if TYPE_CHECKING:  # only the frontend's side needs asyncio; workers never load it
    import asyncio

__all__ = [
    "HashRing",
    "WorkerPool",
    "InlinePool",
    "PoolSaturated",
    "PoolTaskError",
    "DeadlineExceeded",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_CACHE_BYTES",
    "build_pool",
]

#: default bound on tasks in flight (queued + executing) across the pool
DEFAULT_QUEUE_DEPTH = 64

#: default read-cache budget for decompressed tiles/fields, across the pool
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: EWMA smoothing for completed-task wall times (Retry-After estimation)
_EWMA_ALPHA = 0.2


class PoolSaturated(Exception):
    """Admission refused: the pool already holds ``queue_depth`` tasks.

    ``retry_after_s`` is the backlog-drain estimate the HTTP layer reports
    as the ``Retry-After`` header of its 429 response.
    """

    def __init__(self, retry_after_s: int, depth: int):
        super().__init__(f"worker pool saturated ({depth} tasks in flight)")
        self.retry_after_s = retry_after_s
        self.depth = depth


class DeadlineExceeded(Exception):
    """A task expired before a worker finished (or started) it."""


class PoolTaskError(Exception):
    """A task failed in a worker; carries the HTTP status it maps to.

    ``kind`` classifies the failure for the frontend's bookkeeping:
    ``"error"`` (plain task failure), ``"corruption"`` (the worker hit
    :class:`~repro.service.ArchiveCorruption` — counted in the ``integrity``
    stats block), ``"worker-death"`` (the worker died mid-task; retryable),
    or ``"fault"`` (an injected :class:`~repro.faults.FaultInjected`).
    """

    def __init__(self, status: int, message: str, kind: str = "error"):
        super().__init__(message)
        self.status = status
        self.message = message
        self.kind = kind


class HashRing:
    """Consistent hashing over ``n`` workers (cache-shard routing).

    Keys map deterministically to a worker index; growing the pool by one
    worker re-homes only ``~1/n`` of the keys, so a rolling resize does not
    cold-start every worker cache at once.  Points are MD5-derived, so the
    mapping is stable across processes and Python runs (no ``PYTHONHASHSEED``
    dependence — the frontend and a load generator agree on shard homes).

    >>> ring = HashRing(3)
    >>> ring.node("corpus.rpza|temperature") == ring.node("corpus.rpza|temperature")
    True
    >>> sorted({ring.node(f"key-{i}") for i in range(64)})  # all workers used
    [0, 1, 2]
    >>> HashRing(1).node("anything")
    0
    """

    def __init__(self, nodes: int, replicas: int = 64):
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        self.nodes = int(nodes)
        points = []
        for node in range(self.nodes):
            for replica in range(replicas):
                digest = hashlib.md5(f"{node}:{replica}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), node))
        points.sort()
        self._points = points

    def node(self, key: str) -> int:
        """The worker index owning ``key`` (first point clockwise)."""
        h = int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")
        lo, hi = 0, len(self._points)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._points[mid][0] < h:
                lo = mid + 1
            else:
                hi = mid
        return self._points[lo % len(self._points)][1]


# --------------------------------------------------------------------- worker


def _task_failure_for(exc: Exception) -> tuple[int, str]:
    """Map a task exception to ``(http_status, kind)``.  Detected storage
    corruption is a retryable, *typed* 503 (the entry may heal via ``repro
    archive repair`` or another replica), never a bare 500."""
    from ..faults import FaultInjected
    from ..service import ArchiveCorruption, ArchiveError, ArchiveNotFound

    if isinstance(exc, ArchiveNotFound):
        return 404, "error"
    if isinstance(exc, ArchiveCorruption):
        return 503, "corruption"
    if isinstance(exc, FaultInjected):
        return 503, "fault"
    if isinstance(exc, (ArchiveError, ValueError, TypeError, KeyError)):
        return 400, "error"
    return 500, "error"


def _run_task(kind: str, payload: dict, cache) -> dict:
    """Execute one task (pure function of payload, plus the read cache).

    Every heavy request of both serving tiers ends here, so pooled and
    single-process responses are byte-identical.
    """
    import numpy as np

    from .. import api

    if kind == "compress":
        # The frontend holds no engine, so the query is validated here, and
        # only then the body against it, as a single process always did.
        request = api.build_request(**payload["query"])
        body, shape, dtype = payload["data"], payload["shape"], payload["dtype"]
        expected = math.prod(shape) * np.dtype(dtype).itemsize
        if len(body) != expected:
            raise ValueError(
                f"body is {len(body)} bytes but shape={','.join(map(str, shape))} "
                f"dtype={dtype} needs {expected}"
            )
        data = np.frombuffer(body, dtype=dtype).reshape(shape)
        result = api.compress(data, request)
        blob_bytes = result.to_bytes()
        return {
            "payload": blob_bytes,
            "codec": api.codec_name(result.blob.codec),
            "eb_abs": float(result.blob.error_bound),
            "raw_nbytes": len(payload["data"]),
        }
    if kind == "decompress":
        data = api.decompress(payload["data"])
        return {"payload": data.tobytes(), "shape": tuple(data.shape), "dtype": data.dtype.name}
    if kind == "read":
        from ..service import ArchiveStore

        path, fld, tile = payload["path"], payload["field"], payload.get("tile")
        key = (path, fld, tile)
        cached = cache.get(key)
        source = "worker-cache"
        if cached is None:
            with ArchiveStore(path, mode="r") as archive:
                if tile is None:
                    cached = (None, archive.get(fld))
                else:
                    cached = archive.get_tile(fld, tile)
            cache.put(key, cached, nbytes=cached[1].nbytes)
            source = "store"
        origin, data = cached
        return {
            "payload": data.tobytes(),
            "shape": tuple(data.shape),
            "dtype": data.dtype.name,
            "origin": tuple(origin) if origin is not None else None,
            "source": source,
        }
    if kind == "codecs":
        return {"codecs": api.registry.table()}
    raise ValueError(f"unknown pool task kind {kind!r}")


def _exit_with_parent() -> None:
    """Block until this process's parent exits, then end this process.

    A frontend killed by a signal never sends its workers the sentinel;
    without this they would live on as orphans.  The wait runs in its own
    thread, so the task loop's blocking dequeue costs nothing extra.
    """
    parent = multiprocessing.parent_process()
    if parent is not None:
        wait([parent.sentinel])
        os._exit(0)


def _worker_main(worker_id: int, task_q, result_conn, cache_bytes: int) -> None:
    """One worker process: blocking task loop until the ``None`` sentinel.

    Top-level (not a closure) so the ``spawn`` start method can import it;
    SIGINT/SIGTERM are ignored because shutdown belongs to the frontend's
    drain sequence, not to whoever signalled the process group.  A watcher
    thread ends the process when its parent, the frontend, exits.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # Importing repro.faults arms any REPRO_FAULTS plan the spawning frontend
    # exported, with this process's own hit counters.
    from .. import api, faults  # noqa: F401  (api: the whole codec engine)
    from ..core.cache import ByteBudgetLRU

    cache = ByteBudgetLRU(cache_bytes)
    # Ready handshake: the engine import above takes most of a boot; tell the
    # frontend before blocking on the queue so start() can wait for a pool
    # that actually dequeues promptly (deadlined tasks submitted while a
    # worker is still importing would all expire at the dequeue pre-check).
    result_conn.send((0, "ready", worker_id))
    threading.Thread(target=_exit_with_parent, name="parent-watch", daemon=True).start()
    while True:
        item = task_q.get()
        if item is None:
            break
        result_conn.send(_execute(item, cache, worker_id))


def _execute(item: tuple, cache, worker_id: int | None = None) -> tuple:
    """Run one dequeued task; returns the ``(task_id, status, value)``
    result message both tiers feed to :meth:`WorkerPool._handle_result`.

    A task whose deadline passed while it was queued is skipped
    (``expired``).  Failures map to ``error`` with ``(http_status, message,
    kind)`` from :func:`_task_failure_for`.  ``worker_id`` is set only in
    worker processes: the ``pool.worker-task`` chaos hook fires there and
    never in the frontend, so a SIGKILL plan cannot take the server down.
    """
    task_id, kind, deadline_ts, payload = item
    if deadline_ts is not None and time.time() > deadline_ts:
        return task_id, "expired", None
    try:
        if worker_id is not None:
            from ..faults import fire

            # Chaos hook ("pool.worker-task"): SIGKILL at task K, injected
            # error, or stall — after the dequeue pre-check, so the fault
            # lands on *started* work.
            fire("pool.worker-task", worker=worker_id, kind=kind)
        return task_id, "ok", _run_task(kind, payload, cache)
    except Exception as exc:  # noqa: BLE001 — per-task isolation boundary
        status, failure_kind = _task_failure_for(exc)
        return task_id, "error", (status, f"{exc}", failure_kind)


# ----------------------------------------------------------------- dispatcher


class _Pending:
    """Book-keeping for one in-flight task."""

    __slots__ = ("future", "loop", "worker", "t0", "abandoned")

    def __init__(self, future, loop, worker: int, t0: float):
        self.future = future
        self.loop = loop
        self.worker = worker
        self.t0 = t0
        self.abandoned = False


def _resolve(future: asyncio.Future, exc: Exception | None, value) -> None:
    """Resolve a future from the loop thread, tolerating earlier timeouts."""
    if future.done():  # deadline already fired wait_for's cancellation
        return
    if exc is not None:
        future.set_exception(exc)
    else:
        future.set_result(value)


class WorkerPool:
    """Dispatcher over ``workers`` processes (the ``--workers-procs`` tier).

    Construct, then :meth:`start` (blocking — spawn it off the event loop
    with ``asyncio.to_thread``); :meth:`submit` returns an asyncio future
    and must be called from the loop thread.  ``cache_bytes`` is the *total*
    read-cache budget, split evenly across the worker shards.
    """

    def __init__(
        self,
        workers: int,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        cache_bytes: int = 0,
        start_method: str = "spawn",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = int(workers)
        self.queue_depth = int(queue_depth)
        self.cache_bytes = int(cache_bytes)
        self._ctx = multiprocessing.get_context(start_method)
        self._ring = HashRing(self.workers)
        #: one task queue per worker, made by start()
        self._task_queues: list = []
        #: the read end of each worker's result pipe (None once it hit EOF)
        self._result_conns: list = [None] * self.workers
        self._procs: list = [None] * self.workers
        self._pending: dict[int, _Pending] = {}
        self._ids = itertools.count(1)
        self._rr = itertools.count()
        self._lock = threading.Lock()
        self._dispatcher: threading.Thread | None = None
        self._closed = False
        # Counters surfaced in GET /stats.
        self._dispatched = 0
        self._completed = 0
        self._errors = 0
        self._expired = 0
        self._rejected = 0
        self._late = 0
        self._worker_restarts = 0
        self._cache_hits = 0
        self._depth_high_water = 0
        self._ewma_wall_s = 0.0
        self._per_worker = [0] * self.workers

    # -------------------------------------------------------------- lifecycle
    def spawn(self) -> None:
        """Start the worker processes without waiting for them.

        ``repro serve`` calls this before its frontend imports the HTTP
        stack, so the workers boot while it does.  Idempotent; :meth:`start`
        calls it too.
        """
        if self._task_queues:
            return
        self._task_queues = [self._ctx.Queue() for _ in range(self.workers)]
        for wid in range(self.workers):
            self._spawn_worker(wid)

    def start(self) -> None:
        """Spawn the workers (unless :meth:`spawn` has), wait for their ready
        handshake, start dispatch.

        Blocking (the server calls it via ``asyncio.to_thread``).  Waiting
        for the handshake means a freshly started pool dequeues within
        milliseconds — without it, every deadlined task submitted during the
        workers' engine import would expire before starting.
        """
        self.spawn()
        self._await_ready()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-pool-dispatch", daemon=True
        )
        self._dispatcher.start()

    def _await_ready(self, timeout_s: float = 60.0) -> None:
        """Consume one ``ready`` message per worker (respawning boot deaths).

        Gives up at ``timeout_s`` instead of raising — a pool that boots
        slowly is degraded (early deadlined tasks expire in queue), not
        broken.
        """
        deadline = time.monotonic() + timeout_s
        booting = set(range(self.workers))
        while booting and time.monotonic() < deadline:
            for wid in booting & self._poll_results():
                booting.discard(wid)
            for wid in booting:
                if self._result_conns[wid] is None:  # died while booting
                    self._spawn_worker(wid)

    def _spawn_worker(self, wid: int) -> None:
        """Start worker ``wid`` on its task queue, with a new result pipe."""
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, self._task_queues[wid], writer, self.cache_bytes // self.workers),
            name=f"repro-worker-{wid}",
            daemon=True,
        )
        proc.start()
        writer.close()  # the worker holds the write end: its exit is our EOF
        self._result_conns[wid] = reader
        self._procs[wid] = proc

    def _poll_results(self, timeout_s: float = 0.5) -> set[int]:
        """Wait up to ``timeout_s`` for results, handle every message that
        arrived, and return the ids of the workers that sent one.

        A pipe at EOF (its worker exited) is dropped from the wait set;
        :meth:`_reap_dead_workers` fails its tasks and respawns it.
        """
        live = {conn: wid for wid, conn in enumerate(self._result_conns) if conn is not None}
        senders = set()
        for conn in wait(list(live), timeout=timeout_s):
            wid = live[conn]
            if self._drain(wid):
                senders.add(wid)
        return senders

    def _drain(self, wid: int) -> bool:
        """Handle every message waiting on worker ``wid``'s pipe; returns
        whether there was one.  Closes and drops the pipe at EOF."""
        conn = self._result_conns[wid]
        got = False
        try:
            while conn.poll():
                self._handle_result(*conn.recv())
                got = True
        except (EOFError, OSError):
            conn.close()
            self._result_conns[wid] = None
        return got

    def close(self, join_s: float = 5.0) -> None:
        """Stop admissions, fail whatever is still pending, stop the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = list(self._pending.items())
            self._pending.clear()
        for _, entry in leftovers:
            entry.loop.call_soon_threadsafe(
                _resolve, entry.future, PoolTaskError(503, "server shutting down"), None
            )
        for q in self._task_queues:
            try:
                q.put(None)
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + join_s
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=join_s)

    # ----------------------------------------------------------------- submit
    @property
    def pending(self) -> int:
        """Tasks in flight (queued + executing) across the pool."""
        with self._lock:
            return len(self._pending)

    def retry_after_s(self) -> int:
        """Backlog-drain estimate: pending × EWMA wall ÷ workers, in [1, 60]."""
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> int:
        wall = self._ewma_wall_s or 0.5
        estimate = len(self._pending) * wall / self.workers
        return max(1, min(60, int(estimate + 0.999)))

    def submit(self, kind: str, payload: dict, key: str | None = None,
               deadline_ts: float | None = None) -> asyncio.Future:
        """Queue one task; resolves to the worker's result dict.

        ``key`` pins the task to its consistent-hash shard (archive reads);
        without it the least-loaded worker wins.  Raises
        :class:`PoolSaturated` when ``queue_depth`` tasks are already in
        flight — admission control happens *here*, before any bytes hit a
        queue.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        with self._lock:
            if self._closed:
                raise PoolTaskError(503, "server shutting down")
            depth = len(self._pending)
            if depth >= self.queue_depth:
                self._rejected += 1
                raise PoolSaturated(self._retry_after_locked(), depth)
            task_id = next(self._ids)
            wid = self._route_locked(key)
            self._pending[task_id] = _Pending(future, loop, wid, time.perf_counter())
            self._dispatched += 1
            self._per_worker[wid] += 1
            self._depth_high_water = max(self._depth_high_water, depth + 1)
            # Under the lock, so a respawn's queue swap cannot fall between
            # routing and the put (put only appends to the feeder's buffer).
            self._enqueue(wid, (task_id, kind, deadline_ts, payload))
        return future

    def _enqueue(self, wid: int, item: tuple) -> None:
        """Hand ``item`` to worker ``wid`` (called under the lock)."""
        self._task_queues[wid].put(item)

    def abandon(self, future: asyncio.Future) -> None:
        """Mark ``future``'s task as given-up-on (its deadline fired in the
        frontend).  The task stays pending — the worker may already be
        computing it and drain still waits for it — but its eventual result
        is only counted (``expired`` or ``late_results``), never delivered.
        """
        with self._lock:
            for entry in self._pending.values():
                if entry.future is future:
                    entry.abandoned = True
                    return

    def _route_locked(self, key: str | None) -> int:
        if key is not None:
            return self._ring.node(key)
        inflight = [0] * self.workers
        for entry in self._pending.values():
            inflight[entry.worker] += 1
        # Least in flight; ties go to the first in rotation order (min keeps
        # the first of equal keys), so an idle pool takes turns.
        start = next(self._rr) % self.workers
        order = [(start + i) % self.workers for i in range(self.workers)]
        return min(order, key=inflight.__getitem__)

    # --------------------------------------------------------------- dispatch
    def _dispatch_loop(self) -> None:
        while True:
            if not self._poll_results() or None in self._result_conns:
                self._reap_dead_workers()
            if self._closed and not self._pending:
                return

    def _handle_result(self, task_id: int, status: str, value) -> None:
        if status == "ready":  # a respawned worker's handshake; not a task
            return
        with self._lock:
            entry = self._pending.pop(task_id, None)
            if entry is None:
                self._late += 1
                return
            if entry.abandoned:
                # The frontend gave up on this task (deadline) before the
                # worker reported back.  An "expired" status means the worker
                # skipped it at dequeue; anything else is work nobody wanted.
                if status == "expired":
                    self._expired += 1
                else:
                    self._late += 1
                return
            wall = time.perf_counter() - entry.t0
            if status == "ok":
                self._completed += 1
                self._ewma_wall_s = (
                    wall if not self._ewma_wall_s
                    else (1 - _EWMA_ALPHA) * self._ewma_wall_s + _EWMA_ALPHA * wall
                )
                if isinstance(value, dict) and value.get("source") == "worker-cache":
                    self._cache_hits += 1
            elif status == "expired":
                self._expired += 1
            else:
                self._errors += 1
        if status == "ok":
            entry.loop.call_soon_threadsafe(_resolve, entry.future, None, value)
        elif status == "expired":
            entry.loop.call_soon_threadsafe(
                _resolve, entry.future, DeadlineExceeded("deadline expired in queue"), None
            )
        else:
            http_status, message, failure_kind = value
            entry.loop.call_soon_threadsafe(
                _resolve, entry.future, PoolTaskError(http_status, message, failure_kind), None
            )

    def _reap_dead_workers(self) -> None:
        """Fail tasks stranded on dead workers, then respawn the workers."""
        for wid, proc in enumerate(self._procs):
            if proc is None or proc.is_alive() or self._closed:
                continue
            if self._result_conns[wid] is not None:
                self._drain(wid)  # results it sent before it died still count
            # The respawn gets a new task queue: the kill may have landed
            # while the worker held the old one's reader lock.  Every task
            # routed to the old queue is stranded here, in the same critical
            # section as the swap, so none is left unanswered in it.
            fresh_q = self._ctx.Queue()
            with self._lock:
                stranded = [
                    (tid, entry) for tid, entry in self._pending.items() if entry.worker == wid
                ]
                for tid, _ in stranded:
                    del self._pending[tid]
                self._errors += len(stranded)
                self._worker_restarts += 1
                old_q, self._task_queues[wid] = self._task_queues[wid], fresh_q
            old_q.cancel_join_thread()  # nobody will read what it buffered
            old_q.close()
            # Stranded tasks are idempotent (compress/decompress/read), so the
            # death maps to a retryable 503, not a 500 — a retrying client
            # lands on the respawned (or a surviving) worker.
            for _, entry in stranded:
                entry.loop.call_soon_threadsafe(
                    _resolve,
                    entry.future,
                    PoolTaskError(
                        503,
                        f"worker {wid} died (exit {proc.exitcode}); respawned — retry the request",
                        "worker-death",
                    ),
                    None,
                )
            self._spawn_worker(wid)

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Counter snapshot (the ``pool`` block of ``GET /stats``)."""
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "pending": len(self._pending),
                "depth_high_water": self._depth_high_water,
                "dispatched": self._dispatched,
                "completed": self._completed,
                "errors": self._errors,
                "expired": self._expired,
                "rejected": self._rejected,
                "late_results": self._late,
                "worker_restarts": self._worker_restarts,
                "read_cache_hits": self._cache_hits,
                "ewma_wall_s": round(self._ewma_wall_s, 6),
                "per_worker_dispatched": list(self._per_worker),
                "pids": [p.pid if p is not None else None for p in self._procs],
            }


class InlinePool(WorkerPool):
    """The single-process tier: :class:`WorkerPool`'s task protocol run on
    one executor thread inside the frontend process.

    Admission, deadlines, :meth:`abandon`, result accounting and
    :meth:`stats` are the pool's own; only :meth:`_enqueue` differs.  It
    spawns no process and no dispatcher thread, and its read cache gets the
    whole ``cache_bytes``.  One thread, like one worker process: tasks run
    one at a time in arrival order, so a queued task's deadline is checked
    when it would start (see docs/PERFORMANCE.md for the throughput).
    """

    def __init__(self, queue_depth: int = DEFAULT_QUEUE_DEPTH, cache_bytes: int = 0):
        # The tasks run in this process: load the engine a worker imports
        # before its handshake, and the archive layer reads use, up front.
        from .. import api, service  # noqa: F401
        from ..core.cache import ByteBudgetLRU

        super().__init__(1, queue_depth=queue_depth, cache_bytes=cache_bytes)
        self._cache = ByteBudgetLRU(self.cache_bytes)
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-inline")

    def start(self) -> None:
        """Nothing to spawn: the executor thread starts with the first task."""

    spawn = start

    def _enqueue(self, wid: int, item: tuple) -> None:
        self._executor.submit(self._run, item)

    def _run(self, item: tuple) -> None:
        self._handle_result(*_execute(item, self._cache))

    def close(self, join_s: float = 5.0) -> None:
        super().close(join_s)
        # Queued tasks were already failed with a 503 by close(); drop them.
        self._executor.shutdown(wait=False, cancel_futures=True)


def build_pool(
    worker_procs: int,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
) -> WorkerPool:
    """The task pool for ``worker_procs`` processes, not yet spawned.

    ``1`` runs the tasks on one frontend thread (:class:`InlinePool`, which
    imports the engine), more send them to a :class:`WorkerPool`, and ``0``
    means one worker per usable CPU.
    """
    procs = resolve_workers(worker_procs) if worker_procs == 0 else int(worker_procs)
    if procs < 1:
        raise ValueError(f"worker_procs must be >= 0 (0 = CPU count), got {worker_procs}")
    if procs == 1:
        return InlinePool(queue_depth=queue_depth, cache_bytes=cache_bytes)
    return WorkerPool(procs, queue_depth=queue_depth, cache_bytes=cache_bytes)

"""Seed-deterministic fault injection: torn writes, bit rot, killed workers.

The stack *detects* storage and process failures (per-segment CRCs, the
archive's footer-flip commit protocol, worker reaping, 429/503 guardrails);
this module makes those failures *reproducible* so the chaos suite can drive
every class through the full pipeline and pin the invariant: recover
byte-identically or fail with a typed, entity-named error — never silently
corrupt.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rows, each naming an
**injection point** (a string like ``"archive.frame-write"``), a fault
``kind``, and *when* to fire (the ``at``-th hit of that point, for ``count``
hits).  Plans are armed either in-process via the :class:`ReproFaults`
context manager or across process boundaries via the ``REPRO_FAULTS``
environment variable (JSON; spawned worker processes arm themselves at
import time), and every stochastic choice — which bit to flip, where to tear
a write — derives from ``(plan seed, point, hit index)``, so a failing chaos
run replays exactly from its seed.

Injection points threaded through the stack:

========================== ==================================================
point                      where / what it can do
========================== ==================================================
``container.serialize``    ``CompressedBlob.to_bytes`` output (bit rot)
``archive.frame-write``    frame payload hitting the ``.rpza`` file
                           (torn write, bit flip, lost flush)
``archive.index-write``    index JSON block write (torn write)
``archive.footer-write``   the fixed-position footer-slot flip (torn write
                           at any byte boundary of the slot)
``archive.read``           entry payload coming back off disk
                           (short read, bit flip)
``pool.worker-task``       worker process, before executing a task
                           (SIGKILL, injected error)
``eval.cell``              evaluation runner, before executing a cell
``client.request``         :mod:`repro.client`, before each HTTP attempt
                           (connection reset, stall)
``cluster.lease-grant``    cluster coordinator, inside ``POST /lease``
                           (injected error -> retryable 503 to the worker)
``cluster.ack``            cluster coordinator, inside ``POST /ack``
                           (injected error -> retryable 503; the lease
                           expires and the field is resumed, not redone)
``cluster.shard-append``   cluster worker, before appending a compressed
                           field to its shard (SIGKILL = the lost-worker
                           scenario; error = failed append, acked failed)
========================== ==================================================

Every hook is a zero-overhead no-op while no plan is armed: one module
attribute check, no allocation, no RNG.

>>> plan = FaultPlan([FaultSpec("archive.read", "bit-flip", at=2)], seed=7)
>>> plan2 = FaultPlan.from_json(plan.to_json())
>>> plan2.specs == plan.specs and plan2.seed == 7
True
>>> mangle("archive.read", b"data") == b"data"   # disarmed: pass-through
True
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from dataclasses import asdict, dataclass

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "ReproFaults",
    "active_plan",
    "arm",
    "disarm",
    "fire",
    "hits",
    "mangle",
    "write",
]

#: environment variable carrying a JSON-serialized plan across process spawns
ENV_VAR = "REPRO_FAULTS"

#: every fault kind a spec may name (validated at construction, not at fire
#: time, so a typo'd chaos plan fails loudly before the run starts)
FAULT_KINDS = (
    "torn-write",  # write a prefix of the payload, then raise (simulated crash)
    "bit-flip",  # flip one bit of the payload (bit rot)
    "short-read",  # drop the payload's tail (truncated read)
    "lost-flush",  # report success but never write (fsync-lost tail)
    "kill",  # SIGKILL the current process (worker death)
    "error",  # raise FaultInjected at the hook (isolated task failure)
    "conn-reset",  # raise ConnectionResetError (socket reset)
    "stall",  # sleep for ``arg`` seconds (network stall / slow peer)
)

_CONTROL_KINDS = ("kill", "error", "conn-reset", "stall")
_DATA_KINDS = ("bit-flip", "short-read")
_WRITE_KINDS = ("torn-write", "bit-flip", "lost-flush")


class FaultInjected(RuntimeError):
    """A deliberately injected fault fired.

    Carries the injection ``point`` and the deterministic ``detail`` of what
    was done, so chaos assertions can name the exact fault they observed.
    """

    def __init__(self, point: str, detail: str):
        super().__init__(f"injected fault at {point}: {detail}")
        self.point = point
        self.detail = detail


@dataclass(frozen=True)
class FaultSpec:
    """One injection: fire ``kind`` at the ``at``-th hit of ``point``.

    ``at`` is 1-based and counted per process (each process keeps its own
    hit counters); ``count`` consecutive hits fire, so ``at=3, count=2``
    fires on hits 3 and 4.  ``byte`` pins the tear/flip position; ``None``
    derives it from the plan seed.  ``arg`` parameterizes ``stall``
    (seconds).
    """

    point: str
    kind: str
    at: int = 1
    count: int = 1
    byte: int | None = None
    arg: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})")
        if not self.point:
            raise ValueError("fault spec needs a non-empty injection point")
        if self.at < 1 or self.count < 1:
            raise ValueError(f"fault spec {self.point!r}: at/count must be >= 1")

    def matches(self, hit: int) -> bool:
        return self.at <= hit < self.at + self.count


class FaultPlan:
    """An ordered set of :class:`FaultSpec` rows plus the determinism seed."""

    def __init__(self, specs, seed: int = 0):
        self.specs = [s if isinstance(s, FaultSpec) else FaultSpec(**s) for s in specs]
        self.seed = int(seed)

    def to_json(self) -> dict:
        return {"seed": self.seed, "specs": [asdict(s) for s in self.specs]}

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict) or "specs" not in doc:
            raise ValueError("fault plan document needs a 'specs' list")
        return cls(doc["specs"], seed=doc.get("seed", 0))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, raw: str, source: str = ENV_VAR) -> "FaultPlan":
        """Parse a JSON plan; ``source`` (the variable or file it came
        from) is named when the plan is malformed."""
        try:
            return cls.from_json(json.loads(raw))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed {source} fault plan: {exc}") from None

    def rng(self, spec: FaultSpec, hit: int) -> random.Random:
        """The deterministic RNG for one firing: seeded by plan seed, point,
        kind and hit index — independent of call order elsewhere."""
        return random.Random(f"{self.seed}:{spec.point}:{spec.kind}:{hit}")


# ------------------------------------------------------------------ arming

_plan: FaultPlan | None = None
_hits: dict[str, int] = {}


def active_plan() -> FaultPlan | None:
    """The armed plan, or ``None`` (the common, zero-overhead case)."""
    return _plan


def hits(point: str) -> int:
    """How many times ``point`` has been hit in this process (armed only)."""
    return _hits.get(point, 0)


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process, resetting hit counters."""
    global _plan
    _plan = plan
    _hits.clear()


def disarm() -> None:
    global _plan
    _plan = None
    _hits.clear()


class ReproFaults:
    """Context manager arming a plan in-process *and* in ``REPRO_FAULTS``
    (so processes spawned inside the context — pool workers, ``repro
    serve`` children — arm themselves at import).

    >>> with ReproFaults([FaultSpec("eval.cell", "error")]):
    ...     try:
    ...         fire("eval.cell")
    ...     except FaultInjected as exc:
    ...         print(exc.point)
    eval.cell
    >>> fire("eval.cell")   # disarmed again on exit: no-op
    """

    def __init__(self, plan, seed: int = 0, env: bool = True):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan, seed=seed)
        self.plan = plan
        self.env = env
        self._saved_env: str | None = None

    def __enter__(self) -> FaultPlan:
        arm(self.plan)
        if self.env:
            self._saved_env = os.environ.get(ENV_VAR)
            os.environ[ENV_VAR] = self.plan.dumps()
        return self.plan

    def __exit__(self, *exc) -> None:
        disarm()
        if self.env:
            if self._saved_env is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = self._saved_env


def _match(point: str, kinds: tuple[str, ...]) -> tuple[FaultSpec, int] | None:
    """Count a hit on ``point`` and return the first matching armed spec."""
    hit = _hits.get(point, 0) + 1
    _hits[point] = hit
    assert _plan is not None
    for spec in _plan.specs:
        if spec.point == point and spec.kind in kinds and spec.matches(hit):
            return spec, hit
    return None


def _flip(plan: FaultPlan, spec: FaultSpec, hit: int, data: bytes) -> bytes:
    if not len(data):
        return data
    if spec.byte is not None:
        pos = min(spec.byte, len(data) - 1)
    else:
        pos = plan.rng(spec, hit).randrange(len(data))
    bit = plan.rng(spec, hit).randrange(8)
    out = bytearray(data)
    out[pos] ^= 1 << bit
    return bytes(out)


def _cut(plan: FaultPlan, spec: FaultSpec, hit: int, data: bytes) -> bytes:
    if spec.byte is not None:
        return data[: min(spec.byte, len(data))]
    if len(data) <= 1:
        return b""
    return data[: plan.rng(spec, hit).randrange(len(data))]


# ------------------------------------------------------------------- hooks


def fire(point: str, **ctx) -> None:
    """Control-flow hook: kill / raise / reset / stall when a spec matches.

    Call sites sprinkle this before the work a fault should interrupt; with
    no plan armed it is a single attribute check.
    """
    if _plan is None:
        return
    found = _match(point, _CONTROL_KINDS)
    if found is None:
        return
    spec, _hit = found
    detail = f"{spec.kind} on hit {_hits[point]}" + (f" ({ctx})" if ctx else "")
    if spec.kind == "stall":
        time.sleep(spec.arg)
        return
    if spec.kind == "conn-reset":
        raise ConnectionResetError(f"injected fault at {point}: connection reset by plan")
    if spec.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise FaultInjected(point, detail)


def mangle(point: str, data):
    """Data hook for *read* paths: bit-flip or truncate ``data`` in flight.

    Returns ``data`` unchanged (same object, no copy) while disarmed or when
    no spec matches — safe on hot paths.
    """
    if _plan is None:
        return data
    found = _match(point, _DATA_KINDS)
    if found is None:
        return data
    spec, hit = found
    if spec.kind == "bit-flip":
        return _flip(_plan, spec, hit, bytes(data))
    return _cut(_plan, spec, hit, bytes(data))


def write(point: str, fh, data) -> None:
    """Write hook for durable paths: ``fh.write(data)`` with optional faults.

    ``torn-write`` writes a prefix, flushes what the "crashing" process
    would have handed the OS, then raises :class:`FaultInjected` (callers
    treat it as a crash at that byte boundary); ``bit-flip`` writes rotted
    bytes; ``lost-flush`` writes nothing while reporting success.
    """
    if _plan is None:
        fh.write(data)
        return
    found = _match(point, _WRITE_KINDS)
    if found is None:
        fh.write(data)
        return
    spec, hit = found
    if spec.kind == "bit-flip":
        fh.write(_flip(_plan, spec, hit, bytes(data)))
        return
    if spec.kind == "lost-flush":
        return
    prefix = _cut(_plan, spec, hit, bytes(data))
    fh.write(prefix)
    fh.flush()
    raise FaultInjected(point, f"torn write after {len(prefix)}/{len(data)} bytes on hit {hit}")


# Arm from the environment at import: a spawned worker (or a `repro serve`
# child started inside a ReproFaults context) sees the plan the moment this
# module loads, with its own per-process hit counters.
_env_raw = os.environ.get(ENV_VAR)
if _env_raw:
    arm(FaultPlan.loads(_env_raw))
del _env_raw

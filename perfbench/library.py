"""Library workload: one in-process caller of ``repro.api``.

``small-fields`` is the fixed-cost-per-call regime (32³/64³ fields and
small 2-D slices, where autotune and Huffman decode dominate).  It runs a
closed loop with one caller: compress, serialize, decompress from bytes,
bound check.

Run as a script (``python3 library.py INPUTS.npz``, with ``repro`` on
``PYTHONPATH``) it times one cold warm-up pass in a fresh process and
prints its seconds; set-up repeats the cold pass this way.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from metrics import OpLog, within_bound

EB_CYCLE = (1e-2, 1e-3, 1e-4)
#: warm-up ops use a bound outside the cycle, so the tables they build are
#: never the ones a timed op looks up
WARMUP_EB = 3e-3

SMALL_CLASSES = (
    ("jhtdb", (32, 32, 32)),
    ("miranda", (32, 32, 32)),
    ("nyx", (32, 32, 32)),
    ("rtm", (32, 32, 32)),
    ("jhtdb", (64, 64, 64)),
    ("miranda", (64, 64, 64)),
    ("nyx", (64, 64, 64)),
    ("rtm", (64, 64, 64)),
    ("cesm-atm", (96, 192)),
)

#: the CPUs this process may run on, read before any pinning
CPUS = sorted(os.sched_getaffinity(0))


@contextmanager
def cpu_turns():
    """Yield ``turn()``, which pins this process to the next CPU in turn.

    On a shared VM the vCPUs change speed independently, for minutes at a
    time; a single caller the kernel leaves on one vCPU measures that
    vCPU's luck.  Called before every op, ``turn`` spreads the ops evenly
    over the CPUs.  Full affinity is restored on exit, so processes started
    later are not pinned."""
    k = itertools.count()
    try:
        yield lambda: os.sched_setaffinity(0, {CPUS[next(k) % len(CPUS)]})
    finally:
        os.sched_setaffinity(0, CPUS)


@dataclass
class LibraryOp:
    """One compress -> bytes -> decompress -> check round trip."""

    index: int
    field: np.ndarray
    mode: str
    eb: float


def round_trip(api, op: LibraryOp, recorder=None):
    """Run ``op`` through the public API: compress, serialize, decompress
    from the bytes.  Returns the two latencies, the bytes, the
    reconstruction and the absolute bound; spans go to ``recorder``."""
    request = api.build_request(mode=op.mode, eb=op.eb)
    if recorder is not None:
        recorder.labels[op.index] = "x".join(map(str, op.field.shape)) + " " + op.mode
    with recorder.span("op.round_trip", op=op.index) if recorder else nullcontext():
        t0 = time.perf_counter()
        result = api.compress(op.field, request)
        payload = result.blob.to_bytes()
        t1 = time.perf_counter()
        recon = api.decompress(payload)
        t2 = time.perf_counter()
    return t1 - t0, t2 - t1, payload, recon, result.error_bound


def warmup_pass(api, ops: list[LibraryOp]) -> float:
    """Seconds to run ``ops`` as round trips; a violated bound stops the run."""
    t0 = time.perf_counter()
    with cpu_turns() as turn:
        for op in ops:
            turn()
            _, _, _, recon, eb_abs = round_trip(api, op)
            if not within_bound(op.field, recon, eb_abs):
                raise RuntimeError(f"warm-up op on {op.field.shape}: bound violated")
    return time.perf_counter() - t0


def _rngs(workload: str, seed: int) -> tuple[random.Random, random.Random]:
    """The field realisations come from a fixed stream, so every seed
    compresses the same data and ``compression_ratio``, ``psnr_db`` and the
    per-layer counts repeat across seeds; the seed orders the ops."""
    return random.Random(f"{workload}:fields"), random.Random(f"{workload}:{seed}")


class SmallFields:
    """``small-fields``: inputs, set-up and the timed loop."""

    name = "small-fields"
    #: round trips per requested second, rounded to whole sets of every
    #: (class, mode, bound) combination: 1-2 seconds of work per second
    #: asked for on a 2-vCPU Xeon, depending on the host's speed
    OPS_PER_SECOND = 20

    #: cold warm-up passes whose median is ``setup_s``
    SETUP_PASSES = 3

    #: figures a workload measures from outside the spans (none here)
    layer: dict = {}

    def __init__(self, ctx):
        self.ctx = ctx
        #: ops in generation order (fixed), and the seed's run order
        self.ops: list[LibraryOp] = []
        self.order: list[LibraryOp] = []
        #: the ops of one warm-up pass (one per input shape, at WARMUP_EB)
        self.warmup: list[LibraryOp] = []

    def setup(self) -> list[float]:
        """Seconds of each cold warm-up pass: one op per input shape class,
        paying the registry's lazy imports, the shape-keyed interpolation
        plans and the first-use encoder tables.  The first pass runs here
        and warms this process for the timed ops; the others repeat it in
        fresh processes, so every pass starts with empty caches."""
        import repro.api as api

        times = [warmup_pass(api, self.warmup)]
        path = os.path.join(self.ctx.work, "warmup.npz")
        np.savez(path, modes=np.array([op.mode for op in self.warmup]),
                 ebs=np.array([op.eb for op in self.warmup]),
                 **{f"field{i}": op.field for i, op in enumerate(self.warmup)})
        env = dict(os.environ, PYTHONPATH=self.ctx.src)
        for _ in range(self.SETUP_PASSES - 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), path],
                                  capture_output=True, text=True, env=env, timeout=150)
            if proc.returncode != 0:
                raise RuntimeError(f"cold warm-up pass failed: {proc.stderr[-2000:]}")
            times.append(float(proc.stdout.split()[-1]))
        return times

    def run_pass(self, recorder=None) -> dict:
        import repro.api as api

        log = OpLog()
        t0 = time.perf_counter()
        with cpu_turns() as turn:
            for op in self.order:
                turn()
                t_comp, t_dec, payload, recon, eb_abs = round_trip(api, op, recorder)
                log.attempted += 1
                log.record("compress", t_comp, op.field.nbytes)
                log.record("decompress", t_dec, op.field.nbytes)
                log.ratio(op.field.nbytes, len(payload))
                log.digests.append(hashlib.sha256(payload).hexdigest())
                if not log.quality(op.field, recon, eb_abs):
                    log.fail(f"op {op.index} on {op.field.shape}: bound {eb_abs:g} violated")
        return {"log": log, "timed_s": time.perf_counter() - t0}

    def first_request(self):
        import repro.api as api

        op = self.ops[0]
        return op.field, api.build_request(mode=op.mode, eb=op.eb)

    def rearm(self) -> None:
        """Nothing outlives a pass here, so a second pass needs no reset."""

    def close(self) -> None:
        pass

    def make_inputs(self) -> None:
        from repro import datasets

        fields, order = _rngs(self.name, self.ctx.seed)
        # Every class meets every bound once per set, CR and TP alternating,
        # so both lossless pipelines (CR's Huffman one and TP's) are on the path.
        combos = [(c, ("cr", "tp")[(i + k) % 2], eb)
                  for i, c in enumerate(SMALL_CLASSES) for k, eb in enumerate(EB_CYCLE)]
        sets = max(1, round(self.ctx.seconds * self.OPS_PER_SECOND / len(combos)))
        for i, ((name, shape), mode, eb) in enumerate(combos * sets):
            field = datasets.load(name, shape=shape, seed=fields.randrange(1 << 30))
            self.ops.append(LibraryOp(i, field, mode, eb))
        self.order = order.sample(self.ops, len(self.ops))
        self.warmup = [
            LibraryOp(-1 - i, datasets.load(name, shape=shape, seed=fields.randrange(1 << 30)),
                      ("cr", "tp")[i % 2], WARMUP_EB)
            for i, (name, shape) in enumerate(SMALL_CLASSES)]


def _cold_pass(path: str) -> float:
    """One warm-up pass over the ops saved in ``path``, in this fresh process."""
    import repro.api as api

    with np.load(path) as saved:
        ops = [LibraryOp(-1 - i, saved[f"field{i}"], str(mode), float(eb))
               for i, (mode, eb) in enumerate(zip(saved["modes"], saved["ebs"]))]
    return warmup_pass(api, ops)


if __name__ == "__main__":
    print(f"{_cold_pass(sys.argv[1]):.9f}")

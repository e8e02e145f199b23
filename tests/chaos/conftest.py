"""Seeded chaos harness: fault plans, replay artifacts, live-server scenarios.

Every chaos test runs the production stack (real archives, real TCP, real
worker processes) under a seed-deterministic :class:`repro.faults.FaultPlan`
and asserts the robustness contract: *recover byte-identically or fail with
a typed error — never silently corrupt, never HTTP 500*.

Environment knobs (wired to the CI ``chaos-smoke`` job):

* ``REPRO_CHAOS_SEEDS`` — comma-separated seed matrix (default ``11,23``);
  every seeded test runs once per seed.
* ``REPRO_CHAOS_ARTIFACTS`` — directory; when a chaos test fails, the armed
  fault plan is dumped there as JSON so the exact failure replays with
  ``REPRO_FAULTS=$(cat <artifact>)``.
"""

from __future__ import annotations

import asyncio
import os
import re

import numpy as np
import pytest

from repro import compress
from repro.server import ReproServer


def chaos_seeds() -> list[int]:
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "11,23")
    return [int(s) for s in raw.split(",") if s.strip()]


@pytest.fixture(params=chaos_seeds(), ids=lambda s: f"seed{s}")
def chaos_seed(request) -> int:
    return request.param


@pytest.fixture()
def chaos_plan(request):
    """Call with the armed plan so a failure dumps it as a replay artifact."""

    def record(plan):
        request.node._chaos_plan = plan
        return plan

    return record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    plan = getattr(item, "_chaos_plan", None)
    artifact_dir = os.environ.get("REPRO_CHAOS_ARTIFACTS")
    if plan is None or not artifact_dir:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    fname = re.sub(r"[^\w.+-]+", "_", item.nodeid) + ".plan.json"
    with open(os.path.join(artifact_dir, fname), "w", encoding="utf-8") as fh:
        fh.write(plan.dumps())


_TINY_BLOBS: dict[int, object] = {}


@pytest.fixture(scope="session")
def tiny_blob():
    """Factory for real, deep-verifiable 8³ frames; ``tag`` makes payloads
    distinct.  Cached per tag so repeated seeds don't recompress."""

    def build(tag: int):
        if tag not in _TINY_BLOBS:
            data = np.linspace(tag, tag + 1, 8**3, dtype=np.float32).reshape(8, 8, 8)
            _TINY_BLOBS[tag] = compress(data, eb=1e-3)
        return _TINY_BLOBS[tag]

    return build


@pytest.fixture()
def field16() -> np.ndarray:
    return np.fromfunction(
        lambda i, j, k: np.sin(i / 5) * np.cos(j / 7) + k / 16, (16, 16, 16)
    ).astype(np.float32)


@pytest.fixture()
def serve(tmp_path):
    """Run ``scenario(server)`` against a live server rooted at ``tmp_path``."""

    def run_scenario(scenario, **server_kwargs):
        server_kwargs.setdefault("archive_root", str(tmp_path))
        server_kwargs.setdefault("port", 0)

        async def main():
            server = ReproServer(**server_kwargs)
            await server.start()
            try:
                return await scenario(server)
            finally:
                await server.stop()

        return asyncio.run(main())

    return run_scenario

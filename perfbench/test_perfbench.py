"""Tests of the benchmark itself (run with ``python -m pytest perfbench -q``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, REPORT_ONLY, OpLog, end_to_end, has_tail  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    args = ("--workload", "small-fields", "--seed", "3", "--seconds", "1")
    return {
        "plain": _run(*args, "--trace", "0"),
        "traced": [_run(*args, "--trace", "1") for _ in range(2)],
    }


def test_manifest_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["end_to_end"] == [m.manifest() for m in END_TO_END]
    assert doc["per_layer"] == [m.manifest() for m in PER_LAYER]
    assert doc["paths"] == ["perfbench"]


def test_printed_names_exist_in_manifest(runs):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    plain = _result(runs["plain"])
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == e2e
    traced = _result(runs["traced"][0])
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == layer
    # Report lines name catalogue metrics only (report-only ones included).
    known = set(e2e) | set(layer) | {m.name for m in REPORT_ONLY}
    for line in runs["plain"].stdout.splitlines()[:-1] + runs["traced"][0].stdout.splitlines()[:-1]:
        if line and not line.startswith(("#", "|")):
            assert line.split()[0] in known, line


def test_same_seed_same_inputs():
    import library

    class Ctx:
        seed, seconds = 5, 1

    a, b = library.SmallFields(Ctx()), library.SmallFields(Ctx())
    a.make_inputs()
    b.make_inputs()
    assert [op.index for op in a.order] == [op.index for op in b.order]
    for x, y in zip(a.ops, b.ops):
        assert (x.mode, x.eb) == (y.mode, y.eb)
        assert x.field.tobytes() == y.field.tobytes()


def test_same_seed_same_counts(runs):
    first, second = (_result(p)["metrics"] for p in runs["traced"])
    counted = [m.name for m in PER_LAYER if m.unit in ("count", "B", "B/pt", "ratio")]
    assert {k: first[k]["value"] for k in counted} == {k: second[k]["value"] for k in counted}
    plain = _result(runs["plain"])["metrics"]
    again = _result(_run("--workload", "small-fields", "--seed", "3", "--seconds", "1"))
    for name in ("compression_ratio", "psnr_db"):
        assert plain[name]["value"] == again["metrics"][name]["value"]


def test_layer_spans_cover_the_op_wall(runs):
    # Self times plus ``other`` add up to the op wall by construction; what
    # can fail is the layer spans leaving more than 5% of it untraced.
    metrics = _result(runs["traced"][0])["metrics"]
    assert 0.0 <= metrics["op.other_share"]["value"] < 0.05


def test_p90_needs_a_hundred_samples():
    assert not has_tail(99, 90)
    assert has_tail(100, 90)
    for n, expect in ((99, False), (100, True)):
        log = OpLog()
        for i in range(n):
            log.record("compress", 0.001 * (i + 1), 10)
        figures = end_to_end(log, timed_s=1.0, setup_s=1.0, peak_rss_mb=1.0)
        assert ("compress_ms_p90" in figures) is expect
        assert figures["compress_ms_p50"] == pytest.approx(0.001 * ((n + 1) // 2) * 1000)
        assert figures["compress_ms_mean"] == pytest.approx((n + 1) / 2)


def test_self_time_subtracts_children():
    rec = SpanRecorder()
    with rec.span("root", op=0):
        with rec.span("child"):
            pass
        with rec.span("child"):
            with rec.span("grandchild"):
                pass
    selfs = rec.self_times()
    root = rec.spans[0]
    assert sum(selfs.values()) == pytest.approx(root.duration, rel=1e-9, abs=1e-12)
    assert all(s.op == 0 for s in rec.spans)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-fields", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

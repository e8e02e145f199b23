"""BatchRunner: scheduling, failure isolation, resume, report schema."""

import json

import numpy as np
import pytest

from repro.datasets import load, write_raw
from repro.gpu.costmodel import lpt_order
from repro.service import (
    REPORT_SCHEMA,
    ArchiveStore,
    BatchRunner,
    FieldSpec,
    JobSpec,
    parse_manifest,
)


def _spec(fields, tmp_path, **job):
    doc = {"job": {"name": "t", **job}, "fields": fields}
    return parse_manifest(doc, base_dir=str(tmp_path))


@pytest.fixture()
def corpus(tmp_path):
    return _spec(
        [
            {"name": "a", "dataset": "nyx", "shape": [20, 20, 20]},
            {"name": "b", "dataset": "miranda", "shape": [16, 24, 24], "tiles": [8, 12, 12]},
            {"name": "c", "dataset": "cesm-atm", "shape": [32, 48], "eb": 1e-4},
        ],
        tmp_path,
    )


class TestRun:
    def test_run_archives_all_fields(self, corpus, tmp_path):
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="a") as arch:
            report = BatchRunner(corpus, arch).run()
            assert report.ok and report.counts == {"ok": 3, "skipped": 0, "failed": 0}
            for fspec in corpus.fields:
                data = load(fspec.dataset, shape=fspec.shape)
                entry = arch.entry(fspec.name)
                recon = arch.get(fspec.name)
                assert np.abs(data.astype(np.float64) - recon).max() <= entry.eb_abs

    def test_per_field_eb_override(self, corpus, tmp_path):
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="a") as arch:
            BatchRunner(corpus, arch).run()
            # c used eb=1e-4 (10x tighter than the job default)
            data = load("cesm-atm", shape=(32, 48))
            rng = float(data.max() - data.min())
            assert arch.entry("c").eb_abs == pytest.approx(1e-4 * rng)

    def test_codec_override(self, tmp_path):
        spec = _spec([{"name": "x", "dataset": "nyx", "shape": [16, 16, 16], "codec": "cusz-l"}],
                     tmp_path)
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="a") as arch:
            report = BatchRunner(spec, arch).run()
            assert report.ok
            assert arch.entry("x").codec == "cusz-l"

    def test_failure_isolation(self, tmp_path):
        spec = _spec(
            [
                {"name": "good", "dataset": "nyx", "shape": [16, 16, 16]},
                {"name": "gone", "path": "missing.f32"},
            ],
            tmp_path,
        )
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="a") as arch:
            report = BatchRunner(spec, arch).run()
            assert not report.ok
            by_name = {r.name: r for r in report.fields}
            assert by_name["good"].status == "ok"
            assert by_name["gone"].status == "failed"
            assert "FileNotFoundError" in by_name["gone"].error
            assert arch.names() == ["good"]

    def test_raw_path_field(self, tmp_path):
        data = load("miranda", shape=(12, 16, 16))
        write_raw(str(tmp_path / "rho_12_16_16.f32"), data)
        spec = _spec([{"name": "rho", "path": "rho_12_16_16.f32"}], tmp_path)
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="a") as arch:
            report = BatchRunner(spec, arch).run()
            assert report.ok
            recon = arch.get("rho")
            assert np.abs(data.astype(np.float64) - recon).max() <= arch.entry("rho").eb_abs

    def test_stream_field(self, tmp_path):
        spec = _spec(
            [{"name": "ens", "dataset": "rtm", "shape": [12, 12, 12],
              "timesteps": 3, "temporal": True}],
            tmp_path,
        )
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="a") as arch:
            report = BatchRunner(spec, arch).run()
            assert report.ok
            entry = arch.entry("ens")
            assert entry.kind == "stream" and entry.timesteps == 3
            stack = arch.get("ens")
            assert stack.shape == (3, 12, 12, 12)
            for t in range(3):
                orig = load("rtm", shape=(12, 12, 12), seed=t)
                assert np.abs(orig.astype(np.float64) - stack[t]).max() <= entry.eb_abs


class TestResume:
    def test_rerun_skips_completed(self, corpus, tmp_path):
        path = str(tmp_path / "a.rpza")
        with ArchiveStore(path, mode="a") as arch:
            first = BatchRunner(corpus, arch).run()
        with ArchiveStore(path, mode="a") as arch:
            second = BatchRunner(corpus, arch).run()
        assert first.counts["ok"] == 3
        assert second.counts == {"ok": 0, "skipped": 3, "failed": 0}
        assert second.wall_s < first.wall_s

    def test_no_resume_recompresses_and_replaces(self, corpus, tmp_path):
        path = str(tmp_path / "a.rpza")
        with ArchiveStore(path, mode="a") as arch:
            BatchRunner(corpus, arch).run()
        with ArchiveStore(path, mode="a") as arch:
            report = BatchRunner(corpus, arch, resume=False).run()
            assert report.counts == {"ok": 3, "skipped": 0, "failed": 0}
            assert len(arch) == 3  # replaced, not duplicated
            assert arch.verify(deep=True) == []


class TestSchedulingAndReport:
    def test_lpt_order_properties(self):
        order, makespan = lpt_order([1.0, 5.0, 3.0, 2.0], workers=2)
        assert order == [1, 2, 3, 0]  # largest first
        assert makespan == pytest.approx(6.0)  # {5,1} vs {3,2}
        assert lpt_order([], 4) == ([], 0.0)
        # one worker: makespan is the serial sum
        assert lpt_order([2.0, 2.0], 1)[1] == pytest.approx(4.0)

    def test_executors_agree(self, corpus, tmp_path):
        results = {}
        for executor in ("serial", "threads"):
            path = str(tmp_path / f"{executor}.rpza")
            with ArchiveStore(path, mode="a") as arch:
                report = BatchRunner(corpus, arch, executor=executor, workers=2).run()
                assert report.ok
                results[executor] = {n: arch.entry(n).nbytes for n in arch.names()}
        assert results["serial"] == results["threads"]

    def test_report_json_schema(self, corpus, tmp_path):
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="a") as arch:
            report = BatchRunner(corpus, arch).run()
        out = tmp_path / "report.json"
        report.write(str(out))
        doc = json.loads(out.read_text())
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["totals"]["fields"] == 3 and doc["totals"]["ok"] == 3
        assert doc["scheduler"]["policy"] == "lpt"
        assert doc["scheduler"]["modeled_makespan_elements"] > 0
        row = doc["fields"][0]
        for key in ("name", "status", "codec", "cr", "bitrate", "psnr", "max_err", "wall_s"):
            assert key in row
        # rows come back in manifest order regardless of LPT submission order
        assert [r["name"] for r in doc["fields"]] == ["a", "b", "c"]

    def test_runner_accepts_path(self, corpus, tmp_path):
        runner = BatchRunner(corpus, str(tmp_path / "a.rpza"))
        report = runner.run()
        runner.archive.close()
        assert report.ok

    def test_field_spec_is_picklable(self):
        import pickle

        spec = FieldSpec(name="x", dataset="nyx", shape=(8, 8), tiles=(4, 4))
        assert pickle.loads(pickle.dumps(spec)) == spec
        job = JobSpec(name="j", fields=(spec,))
        assert pickle.loads(pickle.dumps(job)) == job


def test_executors_write_identical_archive_bytes(tmp_path):
    """Results land in submission order, so the archive a pooled batch writes
    is byte for byte the one a serial batch writes."""
    import hashlib

    spec = _spec(
        [
            {"name": "n0", "dataset": "nyx", "shape": [20, 20, 20]},
            {"name": "m1", "dataset": "miranda", "shape": [16, 24, 24], "tiles": [8, 12, 12]},
            {"name": "c2", "dataset": "cesm-atm", "shape": [32, 48], "eb": 1e-4},
            {"name": "s3", "dataset": "jhtdb", "shape": [16, 16, 16], "timesteps": 3,
             "tiles": [8, 8, 8]},
            {"name": "r4", "dataset": "rtm", "shape": [24, 16, 16]},
            {"name": "h5", "dataset": "hurricane", "shape": [8, 24, 24], "mode": "tp"},
        ],
        tmp_path,
    )
    digests = {}
    for executor in ("serial", "threads", "processes"):
        path = tmp_path / f"{executor}.rpza"
        with ArchiveStore(str(path), mode="a") as arch:
            assert BatchRunner(spec, arch, executor=executor, workers=2).run().ok
        digests[executor] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests["threads"] == digests["serial"]
    assert digests["processes"] == digests["serial"]

"""Command-line interface end-to-end tests."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.container import CompressedBlob
from repro.datasets import load, write_raw


@pytest.fixture()
def raw_field(tmp_path):
    data = load("miranda", shape=(16, 24, 24))
    path = tmp_path / "density_16_24_24.f32"
    write_raw(str(path), data)
    return path, data


class TestCompressDecompress:
    def test_roundtrip(self, raw_field, tmp_path, capsys):
        path, data = raw_field
        out = tmp_path / "density.rpz"
        rc = main(["compress", str(path), "-o", str(out), "--eb", "1e-3"])
        assert rc == 0
        assert "CR=" in capsys.readouterr().out

        recon_path = tmp_path / "recon.f32"
        rc = main(["decompress", str(out), "-o", str(recon_path)])
        assert rc == 0
        recon = np.fromfile(recon_path, dtype=np.float32).reshape(data.shape)
        blob = CompressedBlob.from_bytes(out.read_bytes())
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= blob.error_bound

    def test_explicit_dims(self, tmp_path):
        data = load("nyx", shape=(12, 12, 12))
        path = tmp_path / "noname.bin"
        data.tofile(path)
        out = tmp_path / "o.rpz"
        rc = main(["compress", str(path), "-o", str(out), "-d", "12", "12", "12"])
        assert rc == 0

    def test_missing_dims_errors(self, tmp_path, capsys):
        path = tmp_path / "noname.bin"
        np.zeros(100, np.float32).tofile(path)
        rc = main(["compress", str(path), "-o", str(tmp_path / "x.rpz")])
        assert rc == 2
        assert "dims" in capsys.readouterr().err

    def test_codec_flag(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        out = tmp_path / "l.rpz"
        rc = main(["compress", str(path), "-o", str(out), "--codec", "cusz-l"])
        assert rc == 0
        main(["info", str(out)])
        assert "cusz-l" in capsys.readouterr().out

    def test_tp_mode(self, raw_field, tmp_path):
        path, _ = raw_field
        out = tmp_path / "tp.rpz"
        assert main(["compress", str(path), "-o", str(out), "--mode", "tp"]) == 0


class TestInfoAndBench:
    def test_info_fields(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        out = tmp_path / "i.rpz"
        main(["compress", str(path), "-o", str(out)])
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        text = capsys.readouterr().out
        for needle in ("codec", "shape", "error bound", "segments", "codes"):
            assert needle in text

    def test_bench_table(self, capsys, monkeypatch):
        import repro.datasets.registry as reg

        # Shrink the dataset so the CLI bench stays fast in CI.
        orig = reg.DATASETS["nyx"]
        monkeypatch.setitem(
            reg.DATASETS,
            "nyx",
            reg.DatasetInfo(
                orig.name, orig.domain, orig.paper_dims, orig.paper_files,
                orig.paper_total, (20, 20, 20), orig.generator,
            ),
        )
        assert main(["bench", "--dataset", "nyx", "--eb", "1e-2"]) == 0
        text = capsys.readouterr().out
        assert "cusz-hi-cr" in text and "fzgpu" in text


class TestCleanErrors:
    """info/decompress must fail with exit 2 and a message, never a traceback."""

    def test_info_not_a_container(self, tmp_path, capsys):
        path = tmp_path / "garbage.rpz"
        path.write_bytes(b"this is not a container")
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad magic" in err

    def test_info_truncated(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        out = tmp_path / "ok.rpz"
        main(["compress", str(path), "-o", str(out)])
        full = out.read_bytes()
        trunc = tmp_path / "trunc.rpz"
        trunc.write_bytes(full[: len(full) // 2])
        assert main(["info", str(trunc)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_decompress_truncated(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        out = tmp_path / "ok.rpz"
        main(["compress", str(path), "-o", str(out)])
        trunc = tmp_path / "trunc.rpz"
        trunc.write_bytes(out.read_bytes()[:-7])
        assert main(["decompress", str(trunc), "-o", str(tmp_path / "x.f32")]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_decompress_missing_file(self, tmp_path, capsys):
        assert main(["decompress", str(tmp_path / "no.rpz"), "-o", "x.f32"]) == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.fixture()
def manifest(tmp_path):
    doc = {
        "job": {"name": "cli-corpus", "eb": 1e-3},
        "fields": [
            {"name": "a", "dataset": "nyx", "shape": [16, 16, 16]},
            {"name": "b", "dataset": "miranda", "shape": [16, 24, 24], "tiles": [8, 12, 12]},
        ],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    return path


class TestBatchArchive:
    def test_batch_roundtrip_and_report(self, manifest, tmp_path, capsys):
        arch = tmp_path / "c.rpza"
        report = tmp_path / "r.json"
        rc = main(["batch", str(manifest), "-o", str(arch), "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 ok, 0 skipped, 0 failed" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.batch-report/1"
        assert doc["totals"]["ok"] == 2

        assert main(["archive", "ls", str(arch)]) == 0
        ls = capsys.readouterr().out
        assert "a" in ls and "cusz-hi-tiled" in ls

        recon_path = tmp_path / "a.f32"
        assert main(["archive", "get", str(arch), "a", "-o", str(recon_path)]) == 0
        recon = np.fromfile(recon_path, dtype=np.float32).reshape(16, 16, 16)
        data = load("nyx", shape=(16, 16, 16))
        from repro.service import ArchiveStore

        with ArchiveStore(str(arch)) as store:
            eb = store.entry("a").eb_abs
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= eb

        assert main(["archive", "verify", str(arch), "--deep"]) == 0

    def test_batch_resume_skips(self, manifest, tmp_path, capsys):
        arch = tmp_path / "c.rpza"
        assert main(["batch", str(manifest), "-o", str(arch)]) == 0
        capsys.readouterr()
        assert main(["batch", str(manifest), "-o", str(arch)]) == 0
        assert "2 skipped" in capsys.readouterr().out

    def test_batch_partial_tile_get(self, manifest, tmp_path, capsys):
        arch = tmp_path / "c.rpza"
        main(["batch", str(manifest), "-o", str(arch)])
        out = tmp_path / "tile.f32"
        assert main(["archive", "get", str(arch), "b", "--tile", "0", "-o", str(out)]) == 0
        tile = np.fromfile(out, dtype=np.float32)
        assert tile.size == 8 * 12 * 12

    def test_batch_missing_manifest(self, tmp_path, capsys):
        rc = main(["batch", str(tmp_path / "none.toml"), "-o", str(tmp_path / "c.rpza")])
        assert rc == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_batch_unknown_dataset(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fields": [{"name": "x", "dataset": "not-a-set"}]}))
        rc = main(["batch", str(path), "-o", str(tmp_path / "c.rpza")])
        assert rc == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_batch_failed_field_exits_1(self, tmp_path, capsys):
        doc = {
            "fields": [
                {"name": "ok", "dataset": "nyx", "shape": [12, 12, 12]},
                {"name": "gone", "path": "missing.f32"},
            ]
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        rc = main(["batch", str(path), "-o", str(tmp_path / "c.rpza")])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_archive_ls_missing(self, tmp_path, capsys):
        assert main(["archive", "ls", str(tmp_path / "none.rpza")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_archive_corrupt_index(self, manifest, tmp_path, capsys):
        arch = tmp_path / "c.rpza"
        main(["batch", str(manifest), "-o", str(arch)])
        capsys.readouterr()
        raw = arch.read_bytes()
        arch.write_bytes(raw[:-11])  # clip into the footer
        assert main(["archive", "ls", str(arch)]) == 2
        assert "footer" in capsys.readouterr().err

    def test_archive_get_unknown_entry(self, manifest, tmp_path, capsys):
        arch = tmp_path / "c.rpza"
        main(["batch", str(manifest), "-o", str(arch)])
        capsys.readouterr()
        assert main(["archive", "get", str(arch), "zz", "-o", str(tmp_path / "x")]) == 2
        assert "no entry 'zz'" in capsys.readouterr().err

    def test_archive_verify_detects_corruption(self, manifest, tmp_path, capsys):
        arch = tmp_path / "c.rpza"
        main(["batch", str(manifest), "-o", str(arch)])
        capsys.readouterr()
        from repro.service import ArchiveStore

        with ArchiveStore(str(arch)) as store:
            offset = store.entry("a").offset
        raw = bytearray(arch.read_bytes())
        raw[offset + 50] ^= 0xFF
        arch.write_bytes(bytes(raw))
        assert main(["archive", "verify", str(arch)]) == 1
        assert "PROBLEM" in capsys.readouterr().err


def _iter_subparsers(parser, prefix=""):
    """Yield ``(command_path, subparser)`` for every registered subcommand,
    recursing into nested subparser groups (``archive ls`` etc.)."""
    for action in parser._actions:
        if not hasattr(action, "choices") or not isinstance(action.choices, dict):
            continue
        for name, sub in action.choices.items():
            yield f"{prefix}{name}", sub
            yield from _iter_subparsers(sub, prefix=f"{prefix}{name} ")


class TestHelpText:
    """Guards against help drift: every subcommand documents itself and
    points at the docs file covering it (the satellite contract)."""

    def test_every_subcommand_has_help_and_docs_epilog(self):
        from repro.cli import build_parser

        commands = dict(_iter_subparsers(build_parser()))
        assert {"compress", "decompress", "info", "bench", "batch", "archive",
                "serve", "eval", "archive ls", "archive get", "archive verify"} <= set(commands)
        for path, sub in commands.items():
            assert sub.description and sub.description.strip(), f"{path}: empty description"
            assert sub.epilog and "docs/" in sub.epilog, f"{path}: epilog must point at docs/"
            # The named docs file must actually exist in the repo.
            import os
            import re

            for doc in re.findall(r"docs/[A-Z_]+\.md", sub.epilog):
                repo_root = os.path.join(os.path.dirname(__file__), "..")
                assert os.path.exists(os.path.join(repo_root, doc)), f"{path}: {doc} missing"

    def test_help_epilogs_render(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        for args in (["compress"], ["serve"], ["archive", "get"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*args, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "Documentation:" in out


class TestVersion:
    def test_version_flag_reports_package_and_schema(self, capsys):
        import repro
        from repro.api import REQUEST_SCHEMA

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert REQUEST_SCHEMA in out


class TestUnifiedRequestPath:
    """CLI flags must parse into the one canonical CompressionRequest."""

    def test_unknown_codec_is_clean_error(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        rc = main(["compress", str(path), "-o", str(tmp_path / "x.rpz"), "--codec", "gzip"])
        assert rc == 2
        assert "unknown codec 'gzip'" in capsys.readouterr().err

    def test_tiles_with_non_tiling_codec_is_clean_error(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        rc = main([
            "compress", str(path), "-o", str(tmp_path / "x.rpz"),
            "--codec", "fzgpu", "--tiles", "8",
        ])
        assert rc == 2
        assert "tiles are only supported" in capsys.readouterr().err

    def test_pipeline_override_flag(self, raw_field, tmp_path, capsys):
        path, data = raw_field
        out = tmp_path / "hf.rpz"
        assert main(["compress", str(path), "-o", str(out), "--pipeline", "HF"]) == 0
        blob = CompressedBlob.from_bytes(out.read_bytes())
        assert blob.meta["pipeline"] == "HF"

    def test_bench_pipeline_codec_flag(self, tmp_path, capsys, monkeypatch):
        from repro import bench

        monkeypatch.setattr(bench, "WORKLOADS", (bench.WORKLOADS[0],))
        monkeypatch.setattr(bench, "ERROR_BOUNDS", (1e-2,))
        out = tmp_path / "b.json"
        rc = main([
            "bench", "--smoke", "--codec", "fzgpu", "--repeats", "1", "-o", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["codec"] == "fzgpu"
        assert all(c["codec"] == "fzgpu" for c in doc["cases"])

    def test_bench_pipeline_rejects_fixed_rate_codec(self, tmp_path, capsys, monkeypatch):
        from repro import bench

        monkeypatch.setattr(bench, "WORKLOADS", (bench.WORKLOADS[0],))
        rc = main(["bench", "--smoke", "--codec", "cuzfp", "-o", str(tmp_path / "b.json")])
        assert rc == 2
        assert "cuzfp" in capsys.readouterr().err

    def test_bench_codec_without_pipeline_is_clean_error(self, capsys):
        rc = main(["bench", "--codec", "fzgpu"])
        assert rc == 2
        assert "--pipeline" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_registered_with_flags(self):
        from repro.cli import build_parser

        sub = dict(_iter_subparsers(build_parser()))["serve"]
        flags = {s for a in sub._actions for s in a.option_strings}
        assert {
            "--host",
            "--port",
            "--cache-bytes",
            "--workers-procs",
            "--queue-depth",
            "--deadline-ms",
        } <= flags
        assert not {"--workers", "--batch-window-ms"} & flags
        # The retired --workers must not abbreviate to --workers-procs.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", ".", "--workers", "2"])

    def test_serve_pool_flag_defaults_match_docs(self):
        """docs/OPERATIONS.md documents these defaults; drift fails here."""
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "."])
        assert args.workers_procs == 1  # single-process unless asked
        assert args.queue_depth == 64
        assert args.deadline_ms == 0.0  # no deadline unless asked

    def test_serve_rejects_bad_pool_config_cleanly(self, tmp_path, capsys):
        rc = main(["serve", str(tmp_path), "--workers-procs", "-3"])
        assert rc == 2
        assert "worker_procs" in capsys.readouterr().err
        rc = main(["serve", str(tmp_path), "--queue-depth", "0"])
        assert rc == 2
        assert "queue_depth" in capsys.readouterr().err
        rc = main(["serve", str(tmp_path), "--deadline-ms", "-1"])
        assert rc == 2
        assert "deadline_ms" in capsys.readouterr().err

    def test_serve_bad_bind_is_clean_error(self, tmp_path, capsys):
        # Grab a port first; serving on it must exit 2 + stderr, no traceback.
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen(1)
            taken = sock.getsockname()[1]
            rc = main(["serve", str(tmp_path), "--port", str(taken)])
        assert rc == 2
        assert "cannot serve" in capsys.readouterr().err


class TestEvalCommand:
    """``repro eval`` — the TOML experiment-matrix orchestrator entry."""

    def _config(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps({
            "eval": {"kind": "cr-table", "title": "mini sweep"},
            "matrix": {"datasets": ["nyx"], "codecs": ["cusz-l"], "ebs": [1e-2, 1e-3]},
            "datasets": {"nyx": {"shape": [8, 8, 8]}},
        }))
        return path

    def test_eval_registered_with_flags(self):
        from repro.cli import build_parser

        sub = dict(_iter_subparsers(build_parser()))["eval"]
        flags = {s for a in sub._actions for s in a.option_strings}
        assert {
            "--output",
            "--markdown",
            "--html",
            "--archive",
            "--no-resume",
            "--executor",
            "--workers",
        } <= flags

    def test_missing_config_is_clean_error(self, tmp_path, capsys):
        rc = main(["eval", str(tmp_path / "none.toml")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err

    def test_invalid_config_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(
            "[eval]\nkind = 'cr-table'\n"
            "[matrix]\ndatasets = ['mars']\ncodecs = ['cusz-l']\nebs = [1e-3]\n"
        )
        rc = main(["eval", str(path)])
        assert rc == 2
        assert "matrix.datasets[0] = 'mars'" in capsys.readouterr().err

    def test_run_writes_report_and_markdown(self, tmp_path, capsys):
        from repro.evaluation import EVAL_REPORT_SCHEMA, load_report

        cfg = self._config(tmp_path)
        report = tmp_path / "mini.report.json"
        md = tmp_path / "mini.md"
        rc = main([
            "eval", str(cfg),
            "-o", str(report),
            "--markdown", str(md),
            "--archive", str(tmp_path / "mini.rpza"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 resumed, 0 failed" in out
        doc = load_report(str(report))
        assert doc["schema"] == EVAL_REPORT_SCHEMA
        assert doc["totals"] == {
            "cells": 2, "ok": 2, "failed": 0,
            "raw_nbytes": doc["totals"]["raw_nbytes"],
            "compressed_nbytes": doc["totals"]["compressed_nbytes"],
            "cr": doc["totals"]["cr"],
        }
        assert md.read_text().startswith("# mini sweep")

    def test_rerun_resumes_from_archive(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        argv = [
            "eval", str(cfg),
            "-o", str(tmp_path / "r.json"),
            "--archive", str(tmp_path / "mini.rpza"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 resumed, 0 failed" in out
        assert "(from archive)" in out


class TestTiledFlags:
    def test_tiles_roundtrip(self, raw_field, tmp_path, capsys):
        path, data = raw_field
        out = tmp_path / "tiled.rpz"
        rc = main([
            "compress", str(path), "-o", str(out),
            "--tiles", "8", "16", "16", "--workers", "2", "--executor", "threads",
        ])
        assert rc == 0
        blob = CompressedBlob.from_bytes(out.read_bytes())
        from repro.core.container import is_tiled

        assert is_tiled(blob)
        assert blob.meta["executor"] == "threads"
        recon_path = tmp_path / "recon.f32"
        assert main(["decompress", str(out), "-o", str(recon_path)]) == 0
        recon = np.fromfile(recon_path, dtype=np.float32).reshape(data.shape)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= blob.error_bound

    def test_info_shows_tiles(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        out = tmp_path / "tiled.rpz"
        assert main(["compress", str(path), "-o", str(out), "--tiles", "16"]) == 0
        main(["info", str(out)])
        text = capsys.readouterr().out
        assert "cusz-hi-tiled" in text
        assert "n_tiles" in text


def _huge_rre_count(codes: bytearray) -> None:
    codes[24:32] = (2**63 - 1).to_bytes(8, "little")


def _must_not_run(*args, **kwargs):
    raise AssertionError("the run started before its output paths were checked")


class _LeakCases:
    """Inputs that once escaped the CLI as tracebacks (or as exit 1); each
    method returns the argv that must now fail cleanly with exit 2."""

    def __init__(self, tmp_path, raw_path, sealed_codes_blob, monkeypatch):
        self.tmp, self.raw = tmp_path, raw_path
        self.sealed, self.monkeypatch = sealed_codes_blob, monkeypatch

    def _manifest(self) -> str:
        path = self.tmp / "m.json"
        path.write_text(json.dumps({"fields": [{"name": "a", "dataset": "nyx", "shape": [8] * 3}]}))
        return str(path)

    def _config(self) -> str:
        path = self.tmp / "c.json"
        path.write_text(json.dumps({
            "eval": {"kind": "cr-table"},
            "matrix": {"datasets": ["nyx"], "codecs": ["cusz-l"], "ebs": [1e-2]},
        }))
        return str(path)

    def compress_missing_input(self):
        return ["compress", str(self.tmp / "gone_8_8.f32"), "-o", str(self.tmp / "x.rpz")]

    def compress_unwritable_output(self):
        return ["compress", str(self.raw), "-o", str(self.tmp / "no-dir" / "x.rpz")]

    def decompress_unwritable_output(self):
        rpz = self.tmp / "ok.rpz"
        assert main(["compress", str(self.raw), "-o", str(rpz)]) == 0
        return ["decompress", str(rpz), "-o", str(self.tmp / "no-dir" / "x.f32")]

    def decompress_crc_valid_hostile_blob(self):
        rpz = self.tmp / "hostile.rpz"
        rpz.write_bytes(self.sealed("HF+RRE4-TCMS8-RZE1", _huge_rre_count))
        return ["decompress", str(rpz), "-o", str(self.tmp / "x.f32")]

    def bench_unknown_dataset(self):
        return ["bench", "--dataset", "mars"]

    def cluster_run_unwritable_report(self):
        import repro.cluster

        report = {"job": "m", "drained": True, "ok": 1, "failed": 0, "fields": 1,
                  "elapsed_s": 0.1, "reassignments": [], "workers": {}}
        self.monkeypatch.setattr(repro.cluster, "run_cluster", lambda *a, **k: report)
        return ["cluster", "run", self._manifest(), "-o", str(self.tmp / "out"),
                "--report", "/nonexistent/x.json"]

    def cluster_run_report_in_a_missing_directory(self):
        import repro.cluster

        self.monkeypatch.setattr(repro.cluster, "run_cluster", _must_not_run)
        return ["cluster", "run", self._manifest(), "-o", str(self.tmp / "out"),
                "--report", str(self.tmp / "no-dir" / "x.json")]

    def batch_report_in_a_missing_directory(self):
        return ["batch", self._manifest(), "-o", str(self.tmp / "a.rpza"),
                "--report", "/nonexistent/r.json"]

    def eval_markdown_in_a_missing_directory(self):
        return ["eval", self._config(), "--archive", str(self.tmp / "a.rpza"),
                "--markdown", str(self.tmp / "no-dir" / "r.md")]

    def batch_negative_workers(self):
        return ["batch", self._manifest(), "-o", str(self.tmp / "a.rpza"), "--workers", "-1"]

    def eval_negative_workers(self):
        return ["eval", self._config(), "--archive", str(self.tmp / "a.rpza"), "--workers", "-1"]


@pytest.mark.parametrize("case", [n for n in vars(_LeakCases) if not n.startswith("_")])
def test_input_errors_exit_2_with_one_error_line(
    case, raw_field, tmp_path, sealed_codes_blob, monkeypatch, capsys
):
    argv = getattr(_LeakCases(tmp_path, raw_field[0], sealed_codes_blob, monkeypatch), case)()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert "Traceback" not in err
    # A refused worker count is refused before the archive is created.
    assert not (tmp_path / "a.rpza").exists()

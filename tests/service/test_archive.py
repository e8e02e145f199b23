"""ArchiveStore backends: index round-trips, random access, verify, corruption."""

import struct

import numpy as np
import pytest

import repro.api as api
from repro import CuszHi
from repro.core.streaming import StreamWriter
from repro.datasets import load
from repro.service import ArchiveError, ArchiveStore


@pytest.fixture(scope="module")
def fields():
    return {
        "nyx": load("nyx", shape=(20, 20, 20)),
        "miranda": load("miranda", shape=(16, 24, 24)),
    }


@pytest.fixture(params=["file", "dir"])
def store_path(request, tmp_path):
    if request.param == "dir":
        return str(tmp_path / "arch_dir"), "dir"
    return str(tmp_path / "arch.rpza"), "file"


class TestRoundTrip:
    def test_add_get_roundtrip(self, store_path, fields):
        path, backend = store_path
        comp = CuszHi(mode="cr")
        blobs = {name: comp.compress(data, 1e-3) for name, data in fields.items()}
        with ArchiveStore(path, mode="w", backend=backend) as arch:
            for name, blob in blobs.items():
                arch.add_blob(name, blob, meta={"origin": "test"})
            assert len(arch) == 2 and "nyx" in arch
        with ArchiveStore(path, backend=backend) as arch:
            assert sorted(arch.names()) == ["miranda", "nyx"]
            for name, data in fields.items():
                entry = arch.entry(name)
                assert entry.shape == data.shape
                assert entry.meta["origin"] == "test"
                recon = arch.get(name)
                assert recon.shape == data.shape
                assert np.abs(data.astype(np.float64) - recon).max() <= entry.eb_abs

    def test_append_mode_resumes_index(self, store_path, fields):
        path, backend = store_path
        with ArchiveStore(path, mode="a", backend=backend) as arch:
            arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))
        with ArchiveStore(path, mode="a", backend=backend) as arch:
            assert "nyx" in arch
            arch.add_blob("miranda", CuszHi().compress(fields["miranda"], 1e-3))
        with ArchiveStore(path, backend=backend) as arch:
            assert len(arch) == 2
            assert arch.verify(deep=True) == []

    def test_duplicate_rejected(self, store_path, fields):
        path, backend = store_path
        with ArchiveStore(path, mode="w", backend=backend) as arch:
            arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))
            with pytest.raises(ArchiveError, match="already exists"):
                arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))

    def test_replace_repoints_entry(self, store_path, fields):
        path, backend = store_path
        with ArchiveStore(path, mode="w", backend=backend) as arch:
            arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))
            loose = arch.entry("nyx").eb_abs
            arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-4), replace=True)
            assert arch.entry("nyx").eb_abs < loose
            assert len(arch) == 1
        with ArchiveStore(path, backend=backend) as arch:
            assert arch.verify(deep=True) == []
            recon = arch.get("nyx")
            data = fields["nyx"]
            assert np.abs(data.astype(np.float64) - recon).max() <= arch.entry("nyx").eb_abs

    def test_read_only_guard(self, store_path, fields):
        path, backend = store_path
        with ArchiveStore(path, mode="w", backend=backend) as arch:
            arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))
        with ArchiveStore(path, backend=backend) as arch:
            with pytest.raises(ArchiveError, match="read-only"):
                arch.add_blob("x", CuszHi().compress(fields["nyx"], 1e-3))


class TestTiledAndStream:
    def test_partial_tile_decode(self, tmp_path, fields):
        data = fields["miranda"]
        blob = api.compress(data, api.build_request(eb=1e-3, tiles=(8, 12, 12))).blob
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="w") as arch:
            arch.add_blob("m", blob)
            origin, tile = arch.get_tile("m", 0)
            assert origin == (0, 0, 0) and tile.shape == (8, 12, 12)
            assert np.abs(data[:8, :12, :12].astype(np.float64) - tile).max() <= blob.error_bound

    def test_tile_on_untiled_entry_errors(self, tmp_path, fields):
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="w") as arch:
            arch.add_blob("m", CuszHi().compress(fields["miranda"], 1e-3))
            with pytest.raises(ArchiveError, match="not a tiled frame"):
                arch.get_tile("m", 0)

    def test_stream_entry_roundtrip(self, tmp_path):
        snaps = [load("cesm-atm", shape=(24, 32), seed=s) for s in range(3)]
        writer = StreamWriter(eb=1e-3, temporal=True)
        for s in snaps:
            writer.append(s)
        with ArchiveStore(str(tmp_path / "a.rpza"), mode="w") as arch:
            arch.add_stream(
                "ens", writer.getvalue(), shape=(24, 32), dtype=np.float32,
                eb_abs=writer._abs_eb, timesteps=3,
            )
            stack = arch.get("ens")
            assert stack.shape == (3, 24, 32)
            for s, r in zip(snaps, stack):
                assert np.abs(s.astype(np.float64) - r).max() <= writer._abs_eb
            with pytest.raises(ArchiveError, match="stream entry"):
                arch.get_blob("ens")
            assert arch.verify(deep=True) == []


class TestCorruption:
    def test_missing_archive(self, tmp_path):
        with pytest.raises(ArchiveError, match="does not exist"):
            ArchiveStore(str(tmp_path / "missing.rpza"))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.rpza"
        p.write_bytes(b"NOTANARCHIVE" + b"\0" * 64)
        with pytest.raises(ArchiveError, match="bad magic"):
            ArchiveStore(str(p))

    def test_truncated_footer(self, tmp_path, fields):
        p = str(tmp_path / "a.rpza")
        with ArchiveStore(p, mode="w") as arch:
            arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))
        raw = open(p, "rb").read()
        open(p, "wb").write(raw[:-10])
        with pytest.raises(ArchiveError, match="footer|truncated"):
            ArchiveStore(p)

    def test_corrupt_index_json(self, tmp_path, fields):
        p = str(tmp_path / "a.rpza")
        with ArchiveStore(p, mode="w") as arch:
            arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))
            idx_off = arch._index_off
        raw = bytearray(open(p, "rb").read())
        raw[idx_off + 2] ^= 0xFF  # flip a byte inside the index JSON
        open(p, "wb").write(bytes(raw))
        with pytest.raises(ArchiveError, match="CRC|corrupt"):
            ArchiveStore(p)

    def test_crash_window_keeps_prior_entries(self, tmp_path, fields):
        # Simulate dying mid-add: bytes appended after the live index but the
        # pointer slot never flipped.  The archive must reopen with every
        # previously completed entry intact.
        p = str(tmp_path / "a.rpza")
        with ArchiveStore(p, mode="w") as arch:
            arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))
        with open(p, "ab") as fh:
            fh.write(b"\x7f" * 1234)  # in-flight frame, crash before index flip
        with ArchiveStore(p, mode="a") as arch:
            assert arch.names() == ["nyx"]
            assert arch.verify(deep=True) == []
            arch.add_blob("miranda", CuszHi().compress(fields["miranda"], 1e-3))
        with ArchiveStore(p) as arch:
            assert sorted(arch.names()) == ["miranda", "nyx"]
            assert arch.verify(deep=True) == []

    def test_corrupt_frame_detected_by_verify(self, tmp_path, fields):
        p = str(tmp_path / "a.rpza")
        with ArchiveStore(p, mode="w") as arch:
            entry = arch.add_blob("nyx", CuszHi().compress(fields["nyx"], 1e-3))
            offset = entry.offset
        raw = bytearray(open(p, "rb").read())
        raw[offset + 60] ^= 0xFF  # flip a payload byte inside the frame
        open(p, "wb").write(bytes(raw))
        with ArchiveStore(p) as arch:
            problems = arch.verify()
            assert problems and "nyx" in problems[0]

    def test_dir_backend_corrupt_index(self, tmp_path):
        d = tmp_path / "arch"
        d.mkdir()
        (d / "index.json").write_text("{ not json")
        with pytest.raises(ArchiveError, match="corrupt archive index"):
            ArchiveStore(str(d))

    def test_corrupt_stream_entry_is_archive_error(self, tmp_path):
        from repro.core.streaming import StreamWriter
        from repro.datasets import load

        writer = StreamWriter(eb=1e-3)
        writer.append(load("cesm-atm", shape=(16, 24)))
        p = str(tmp_path / "a.rpza")
        with ArchiveStore(p, mode="w") as arch:
            entry = arch.add_stream(
                "ens", writer.getvalue(), shape=(16, 24), dtype=np.float32,
                eb_abs=writer._abs_eb, timesteps=1,
            )
            offset = entry.offset
        raw = bytearray(open(p, "rb").read())
        raw[offset + 40] ^= 0xFF  # flip a byte inside the stream payload
        open(p, "wb").write(bytes(raw))
        with ArchiveStore(p) as arch:
            with pytest.raises(ArchiveError):
                arch.get("ens")
            assert arch.verify(deep=True)  # reported, not raised

    def test_index_footer_slot_is_fixed_width(self):
        # The crash-safe dual-slot commit protocol depends on this exact
        # width: seq/offset/len/index-CRC, the slot's own CRC, then magic.
        assert struct.calcsize("<QQQI") + struct.calcsize("<I") + len(b"RPZAIDX2") == 40

"""Crash-window recovery, replicas, and ArchiveStore.repair self-healing.

Companion to test_archive.py: these tests attack the archive with the
:mod:`repro.faults` hooks (torn footer/index writes at every byte boundary)
and with raw file surgery (bit rot of primaries and replicas), then assert
the two robustness contracts:

* a crash at *any* byte of a commit leaves the previously committed state
  readable and ``verify(deep=True)``-clean (dual-slot footer);
* ``repair()`` restores rotted primaries from ``copies=N`` replicas and
  quarantines — never silently serves — entries with no surviving copy.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import compress
from repro.faults import FaultInjected, FaultPlan, FaultSpec, ReproFaults
from repro.service import ArchiveCorruption, ArchiveError, ArchiveStore
from repro.service.archive import _SLOT_LEN, REPAIR_SCHEMA

_BLOBS: dict = {}


def _blob(tag: int):
    """A real (deep-verifiable) tiny frame; ``tag`` makes payloads distinct."""
    if tag not in _BLOBS:
        field = np.linspace(tag, tag + 1, 8**3, dtype=np.float32).reshape(8, 8, 8)
        _BLOBS[tag] = compress(field, eb=1e-3)
    return _BLOBS[tag]


def _seed_archive(path: str, names=("alpha", "beta"), **add_kw) -> None:
    with ArchiveStore(path, mode="w") as arch:
        for i, name in enumerate(names):
            arch.add_blob(name, _blob(i + 1), **add_kw)


class TestTornFooter:
    """Satellite: torn footer-slot write at every byte boundary + reopen/resume."""

    @pytest.mark.parametrize("boundary", range(_SLOT_LEN + 1))
    def test_torn_footer_write_at_every_boundary(self, tmp_path, boundary):
        path = str(tmp_path / "torn.rpza")
        _seed_archive(path)
        plan = FaultPlan(
            [FaultSpec("archive.footer-write", "torn-write", at=1, byte=boundary)]
        )
        with ReproFaults(plan, env=False):
            arch = ArchiveStore(path, mode="a")
            with pytest.raises(FaultInjected, match="torn write"):
                arch.add_blob("gamma", _blob(3))
            arch.close()
        # Reopen: the archive must come back clean no matter where the tear
        # landed.  The commit point is the last byte of the slot CRC: torn
        # before it, the slot fails its CRC and the prior commit (2 entries)
        # stays live; torn after it, the slot is already valid (the trailing
        # magic survives from this slot's previous occupant) and the third
        # entry — whose index block was fully written — is durable.
        commit_point = _SLOT_LEN - len(b"RPZAIDX2")  # body + slot CRC
        with ArchiveStore(path) as arch:
            assert arch.verify(deep=True) == []
            expected = {"alpha", "beta"} | ({"gamma"} if boundary >= commit_point else set())
            assert set(arch.names()) == expected
        # Resume: the interrupted add can simply be retried.
        with ArchiveStore(path, mode="a") as arch:
            if "gamma" not in arch:
                arch.add_blob("gamma", _blob(3))
        with ArchiveStore(path) as arch:
            assert set(arch.names()) == {"alpha", "beta", "gamma"}
            assert arch.verify(deep=True) == []

    def test_torn_index_write_keeps_prior_commit(self, tmp_path):
        path = str(tmp_path / "tornidx.rpza")
        _seed_archive(path)
        plan = FaultPlan([FaultSpec("archive.index-write", "torn-write", at=1, byte=7)])
        with ReproFaults(plan, env=False):
            arch = ArchiveStore(path, mode="a")
            with pytest.raises(FaultInjected):
                arch.add_blob("gamma", _blob(3))
            arch.close()
        with ArchiveStore(path) as arch:
            # The footer slot for the new index was never written, so the old
            # slot — pointing at the untouched old index block — still wins.
            assert set(arch.names()) == {"alpha", "beta"}
            assert arch.verify(deep=True) == []

    def test_lost_footer_flush_keeps_prior_commit(self, tmp_path):
        path = str(tmp_path / "lost.rpza")
        _seed_archive(path)
        plan = FaultPlan([FaultSpec("archive.footer-write", "lost-flush", at=1)])
        with ReproFaults(plan, env=False):
            with ArchiveStore(path, mode="a") as arch:
                arch.add_blob("gamma", _blob(3))  # "succeeds", footer never lands
        with ArchiveStore(path) as arch:
            assert set(arch.names()) == {"alpha", "beta"}
            assert arch.verify(deep=True) == []

    def test_sigkill_mid_append_leaves_archive_clean(self, tmp_path):
        """Real process death: SIGKILL a writer mid-append-loop, then reopen.

        Unlike the byte-boundary sweep this is not deterministic about
        *where* the writer dies — that is the point: whatever instant the
        kill lands, the archive must reopen clean with a prefix of the
        appended entries.
        """
        path = str(tmp_path / "killed.rpza")
        _seed_archive(path)
        code = (
            "import sys\n"
            "from repro.service import ArchiveStore\n"
            "from tests.service.test_archive_repair import _blob\n"
            f"with ArchiveStore({path!r}, mode='a') as arch:\n"
            "    print('READY', flush=True)\n"
            "    for i in range(5000):\n"
            "        arch.add_blob(f'e{i}', _blob(1))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"), os.getcwd(), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True
        )
        assert proc.stdout is not None and proc.stdout.readline().startswith("READY")
        time.sleep(0.25)  # let some appends land
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        with ArchiveStore(path) as arch:
            names = set(arch.names())
            assert {"alpha", "beta"} <= names
            appended = sorted(int(n[1:]) for n in names - {"alpha", "beta"})
            assert appended == list(range(len(appended)))  # gapless prefix
            assert arch.verify(deep=True) == []


class TestReplicasAndRepair:
    def _rot_primary(self, path: str, name: str) -> None:
        with ArchiveStore(path) as arch:
            e = arch.entry(name)
            off, nbytes = e.offset, e.nbytes
        with open(path, "r+b") as fh:
            fh.seek(off + nbytes // 2)
            byte = fh.read(1)[0]
            fh.seek(off + nbytes // 2)
            fh.write(bytes([byte ^ 0xFF]))

    def test_copies_recorded_and_roundtrip_index(self, tmp_path):
        path = str(tmp_path / "rep.rpza")
        _seed_archive(path, copies=3)
        with ArchiveStore(path) as arch:
            e = arch.entry("alpha")
            assert len(e.replicas) == 2
            assert all(isinstance(r, int) for r in e.replicas)
            assert arch.verify(deep=True) == []

    def test_copies_validation(self, tmp_path):
        with ArchiveStore(str(tmp_path / "v.rpza"), mode="w") as arch:
            with pytest.raises(ArchiveError, match="copies must be >= 1"):
                arch.add_blob("x", _blob(1), copies=0)

    def test_repair_restores_primary_from_replica(self, tmp_path):
        path = str(tmp_path / "heal.rpza")
        _seed_archive(path, copies=2)
        self._rot_primary(path, "alpha")
        with ArchiveStore(path) as arch:  # sanity: the rot is detected
            with pytest.raises(ArchiveCorruption):
                arch.get_blob("alpha")
        report = ArchiveStore.repair(path)
        assert report["schema"] == REPAIR_SCHEMA
        assert report["restored"] == ["alpha"]
        assert report["ok"] == ["beta"]
        assert report["quarantined"] == []
        with ArchiveStore(path) as arch:
            assert arch.verify(deep=True) == []
            assert arch.read_bytes("alpha") == _blob(1).to_bytes()  # byte-identical

    def test_repair_drops_only_the_hostile_index_row(self, tmp_path, reseal_archive_entry):
        """One CRC-valid index row that fails ArchiveEntry.from_json costs that
        row alone: the entries before and after it stay indexed (repair used
        to fall back to an older index block and forget every later entry)."""
        path = str(tmp_path / "row.rpza")
        _seed_archive(path, names=("alpha", "beta", "gamma"))
        reseal_archive_entry(path, {"offset": "x"}, index=1)
        with pytest.raises(ArchiveError, match="corrupt archive index entry"):
            ArchiveStore(path)
        report = ArchiveStore.repair(path)
        assert report["ok"] == ["alpha", "gamma"]
        assert any("index entry 1 ('beta') dropped" in p for p in report["problems"])
        with ArchiveStore(path) as arch:
            assert set(arch.names()) == {"alpha", "gamma"}
            assert arch.read_bytes("alpha") == _blob(1).to_bytes()
            assert arch.read_bytes("gamma") == _blob(3).to_bytes()

    def test_repair_quarantines_unrecoverable_entry(self, tmp_path):
        path = str(tmp_path / "lost.rpza")
        _seed_archive(path, copies=1)  # no replicas: rot is fatal for the entry
        self._rot_primary(path, "alpha")
        report = ArchiveStore.repair(path)
        assert report["quarantined"] == ["alpha"]
        assert report["ok"] == ["beta"]
        qdir = report["quarantine_dir"]
        assert qdir and os.path.isdir(qdir)
        note = json.load(open(os.path.join(qdir, "alpha.json")))
        assert note["entry"] == "alpha" and note["reason"]
        # The damaged entry is gone from the healed archive, not half-readable.
        with ArchiveStore(path) as arch:
            assert set(arch.names()) == {"beta"}
            assert arch.verify(deep=True) == []

    def test_repair_rebuilds_index_when_both_slots_destroyed(self, tmp_path):
        path = str(tmp_path / "slots.rpza")
        _seed_archive(path)
        with open(path, "r+b") as fh:  # zero both footer slots
            fh.seek(len(b"RPZARCH2"))
            fh.write(b"\0" * (2 * _SLOT_LEN))
        with pytest.raises(ArchiveCorruption, match="footer slots"):
            ArchiveStore(path)
        report = ArchiveStore.repair(path)
        assert report["index_recovered"] is True
        assert sorted(report["ok"]) == ["alpha", "beta"]
        with ArchiveStore(path) as arch:
            assert set(arch.names()) == {"alpha", "beta"}
            assert arch.verify(deep=True) == []

    def test_repair_missing_archive_is_typed_error(self, tmp_path):
        with pytest.raises(ArchiveError, match="does not exist"):
            ArchiveStore.repair(str(tmp_path / "nope.rpza"))

"""Archive storage: many compressed fields behind one random-access index.

An archive holds the output of a batch job — one :class:`~repro.core.
container.CompressedBlob` frame (or one snapshot stream) per field — and an
index mapping field names to locations plus decode metadata.  Two backends
share the same API and index schema:

``file``
    A single ``.rpza`` file::

        magic  b"RPZARCH2"
        footer slot 0 (fixed offset 8, 40 bytes):
            seq u64, index_offset u64, index_len u64, index_crc32 u32,
            slot_crc32 u32 (over the preceding 28 bytes), b"RPZAIDX2"
        footer slot 1 (fixed offset 48, same layout)
        frames and index JSON blocks, appended in completion order

    Every add appends the new frame *after* the current index JSON, writes a
    fresh index after the frame, and only then writes the **stale** footer
    slot with the next sequence number — the two fixed slots alternate, so
    the slot describing the last committed index is never touched during a
    commit.  Opening picks the highest-sequence slot whose own CRC checks
    out: a crash (or torn write) at any byte of the in-flight slot damages
    only that slot, and the archive reopens with exactly the previously
    committed entries.  A slot whose CRC is valid but whose *index* fails
    its check means committed data rotted on disk — that is a
    :class:`ArchiveCorruption`, repairable via :meth:`ArchiveStore.repair`
    (``repro archive repair``), which salvages the newest intact index
    block, restores damaged entries from their replicas (``copies=N`` write
    option) and quarantines what cannot be saved.  Retrieval seeks straight
    to the frame — no scan, O(entry) reads.

``dir``
    A directory with ``index.json`` plus one ``.rpz`` file per entry
    (atomically replaced index), interoperable with the single-field CLI.
    Replicas are sibling ``<file>.rpz.copyK`` files; quarantined entries
    move into a ``quarantine/`` subdirectory.

Partial decompression: entries written as multi-tile frames (``tiles = [...]``
in the manifest) decode one tile at a time through the existing per-tile
offsets in the tiled container (:func:`repro.core.container.unpack_tile`) —
:meth:`ArchiveStore.get_tile` touches only that tile's bytes after the single
frame read.
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..api.registry import codec_class, codec_name
from ..core.cache import ByteBudgetLRU
from ..core.container import CompressedBlob, ContainerError, is_tiled
from ..core.streaming import StreamReader
from ..core.tiling import TiledEngine
from ..faults import mangle as _fault_mangle
from ..faults import write as _fault_write

__all__ = [
    "ArchiveCorruption",
    "ArchiveEntry",
    "ArchiveError",
    "ArchiveNotFound",
    "ArchiveStore",
    "blob_cache_stats",
    "clear_blob_cache",
]

#: process-wide cache of *parsed* frames: repeated reads of one entry (most
#: prominently per-tile random access, which used to re-read and re-CRC the
#: whole frame for every tile) skip straight to the zero-copy container.
#: Keys carry file identity + stat, so any on-disk change misses naturally.
#: Sized by REPRO_BLOB_CACHE_BYTES (0 disables; default 128 MiB) so
#: memory-constrained deployments can bound or turn off this layer too.
def _blob_cache_budget() -> int:
    raw = os.environ.get("REPRO_BLOB_CACHE_BYTES", "")
    try:
        return max(0, int(raw))
    except ValueError:
        return 128 * 1024 * 1024


_blob_cache = ByteBudgetLRU(_blob_cache_budget())


def blob_cache_stats() -> dict:
    """Counter snapshot of the parsed-frame cache (surfaced in GET /stats)."""
    return _blob_cache.stats()


def clear_blob_cache() -> None:
    """Drop every cached parsed frame (test isolation)."""
    _blob_cache.clear()


_MAGIC = b"RPZARCH2"
_OLD_MAGIC = b"RPZARCH1"
_SLOT_MAGIC = b"RPZAIDX2"
# seq u64, index_offset u64, index_len u64, index_crc32 u32 — covered by the
# trailing slot_crc32, so a *torn* slot write (mixed old/new bytes) is
# distinguishable from a committed slot whose index later rotted.
_SLOT_FMT = "<QQQI"
_SLOT_LEN = struct.calcsize(_SLOT_FMT) + 4 + len(_SLOT_MAGIC)
_SLOT_OFFS = (len(_MAGIC), len(_MAGIC) + _SLOT_LEN)
_DATA_START = len(_MAGIC) + 2 * _SLOT_LEN
_INDEX_VERSION = 1
#: every index JSON block starts with this byte sequence (json.dumps with
#: indent=1 + sort_keys puts "entries" first) — the repair scan's needle.
_INDEX_MARKER = b'{\n "entries"'
REPAIR_SCHEMA = "repro.archive-repair/1"


class ArchiveError(ValueError):
    """Raised on malformed archives, unknown entries or backend misuse."""


class ArchiveNotFound(ArchiveError):
    """The archive exists but the requested entry/tile does not.

    A distinct type so callers mapping archive failures onto protocol codes
    (the HTTP server's 404-vs-400 split) can dispatch on the exception class
    instead of parsing message text."""


class ArchiveCorruption(ArchiveError):
    """Stored bytes are damaged: CRC mismatch, truncated payload, rotted
    index.  Distinct from misuse (plain :class:`ArchiveError`) and from
    missing entries (:class:`ArchiveNotFound`) so the server can map it to a
    retryable 503 + degraded health instead of a client-error 400, and so
    operators know ``repro archive repair`` is the next step."""


def _pack_slot(seq: int, offset: int, length: int, idx_crc: int) -> bytes:
    body = struct.pack(_SLOT_FMT, seq, offset, length, idx_crc)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) + _SLOT_MAGIC


def _parse_slot(raw: bytes):
    """Decode one footer slot; ``None`` when torn/blank (bad magic or CRC)."""
    if len(raw) != _SLOT_LEN or raw[-len(_SLOT_MAGIC) :] != _SLOT_MAGIC:
        return None
    body = raw[: struct.calcsize(_SLOT_FMT)]
    (slot_crc,) = struct.unpack("<I", raw[len(body) : len(body) + 4])
    if (zlib.crc32(body) & 0xFFFFFFFF) != slot_crc:
        return None
    return struct.unpack(_SLOT_FMT, body)  # (seq, offset, length, idx_crc)


@dataclass
class ArchiveEntry:
    """Index row: where one field lives and how to decode/size it.

    ``replicas`` lists extra full copies of the payload (``copies=N`` write
    option): byte offsets in the file backend, sibling filenames in the dir
    backend.  Repair promotes a valid replica when the primary rots.
    """

    name: str
    kind: str  # "field" | "stream"
    codec: str
    shape: tuple[int, ...]
    dtype: str
    eb_abs: float
    nbytes: int
    timesteps: int = 1
    offset: int | None = None  # file backend
    filename: str | None = None  # dir backend
    meta: dict = field(default_factory=dict)
    replicas: list = field(default_factory=list)

    @property
    def raw_nbytes(self) -> int:
        n = self.timesteps * np.dtype(self.dtype).itemsize
        for d in self.shape:
            n *= int(d)
        return n

    @property
    def compression_ratio(self) -> float:
        return self.raw_nbytes / max(1, self.nbytes)

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "kind": self.kind,
            "codec": self.codec,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "eb_abs": self.eb_abs,
            "nbytes": self.nbytes,
            "timesteps": self.timesteps,
            "meta": self.meta,
        }
        if self.offset is not None:
            doc["offset"] = self.offset
        if self.filename is not None:
            doc["filename"] = self.filename
        if self.replicas:
            doc["replicas"] = list(self.replicas)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ArchiveEntry":
        try:
            return cls(
                name=doc["name"],
                kind=doc["kind"],
                codec=doc["codec"],
                shape=tuple(int(d) for d in doc["shape"]),
                dtype=doc["dtype"],
                eb_abs=float(doc["eb_abs"]),
                nbytes=int(doc["nbytes"]),
                timesteps=int(doc.get("timesteps", 1)),
                offset=doc.get("offset"),
                filename=doc.get("filename"),
                meta=dict(doc.get("meta", {})),
                replicas=list(doc.get("replicas", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(f"corrupt archive index entry: {exc!r}") from None


def _safe_filename(name: str, taken: set[str], suffix: str = ".rpz") -> str:
    base = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("._") or "entry"
    candidate, n = f"{base}{suffix}", 1
    while candidate in taken:
        candidate, n = f"{base}~{n}{suffix}", n + 1
    return candidate


def _encode_index_doc(entries: dict[str, ArchiveEntry]) -> bytes:
    doc = {
        "format": "repro.archive-index",
        "version": _INDEX_VERSION,
        "entries": [e.to_json() for e in entries.values()],
    }
    return json.dumps(doc, indent=1, sort_keys=True).encode("utf-8")


class ArchiveStore:
    """Named random-access store of compressed frames (file or dir backend).

    Open modes: ``"r"`` (read-only, must exist), ``"a"`` (append, created if
    missing), ``"w"`` (create/overwrite).  Use as a context manager or call
    :meth:`close`; the file backend keeps one OS handle open.

    Examples
    --------
    >>> import numpy as np, os, tempfile, repro
    >>> field = np.linspace(0, 1, 4096, dtype=np.float32).reshape(16, 16, 16)
    >>> path = os.path.join(tempfile.mkdtemp(), "demo.rpza")
    >>> with ArchiveStore(path, mode="w", backend="file") as archive:
    ...     entry = archive.add_blob("rho", repro.compress(field, eb=1e-3))
    >>> with ArchiveStore(path) as archive:          # mode="r" is the default
    ...     names = archive.names()
    ...     recon = archive.get("rho")
    ...     eb_abs = archive.entry("rho").eb_abs
    >>> names
    ['rho']
    >>> bool(np.max(np.abs(recon - field)) <= eb_abs)
    True
    """

    def __init__(self, path: str, mode: str = "r", backend: str | None = None):
        if mode not in ("r", "a", "w"):
            raise ValueError(f"mode must be 'r', 'a' or 'w', got {mode!r}")
        if backend not in (None, "file", "dir"):
            raise ValueError(f"backend must be 'file' or 'dir', got {backend!r}")
        if backend is None:
            backend = "dir" if os.path.isdir(path) or path.endswith(os.sep) else "file"
        self.path = os.path.normpath(path)
        self.mode = mode
        self.backend = backend
        self._entries: dict[str, ArchiveEntry] = {}
        self._fh: io.BufferedRandom | None = None
        # File backend: where the live index JSON currently sits; the next
        # frame is appended directly after it (see _add).  ``_seq`` is the
        # sequence number of the committed footer slot.
        self._index_off = _DATA_START
        self._index_len = 0
        self._seq = 0
        if backend == "file":
            self._open_file()
        else:
            self._open_dir()

    # --------------------------------------------------------------- lifecycle
    @classmethod
    def open(cls, path: str, mode: str = "r", backend: str | None = None) -> "ArchiveStore":
        return cls(path, mode=mode, backend=backend)

    def __enter__(self) -> "ArchiveStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------ file backend
    def _open_file(self) -> None:
        exists = os.path.exists(self.path)
        if self.mode == "r":
            if not exists:
                raise ArchiveError(f"archive {self.path} does not exist")
            self._fh = open(self.path, "rb")
            self._load_file_index()
        elif self.mode == "a" and exists:
            self._fh = open(self.path, "r+b")
            self._load_file_index()
        else:  # "w", or "a" on a missing file
            self._fh = open(self.path, "w+b")
            self._fh.write(_MAGIC)
            self._fh.write(b"\0" * (2 * _SLOT_LEN))  # blank slots, written below
            self._write_file_index(_DATA_START)

    def _load_file_index(self) -> None:
        fh = self._fh
        assert fh is not None
        fh.seek(0, os.SEEK_END)
        total = fh.tell()
        fh.seek(0)
        head = fh.read(len(_MAGIC))
        if head == _OLD_MAGIC:
            raise ArchiveError(
                f"{self.path}: v1 archive layout (RPZARCH1, single footer slot); "
                "this build reads the crash-safe dual-slot RPZARCH2 layout — "
                "recreate the archive"
            )
        if head != _MAGIC:
            raise ArchiveError(f"{self.path}: bad magic — not a repro archive")
        if total < _DATA_START:
            raise ArchiveError(f"{self.path}: too short to be an archive (truncated header)")
        # Highest-sequence slot with a valid slot CRC wins.  A torn in-flight
        # slot write fails its own CRC and is ignored (that commit never
        # happened); the surviving slot holds exactly the committed entries.
        slots = []
        for slot_off in _SLOT_OFFS:
            fh.seek(slot_off)
            parsed = _parse_slot(fh.read(_SLOT_LEN))
            if parsed is not None:
                slots.append(parsed)
        if not slots:
            raise ArchiveCorruption(
                f"{self.path}: both index footer slots are torn or corrupt — "
                "run `repro archive repair`"
            )
        seq, idx_off, idx_len, idx_crc = max(slots)
        if idx_off < _DATA_START or idx_off + idx_len > total:
            raise ArchiveCorruption(
                f"{self.path}: index footer (seq {seq}) is truncated or out of "
                f"bounds: index at byte {idx_off} (+{idx_len}) in a {total}-byte "
                "file — run `repro archive repair`"
            )
        fh.seek(idx_off)
        raw = fh.read(idx_len)
        if (zlib.crc32(raw) & 0xFFFFFFFF) != idx_crc:
            raise ArchiveCorruption(
                f"{self.path}: archive index at byte {idx_off} ({idx_len} bytes) "
                "failed its CRC check — run `repro archive repair`"
            )
        self._entries = self._decode_index(raw)
        self._index_off = idx_off
        self._index_len = idx_len
        self._seq = seq

    def _write_file_index(self, offset: int) -> None:
        """Write the index JSON at ``offset``, then commit the footer slot.

        Sequence ``_seq + 1`` lands in the slot the *previous* commit did not
        use, so the committed slot — and the index block it points at — are
        never touched before the new state is durable; a crash at any byte of
        either write leaves the old state live.
        """
        fh = self._fh
        assert fh is not None
        raw = self._encode_index()
        crc = zlib.crc32(raw) & 0xFFFFFFFF
        fh.seek(offset)
        _fault_write("archive.index-write", fh, raw)
        fh.truncate()
        fh.flush()
        seq = self._seq + 1
        fh.seek(_SLOT_OFFS[seq % 2])
        _fault_write("archive.footer-write", fh, _pack_slot(seq, offset, len(raw), crc))
        fh.flush()
        self._index_off = offset
        self._index_len = len(raw)
        self._seq = seq

    # ------------------------------------------------------------- dir backend
    @property
    def _index_path(self) -> str:
        return os.path.join(self.path, "index.json")

    def _open_dir(self) -> None:
        exists = os.path.isdir(self.path)
        if self.mode == "r":
            if not exists or not os.path.exists(self._index_path):
                raise ArchiveError(f"archive {self.path} does not exist (no index.json)")
            with open(self._index_path, "rb") as fh:
                self._entries = self._decode_index(fh.read())
        elif self.mode == "a" and exists and os.path.exists(self._index_path):
            with open(self._index_path, "rb") as fh:
                self._entries = self._decode_index(fh.read())
        else:
            os.makedirs(self.path, exist_ok=True)
            self._flush_dir_index()

    def _flush_dir_index(self) -> None:
        tmp = self._index_path + ".tmp"
        with open(tmp, "wb") as fh:
            _fault_write("archive.index-write", fh, self._encode_index())
        os.replace(tmp, self._index_path)

    # ------------------------------------------------------------ index codecs
    def _encode_index(self) -> bytes:
        return _encode_index_doc(self._entries)

    def _decode_index(self, raw: bytes) -> dict[str, ArchiveEntry]:
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArchiveCorruption(f"{self.path}: corrupt archive index: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != "repro.archive-index":
            raise ArchiveError(f"{self.path}: not a repro archive index")
        if doc.get("version") != _INDEX_VERSION:
            raise ArchiveError(f"{self.path}: unsupported archive index version")
        entries = [ArchiveEntry.from_json(e) for e in doc.get("entries", [])]
        return {e.name: e for e in entries}

    # ------------------------------------------------------------------ reads
    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def entries(self) -> list[ArchiveEntry]:
        return list(self._entries.values())

    def entry(self, name: str) -> ArchiveEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ArchiveNotFound(
                f"no entry {name!r} in archive {self.path} (have {sorted(self._entries)})"
            ) from None

    def _payload_at(self, e: ArchiveEntry, where) -> bytes:
        """Read one stored payload copy: a byte offset (file backend) or a
        filename (dir backend)."""
        if self.backend == "file":
            assert self._fh is not None and isinstance(where, int)
            self._fh.seek(where)
            return self._fh.read(e.nbytes)
        try:
            with open(os.path.join(self.path, where), "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise ArchiveCorruption(f"entry {e.name!r}: cannot read payload: {exc}") from None

    def read_bytes(self, name: str) -> bytes:
        """Raw stored bytes of one entry (a frame, or a snapshot stream)."""
        e = self.entry(name)
        where = e.offset if self.backend == "file" else e.filename
        raw = self._payload_at(e, where)
        # Chaos hook ("archive.read"): short reads / bit rot injected here.
        raw = _fault_mangle("archive.read", raw)
        if len(raw) != e.nbytes:
            at = f"at byte {e.offset}" if e.offset is not None else f"in file {e.filename!r}"
            raise ArchiveCorruption(
                f"entry {name!r}: payload {at} is {len(raw)} bytes, index says "
                f"{e.nbytes} — archive truncated or index stale"
            )
        return raw

    def _blob_cache_key(self, e: ArchiveEntry):
        if self.backend == "file":
            source = self.path
        else:
            source = os.path.join(self.path, e.filename or "")
        try:
            st = os.stat(source)
        except OSError:
            return None  # unstattable source: skip caching, read as before
        return (
            os.path.abspath(source),
            e.name,
            e.offset,
            e.nbytes,
            st.st_mtime_ns,
            st.st_size,
        )

    def get_blob(self, name: str) -> CompressedBlob:
        e = self.entry(name)
        if e.kind != "field":
            raise ArchiveError(f"entry {name!r} is a {e.kind} entry; use get()")
        key = self._blob_cache_key(e)
        if key is not None:
            cached = _blob_cache.get(key)
            if cached is not None:
                return cached
        try:
            blob = CompressedBlob.from_bytes(self.read_bytes(name))
        except ContainerError as exc:
            at = f"archive byte {e.offset}" if e.offset is not None else f"file {e.filename!r}"
            raise ArchiveCorruption(f"entry {name!r} (frame at {at}): {exc}") from None
        if key is not None:
            _blob_cache.put(key, blob, nbytes=blob.nbytes)
        return blob

    def get(self, name: str) -> np.ndarray:
        """Decompress one entry; stream entries come back stacked (T, ...)."""
        e = self.entry(name)
        if e.kind == "stream":
            try:
                snaps = StreamReader(self.read_bytes(name)).read_all()
            except ValueError as exc:  # includes ContainerError
                raise ArchiveCorruption(f"entry {name!r}: corrupt stream: {exc}") from None
            return np.stack(snaps)
        blob = self.get_blob(name)
        return codec_class(blob.codec)().decompress(blob)

    def get_tile(self, name: str, index: int) -> tuple[tuple[int, ...], np.ndarray]:
        """Partial decompression: decode one tile of a tiled field entry."""
        blob = self.get_blob(name)
        if not is_tiled(blob):
            raise ArchiveError(f"entry {name!r} is not a tiled frame — no per-tile access")
        try:
            return TiledEngine().decompress_tile(blob, index)
        except IndexError as exc:
            raise ArchiveNotFound(f"entry {name!r}: {exc}") from None

    # ----------------------------------------------------------------- writes
    def _check_writable(self) -> None:
        if self.mode == "r":
            raise ArchiveError(f"archive {self.path} is open read-only")

    def add_blob(
        self,
        name: str,
        blob,
        meta: dict | None = None,
        replace: bool = False,
        copies: int = 1,
    ) -> ArchiveEntry:
        """Store one compressed field under ``name``.

        ``blob`` may be a :class:`CompressedBlob` or its serialized bytes
        (batch workers ship bytes across process boundaries); bytes are
        parsed once for index metadata and stored verbatim.  Duplicate names
        are rejected unless ``replace=True`` (see :meth:`_add`).

        ``copies=N`` writes ``N - 1`` extra full replicas of the payload
        (recorded in :attr:`ArchiveEntry.replicas`) at N× the storage cost;
        :meth:`repair` restores a rotted primary from any intact replica.
        """
        if isinstance(blob, (bytes, bytearray, memoryview)):
            payload = blob  # written as-is below; no defensive copy needed
            try:
                blob = CompressedBlob.from_bytes(payload)
            except ContainerError as exc:
                raise ArchiveError(f"entry {name!r}: not a valid frame: {exc}") from None
        else:
            payload = blob.to_bytes()
        return self._add(
            name,
            payload,
            kind="field",
            codec=codec_name(blob.codec),
            shape=blob.shape,
            dtype=np.dtype(blob.dtype).name,
            eb_abs=float(blob.error_bound),
            timesteps=1,
            meta=meta,
            replace=replace,
            copies=copies,
        )

    def add_stream(
        self,
        name: str,
        payload: bytes,
        shape: tuple[int, ...],
        dtype,
        eb_abs: float,
        timesteps: int,
        meta: dict | None = None,
        replace: bool = False,
        copies: int = 1,
    ) -> ArchiveEntry:
        """Store a :class:`~repro.core.streaming.StreamWriter` byte stream."""
        return self._add(
            name,
            payload,
            kind="stream",
            codec="stream",
            shape=tuple(int(d) for d in shape),
            dtype=np.dtype(dtype).name,
            eb_abs=float(eb_abs),
            timesteps=int(timesteps),
            meta=meta,
            replace=replace,
            copies=copies,
        )

    def _add(
        self,
        name,
        payload,
        *,
        kind,
        codec,
        shape,
        dtype,
        eb_abs,
        timesteps,
        meta,
        replace=False,
        copies=1,
    ):
        # Replacing re-points the index at a freshly appended frame; in the
        # file backend the old frame's bytes become unreachable (space is
        # reclaimed by rewriting the archive, not in place).
        self._check_writable()
        if copies < 1:
            raise ArchiveError(f"entry {name!r}: copies must be >= 1, got {copies}")
        if name in self._entries and not replace:
            raise ArchiveError(f"entry {name!r} already exists in archive {self.path}")
        old = self._entries.get(name)
        entry = ArchiveEntry(
            name=name,
            kind=kind,
            codec=codec,
            shape=tuple(int(d) for d in shape),
            dtype=str(dtype),
            eb_abs=eb_abs,
            nbytes=len(payload),
            timesteps=timesteps,
            meta=dict(meta or {}),
        )
        if self.backend == "file":
            # Append after the live index; the old index block stays valid
            # until _write_file_index commits the next footer slot, so a
            # crash in this window cannot lose already-archived entries.
            assert self._fh is not None
            frame_off = self._index_off + self._index_len
            entry.offset = frame_off
            self._fh.seek(frame_off)
            _fault_write("archive.frame-write", self._fh, payload)
            pos = frame_off + len(payload)
            for _ in range(copies - 1):
                entry.replicas.append(pos)
                _fault_write("archive.frame-write", self._fh, payload)
                pos += len(payload)
            self._fh.flush()
            self._entries[name] = entry
            self._write_file_index(pos)
        else:
            if old is not None and old.filename:
                entry.filename = old.filename  # overwrite in place
            else:
                taken = {e.filename for e in self._entries.values() if e.filename}
                entry.filename = _safe_filename(name, taken)
            with open(os.path.join(self.path, entry.filename), "wb") as fh:
                _fault_write("archive.frame-write", fh, payload)
            for k in range(1, copies):
                replica = f"{entry.filename}.copy{k}"
                with open(os.path.join(self.path, replica), "wb") as fh:
                    _fault_write("archive.frame-write", fh, payload)
                entry.replicas.append(replica)
            self._entries[name] = entry
            self._flush_dir_index()
        return entry

    # ----------------------------------------------------------------- verify
    def _check_payload(self, e: ArchiveEntry, raw: bytes) -> None:
        """Structural validity of one payload copy (parse + CRCs)."""
        if len(raw) != e.nbytes:
            raise ArchiveCorruption(f"payload is {len(raw)} bytes, index says {e.nbytes}")
        if e.kind == "stream":
            for _ in StreamReader(raw).frames():
                pass
        else:
            CompressedBlob.from_bytes(raw)

    def verify(self, name: str | None = None, deep: bool = False) -> list[str]:
        """Integrity-check entries; returns a list of problem strings.

        The structural pass re-reads every frame through the container layer
        (per-segment CRCs, index/shape/dtype agreement) and every replica
        copy; ``deep=True`` also decompresses each entry fully.
        """
        problems: list[str] = []
        targets = [self.entry(name)] if name is not None else self.entries()
        for e in targets:
            try:
                if e.kind == "stream":
                    nframes = sum(1 for _ in StreamReader(self.read_bytes(e.name)).frames())
                    if nframes != e.timesteps:
                        problems.append(
                            f"{e.name}: stream holds {nframes} frames, index says {e.timesteps}"
                        )
                    if deep:
                        stack = self.get(e.name)
                        if stack.shape[1:] != e.shape:
                            problems.append(
                                f"{e.name}: snapshot shape {stack.shape[1:]} != index {e.shape}"
                            )
                else:
                    blob = self.get_blob(e.name)
                    if blob.shape != e.shape:
                        problems.append(f"{e.name}: frame shape {blob.shape} != index {e.shape}")
                    if np.dtype(blob.dtype).name != e.dtype:
                        problems.append(
                            f"{e.name}: frame dtype {np.dtype(blob.dtype).name} != index {e.dtype}"
                        )
                    if codec_name(blob.codec) != e.codec:
                        problems.append(
                            f"{e.name}: frame codec {codec_name(blob.codec)} != index {e.codec}"
                        )
                    if deep:
                        recon = codec_class(blob.codec)().decompress(blob)
                        if recon.shape != e.shape:
                            problems.append(
                                f"{e.name}: reconstruction shape {recon.shape} != index {e.shape}"
                            )
            except (ArchiveError, ContainerError, ValueError) as exc:
                problems.append(f"{e.name}: {exc}")
            for k, where in enumerate(e.replicas, 1):
                try:
                    self._check_payload(e, self._payload_at(e, where))
                except (ArchiveError, ContainerError, ValueError) as exc:
                    problems.append(f"{e.name}: replica {k} ({where}): {exc}")
        return problems

    # ----------------------------------------------------------------- repair
    @classmethod
    def repair(cls, path: str, backend: str | None = None, quarantine: str | None = None) -> dict:
        """Self-heal an archive in place; returns a ``repro.archive-repair/1``
        report dict.

        Works even when :class:`ArchiveStore` refuses to open the archive:
        the index is rebuilt from the newest intact footer slot or, failing
        that, salvaged by scanning for the last valid index JSON block.
        Every entry's payload is then structurally verified; a corrupt
        primary is restored from its first intact replica (``copies=N``
        entries), and entries with no surviving copy are moved to a
        quarantine area (``<path>.quarantine/`` for the file backend,
        ``<path>/quarantine/`` for the dir backend) together with a JSON
        reason note, so damaged bytes stay inspectable but never readable
        through the store.  CLI: ``repro archive repair``.
        """
        if backend not in (None, "file", "dir"):
            raise ArchiveError(f"backend must be 'file' or 'dir', got {backend!r}")
        if backend is None:
            backend = "dir" if os.path.isdir(path) else "file"
        if backend == "file" and not os.path.exists(path):
            raise ArchiveError(f"archive {path} does not exist")
        if backend == "dir" and not os.path.isdir(path):
            raise ArchiveError(f"archive {path} does not exist")
        if backend == "file":
            report = _repair_file(path, quarantine)
        else:
            report = _repair_dir(path, quarantine)
        clear_blob_cache()  # repaired entries must not serve stale parses
        report["schema"] = REPAIR_SCHEMA
        report["path"] = path
        report["backend"] = backend
        return report


def _structurally_valid(kind: str, raw: bytes, nbytes: int) -> str | None:
    """``None`` when one payload copy parses cleanly, else the problem."""
    if len(raw) != nbytes:
        return f"payload is {len(raw)} bytes, index says {nbytes}"
    try:
        if kind == "stream":
            for _ in StreamReader(raw).frames():
                pass
        else:
            CompressedBlob.from_bytes(raw)
    except (ContainerError, ValueError) as exc:
        return str(exc)
    return None


def _salvage_indexes(data: bytes) -> list[tuple[int, dict]]:
    """Every parseable index JSON block in ``data``, oldest first.

    Index blocks all start with :data:`_INDEX_MARKER`; superseded blocks are
    never overwritten in place (appends land after the live index), so the
    newest parseable block is the last committed index state.
    """
    found: list[tuple[int, dict]] = []
    start = _DATA_START
    decoder = json.JSONDecoder()
    while True:
        p = data.find(_INDEX_MARKER, start)
        if p < 0:
            break
        # latin-1 maps bytes 1:1 onto code points, so raw_decode sees the
        # exact byte stream; index JSON itself is pure ASCII (ensure_ascii).
        try:
            doc, _ = decoder.raw_decode(data[p:].decode("latin-1"))
        except ValueError:
            doc = None
        if (
            isinstance(doc, dict)
            and doc.get("format") == "repro.archive-index"
            and doc.get("version") == _INDEX_VERSION
        ):
            found.append((p, doc))
        start = p + 1
    return found


def _quarantine_note(qdir: str, stem: str, payload: bytes, note: dict) -> None:
    os.makedirs(qdir, exist_ok=True)
    taken = set(os.listdir(qdir))
    binname = _safe_filename(stem, taken, suffix=".bin")
    with open(os.path.join(qdir, binname), "wb") as fh:
        fh.write(payload)
    note = dict(note, quarantined_bytes=binname)
    with open(os.path.join(qdir, binname[: -len(".bin")] + ".json"), "w") as fh:
        json.dump(note, fh, indent=1, sort_keys=True)


def _repair_file(path: str, quarantine: str | None) -> dict:
    qdir = quarantine or (path + ".quarantine")
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_OLD_MAGIC)] == _OLD_MAGIC:
        raise ArchiveError(f"{path}: v1 archive layout (RPZARCH1) — recreate the archive")
    if data[: len(_MAGIC)] != _MAGIC:
        raise ArchiveError(f"{path}: bad magic — not a repro archive")
    problems: list[str] = []
    entries: dict[str, ArchiveEntry] | None = None
    index_recovered = False
    seq = 0
    # 1. Newest committed footer slot whose index block is intact.
    slots = []
    for slot_off in _SLOT_OFFS:
        parsed = _parse_slot(data[slot_off : slot_off + _SLOT_LEN])
        if parsed is not None:
            slots.append(parsed)
        else:
            problems.append(f"footer slot at byte {slot_off} is torn or blank")
    for s, off, length, idx_crc in sorted(slots, reverse=True):
        seq = max(seq, s)
        raw = data[off : off + length]
        if (
            off >= _DATA_START
            and off + length <= len(data)
            and (zlib.crc32(raw) & 0xFFFFFFFF) == idx_crc
        ):
            try:
                docs = json.loads(raw.decode("utf-8"))
                entries = {
                    e.name: e for e in (ArchiveEntry.from_json(d) for d in docs.get("entries", []))
                }
                break
            except (UnicodeDecodeError, json.JSONDecodeError, ArchiveError, AttributeError):
                problems.append(f"index at byte {off} (seq {s}) does not parse")
        else:
            problems.append(f"index at byte {off} (seq {s}) is out of bounds or fails its CRC")
    # 2. No slot usable: scan for the last valid index JSON block.
    if entries is None:
        index_recovered = True
        for p, doc in reversed(_salvage_indexes(data)):
            try:
                entries = {
                    e.name: e for e in (ArchiveEntry.from_json(d) for d in doc.get("entries", []))
                }
                problems.append(f"index rebuilt from salvaged block at byte {p}")
                break
            except ArchiveError:
                continue
        if entries is None:
            raise ArchiveCorruption(
                f"{path}: unrepairable — no footer slot and no intact index block found"
            )
    # 3. Validate every payload copy; restore or quarantine.
    ok: list[str] = []
    restored: list[str] = []
    quarantined: list[str] = []
    kept: dict[str, ArchiveEntry] = {}

    def copy_problem(e: ArchiveEntry, off) -> str | None:
        if not isinstance(off, int) or off < _DATA_START or off + e.nbytes > len(data):
            return f"offset {off!r} out of bounds"
        return _structurally_valid(e.kind, data[off : off + e.nbytes], e.nbytes)

    for e in entries.values():
        primary_problem = copy_problem(e, e.offset)
        live = [r for r in e.replicas if copy_problem(e, r) is None]
        dead = [r for r in e.replicas if r not in live]
        if dead:
            problems.append(f"{e.name}: dropped {len(dead)} corrupt replica(s) at {dead}")
        if primary_problem is None:
            e.replicas = live
            kept[e.name] = e
            ok.append(e.name)
        elif live:
            problems.append(
                f"{e.name}: primary at byte {e.offset} corrupt ({primary_problem}); "
                f"restored from replica at byte {live[0]}"
            )
            e.offset = live[0]
            e.replicas = live[1:]
            kept[e.name] = e
            restored.append(e.name)
        else:
            lo = e.offset if isinstance(e.offset, int) else 0
            payload = data[max(0, lo) : max(0, lo) + e.nbytes]
            _quarantine_note(
                qdir,
                e.name,
                payload,
                {
                    "entry": e.name,
                    "reason": primary_problem,
                    "offset": e.offset,
                    "nbytes": e.nbytes,
                    "source": path,
                },
            )
            problems.append(f"{e.name}: quarantined ({primary_problem})")
            quarantined.append(e.name)
    # 4. Commit the repaired index: fresh block at EOF, next footer slot.
    raw = _encode_index_doc(kept)
    crc = zlib.crc32(raw) & 0xFFFFFFFF
    with open(path, "r+b") as fh:
        off = len(data)
        fh.seek(off)
        fh.write(raw)
        fh.truncate()
        fh.flush()
        nseq = seq + 1
        fh.seek(_SLOT_OFFS[nseq % 2])
        fh.write(_pack_slot(nseq, off, len(raw), crc))
        fh.flush()
    return {
        "scanned": len(entries),
        "ok": sorted(ok),
        "restored": sorted(restored),
        "quarantined": sorted(quarantined),
        "index_recovered": index_recovered,
        "quarantine_dir": qdir if quarantined else None,
        "problems": problems,
    }


def _repair_dir(path: str, quarantine: str | None) -> dict:
    qdir = quarantine or os.path.join(path, "quarantine")
    idx_path = os.path.join(path, "index.json")
    problems: list[str] = []
    index_recovered = False
    entries: dict[str, ArchiveEntry] = {}
    try:
        with open(idx_path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
        if not isinstance(doc, dict) or doc.get("format") != "repro.archive-index":
            raise ValueError("not a repro archive index")
        entries = {e.name: e for e in (ArchiveEntry.from_json(d) for d in doc.get("entries", []))}
    except (OSError, ValueError, ArchiveError) as exc:
        # Rebuild best-effort from the .rpz files themselves (entry names
        # come back as filename stems; eb/meta of stream entries are gone).
        index_recovered = True
        problems.append(f"index.json unusable ({exc}); rebuilt from directory scan")
        for fn in sorted(os.listdir(path)):
            if not fn.endswith(".rpz"):
                continue
            full = os.path.join(path, fn)
            try:
                with open(full, "rb") as fh:
                    raw = fh.read()
                blob = CompressedBlob.from_bytes(raw)
            except (OSError, ContainerError) as exc2:
                problems.append(f"{fn}: unreadable during rebuild ({exc2})")
                continue
            name = fn[: -len(".rpz")]
            entries[name] = ArchiveEntry(
                name=name,
                kind="field",
                codec=codec_name(blob.codec),
                shape=blob.shape,
                dtype=np.dtype(blob.dtype).name,
                eb_abs=float(blob.error_bound),
                nbytes=len(raw),
                filename=fn,
            )
    ok: list[str] = []
    restored: list[str] = []
    quarantined: list[str] = []
    kept: dict[str, ArchiveEntry] = {}

    def copy_problem(e: ArchiveEntry, fn) -> str | None:
        if not fn:
            return "no filename"
        try:
            with open(os.path.join(path, fn), "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            return str(exc)
        return _structurally_valid(e.kind, raw, e.nbytes)

    for e in entries.values():
        primary_problem = copy_problem(e, e.filename)
        live = [r for r in e.replicas if copy_problem(e, r) is None]
        dead = [r for r in e.replicas if r not in live]
        if dead:
            problems.append(f"{e.name}: dropped {len(dead)} corrupt replica(s): {dead}")
        if primary_problem is None:
            e.replicas = live
            kept[e.name] = e
            ok.append(e.name)
        elif live:
            # Promote the replica file over the damaged primary in place.
            src = os.path.join(path, live[0])
            with open(src, "rb") as fh:
                payload = fh.read()
            with open(os.path.join(path, e.filename), "wb") as fh:
                fh.write(payload)
            problems.append(
                f"{e.name}: primary file {e.filename!r} corrupt ({primary_problem}); "
                f"restored from replica {live[0]!r}"
            )
            e.replicas = live[1:]
            kept[e.name] = e
            restored.append(e.name)
        else:
            os.makedirs(qdir, exist_ok=True)
            payload = b""
            src = os.path.join(path, e.filename) if e.filename else None
            if src and os.path.exists(src):
                with open(src, "rb") as fh:
                    payload = fh.read()
                os.remove(src)
            _quarantine_note(
                qdir,
                e.name,
                payload,
                {
                    "entry": e.name,
                    "reason": primary_problem,
                    "filename": e.filename,
                    "nbytes": e.nbytes,
                    "source": path,
                },
            )
            problems.append(f"{e.name}: quarantined ({primary_problem})")
            quarantined.append(e.name)
    tmp = idx_path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_encode_index_doc(kept))
    os.replace(tmp, idx_path)
    return {
        "scanned": len(entries),
        "ok": sorted(ok),
        "restored": sorted(restored),
        "quarantined": sorted(quarantined),
        "index_recovered": index_recovered,
        "quarantine_dir": qdir if quarantined else None,
        "problems": problems,
    }

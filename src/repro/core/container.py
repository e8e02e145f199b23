"""Self-describing binary container for compressed streams.

Every compressor in this library emits a :class:`CompressedBlob`: an ordered
set of named byte segments (anchor grid, outliers, encoded quantization codes,
Huffman tables, pipeline metadata, ...) plus a typed header.  The container is
what makes the compression *ratio* measurable honestly — ``blob.nbytes``
counts every byte a real file would contain, including headers and per-segment
CRCs, so none of the bookkeeping is hidden from the evaluation.

Zero-copy discipline: segments are *bytes-like* (``bytes`` or read-only
``memoryview``), never forced through a serialization round-trip.
:meth:`CompressedBlob.put_array` stores a read-only view over the array's own
buffer, :meth:`CompressedBlob.from_bytes` keeps per-segment views into the
input buffer (which therefore stays alive and, for mutable inputs like
``bytearray``, is *aliased* — mutate it and the blob sees the change), and
``nbytes``/``segment_sizes`` are computed arithmetically from the wire layout
without serializing anything.  The single full copy on the write path is the
final ``to_bytes`` join.

Wire layout (little-endian)::

    magic   4s   = b"RPZH"
    version u16
    codec   u16      registry id of the producing compressor
    ndim    u8
    dtype   u8       0=float32 1=float64
    flags   u16
    eb      f64      absolute error bound used
    dims    u64 * ndim
    nmeta   u16      number of (key,value) string pairs
    nseg    u16
    ---- nmeta times ----
    klen u16, key bytes, vlen u32, value bytes
    ---- nseg times ----
    namelen u16, name bytes, payload_len u64, crc32 u32, payload bytes
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..faults import mangle as _fault_mangle

__all__ = [
    "CompressedBlob",
    "ContainerError",
    "pack_tiled",
    "is_tiled",
    "read_blob",
    "tile_count",
    "tile_entries",
    "unpack_tile",
]

_MAGIC = b"RPZH"
# v4 appends a whole-stream CRC trailer: per-segment CRCs only protect
# payload bytes, so before v4 a flipped bit in the header, dims, meta table
# or a segment *descriptor* could silently change eb/shape/decode params.
_VERSION = 4
_TRAILER_FMT = "<I"
_DTYPES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPES_INV = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}


class ContainerError(ValueError):
    """Raised when a serialized stream is malformed or fails its CRC check."""


@dataclass
class CompressedBlob:
    """In-memory representation of one compressed dataset.

    Attributes
    ----------
    codec:
        Registry identifier of the producing compressor (see
        :mod:`repro.api.registry`).
    shape:
        Original array shape.
    dtype:
        Original array dtype (float32/float64).
    error_bound:
        The *absolute* error bound the stream guarantees.
    segments:
        Ordered mapping of segment name to raw payload bytes.
    meta:
        Free-form string metadata (auto-tune decisions, pipeline names, ...)
        that decompression needs; counted in :attr:`nbytes`.
    """

    codec: int
    shape: tuple[int, ...]
    dtype: np.dtype
    error_bound: float
    segments: dict[str, bytes] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)
    flags: int = 0

    # ------------------------------------------------------------------ sizes
    @property
    def n_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= int(d)
        return n

    @property
    def original_nbytes(self) -> int:
        return self.n_elements * np.dtype(self.dtype).itemsize

    @property
    def nbytes(self) -> int:
        """Full serialized size in bytes (the denominator of the CR).

        Computed arithmetically from the wire layout — no serialization
        happens here (``tests/core`` holds a spy asserting ``to_bytes`` is
        never called), so sizing a blob is O(#segments), not O(payload).
        """
        n = len(_MAGIC) + struct.calcsize("<HHBBHd") + 8 * len(self.shape)
        n += struct.calcsize("<HH")
        for k, v in self.meta.items():
            n += 2 + len(k.encode()) + 4 + len(v.encode())
        for name, payload in self.segments.items():
            n += 2 + len(name.encode()) + struct.calcsize("<QI") + len(payload)
        return n + struct.calcsize(_TRAILER_FMT)  # whole-stream CRC trailer

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / max(1, self.nbytes)

    @property
    def bitrate(self) -> float:
        """Average compressed bits per original element."""
        return 8.0 * self.nbytes / max(1, self.n_elements)

    def segment_sizes(self) -> dict[str, int]:
        """Per-segment payload sizes — the paper's anchor-overhead analysis."""
        return {k: len(v) for k, v in self.segments.items()}

    # ------------------------------------------------------------- array part
    def put_array(self, name: str, arr: np.ndarray) -> None:
        """Store an array segment; dtype/shape recorded in the segment name
        metadata so :meth:`get_array` can reconstruct it.

        Zero-copy: the segment is a read-only view over the array's own
        buffer, so the blob *aliases* ``arr`` — callers hand over ownership
        and must not mutate the array afterwards (the compressors all store
        freshly produced arrays here).  Non-contiguous input is the one case
        that still copies.
        """
        arr = np.ascontiguousarray(arr)
        self.meta[f"__seg_dtype_{name}"] = arr.dtype.str
        self.meta[f"__seg_shape_{name}"] = ",".join(str(d) for d in arr.shape)
        # Flat first: a memoryview of an empty multi-dimensional array
        # cannot be cast.
        self.segments[name] = memoryview(arr.reshape(-1)).toreadonly().cast("B")

    def get_array(self, name: str) -> np.ndarray:
        dt = np.dtype(self.meta[f"__seg_dtype_{name}"])
        shp_s = self.meta[f"__seg_shape_{name}"]
        shape = tuple(int(x) for x in shp_s.split(",")) if shp_s else ()
        return np.frombuffer(self.segments[name], dtype=dt).reshape(shape)

    # ---------------------------------------------------------- serialization
    def to_bytes(self) -> bytes:
        """Serialize to the wire layout (the single copy of the write path).

        Pieces are collected and joined once; bytes-like segments (including
        the read-only memoryviews of :meth:`put_array`/:meth:`from_bytes`)
        are consumed in place without intermediate materialization.
        """
        parts = [
            _MAGIC,
            struct.pack(
                "<HHBBHd",
                _VERSION,
                self.codec,
                len(self.shape),
                _DTYPES[np.dtype(self.dtype)],
                self.flags,
                float(self.error_bound),
            ),
        ]
        for d in self.shape:
            parts.append(struct.pack("<Q", int(d)))
        parts.append(struct.pack("<HH", len(self.meta), len(self.segments)))
        for k, v in self.meta.items():
            kb, vb = k.encode(), v.encode()
            parts.append(struct.pack("<H", len(kb)))
            parts.append(kb)
            parts.append(struct.pack("<I", len(vb)))
            parts.append(vb)
        for name, payload in self.segments.items():
            nb = name.encode()
            parts.append(struct.pack("<H", len(nb)))
            parts.append(nb)
            parts.append(struct.pack("<QI", len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
            parts.append(payload)
        # Whole-stream CRC trailer: covers every byte before it, including
        # the header/meta/descriptor bytes the per-segment CRCs do not.
        wire = b"".join(parts)
        wire += struct.pack(_TRAILER_FMT, zlib.crc32(wire) & 0xFFFFFFFF)
        # Chaos hook ("container.serialize"): bit rot injected on the wire
        # bytes; a pass-through no-op unless a repro.faults plan is armed.
        return _fault_mangle("container.serialize", wire)

    @classmethod
    def from_bytes(cls, buf) -> "CompressedBlob":
        """Parse a serialized container from any bytes-like object.

        Zero-copy: segment payloads are read-only memoryview slices into
        ``buf`` (which stays referenced for the blob's lifetime).  Passing a
        mutable buffer (``bytearray``) therefore aliases it — mutations after
        parsing are visible through the blob's segments.  CRCs are verified
        during the parse either way.
        """
        view = memoryview(buf).toreadonly().cast("B")
        if len(view) < 4 or bytes(view[:4]) != _MAGIC:
            raise ContainerError("bad magic — not a repro compressed stream")

        def take(off: int, n: int, what: str) -> tuple[bytes, int]:
            # Every read is bounds-checked so a truncated file surfaces as a
            # ContainerError, never a struct.error or a silently-short slice.
            # Messages carry the absolute byte offset of the failed read so a
            # corrupt file is diagnosable without a hex dump session.
            if n < 0 or off + n > len(view):
                raise ContainerError(
                    f"truncated container: {what} at byte {off} extends past end "
                    f"of data (need {n} bytes, have {max(0, len(view) - off)})"
                )
            return bytes(view[off : off + n]), off + n

        def unpack(fmt: str, off: int, what: str):
            raw, end = take(off, struct.calcsize(fmt), what)
            return struct.unpack(fmt, raw), end

        def decode(raw: bytes, what: str) -> str:
            try:
                return raw.decode()
            except UnicodeDecodeError:
                raise ContainerError(f"corrupt container: {what} is not valid UTF-8") from None

        (version, codec, ndim, dtc, flags, eb), off = unpack("<HHBBHd", 4, "header")
        if version != _VERSION:
            raise ContainerError(f"unsupported container version {version}")
        if dtc not in _DTYPES_INV:
            raise ContainerError(f"unknown dtype code {dtc}")
        dims = []
        for _ in range(ndim):
            (d,), off = unpack("<Q", off, "dims")
            dims.append(int(d))
        (nmeta, nseg), off = unpack("<HH", off, "section counts")
        meta: dict[str, str] = {}
        for _ in range(nmeta):
            (klen,), off = unpack("<H", off, "meta key length")
            kraw, off = take(off, klen, "meta key")
            (vlen,), off = unpack("<I", off, "meta value length")
            vraw, off = take(off, vlen, "meta value")
            meta[decode(kraw, "meta key")] = decode(vraw, "meta value")
        segments: dict[str, bytes] = {}
        for _ in range(nseg):
            (namelen,), off = unpack("<H", off, "segment name length")
            nraw, off = take(off, namelen, "segment name")
            name = decode(nraw, "segment name")
            (plen, crc), off = unpack("<QI", off, f"segment {name!r} header")
            # Zero-copy: bounds-checked view slice, no bytes() materialization.
            if plen < 0 or off + plen > len(view):
                raise ContainerError(
                    f"truncated container: segment {name!r} payload at byte {off} "
                    f"extends past end of data (need {plen} bytes, have {len(view) - off})"
                )
            payload = view[off : off + plen]
            off += plen
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                raise ContainerError(
                    f"CRC mismatch in segment {name!r} at byte {off - plen} ({plen} bytes)"
                )
            segments[name] = payload
        # Whole-stream CRC: per-segment CRCs protect payloads, this one
        # protects everything else (header, dims, meta, descriptors).
        (stream_crc,), end = unpack(_TRAILER_FMT, off, "stream CRC trailer")
        if (zlib.crc32(view[:off]) & 0xFFFFFFFF) != stream_crc:
            raise ContainerError(
                f"whole-stream CRC mismatch over bytes 0..{off} — header or "
                "metadata bytes rotted (segment payloads verified separately)"
            )
        return cls(
            codec=codec,
            shape=tuple(dims),
            dtype=_DTYPES_INV[dtc],
            error_bound=eb,
            segments=segments,
            meta=meta,
            flags=flags,
        )


def read_blob(path: str) -> CompressedBlob:
    """Read and parse one container file; both failures name ``path``.

    An unreadable file raises ``OSError`` (``cannot read <path>: <reason>``),
    a corrupt one :class:`ContainerError` (``<path>: <reason>``).
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OSError(exc.errno, f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return CompressedBlob.from_bytes(raw)
    except ContainerError as exc:
        raise ContainerError(f"{path}: {exc}") from None


# --------------------------------------------------------------------------
# Multi-tile frames.
#
# A tiled frame is a regular CompressedBlob whose payload is a sequence of
# independently decodable per-tile streams plus an index of per-tile offsets,
# so single tiles are random-accessible and the whole frame decompresses
# tile-parallel.  Layout inside the frame:
#
#   segment "tile_index" : int64 array (n_tiles, 2*ndim + 2) holding, per
#                          tile, origin[ndim], shape[ndim], offset, length
#   segment "tiles"      : concatenation of the per-tile serialized blobs
#
# The frame-level CRC machinery of CompressedBlob covers both segments, and
# frame.nbytes keeps counting every byte, index included, so tiled CRs stay
# honest.
# --------------------------------------------------------------------------

_TILED_FLAG = 1 << 0


def pack_tiled(
    codec: int,
    shape: tuple[int, ...],
    dtype,
    error_bound: float,
    tiles: "list[tuple[tuple[int, ...], tuple[int, ...]]]",
    payloads: "list[bytes]",
    meta: "dict[str, str] | None" = None,
) -> CompressedBlob:
    """Pack per-tile streams into one multi-tile frame.

    ``tiles`` holds ``(origin, tile_shape)`` pairs aligned with ``payloads``.
    """
    if len(tiles) != len(payloads):
        raise ValueError("tiles and payloads must align")
    if not tiles:
        raise ValueError("a tiled frame needs at least one tile")
    ndim = len(shape)
    index = np.zeros((len(tiles), 2 * ndim + 2), dtype=np.int64)
    offset = 0
    for row, ((origin, tshape), payload) in enumerate(zip(tiles, payloads)):
        if len(origin) != ndim or len(tshape) != ndim:
            raise ValueError("tile rank does not match frame rank")
        index[row, :ndim] = origin
        index[row, ndim : 2 * ndim] = tshape
        index[row, 2 * ndim] = offset
        index[row, 2 * ndim + 1] = len(payload)
        offset += len(payload)
    frame = CompressedBlob(
        codec=codec,
        shape=tuple(int(d) for d in shape),
        dtype=np.dtype(dtype),
        error_bound=float(error_bound),
        flags=_TILED_FLAG,
        meta=dict(meta or {}),
    )
    frame.meta["n_tiles"] = str(len(tiles))
    frame.put_array("tile_index", index)
    # Offsets were accumulated arithmetically above; one join materializes
    # the body instead of quadratic-ish bytearray growth over the payloads.
    frame.segments["tiles"] = b"".join(payloads)
    return frame


def is_tiled(blob: CompressedBlob) -> bool:
    return bool(blob.flags & _TILED_FLAG) and "tile_index" in blob.segments


def _tile_index(blob: CompressedBlob) -> np.ndarray:
    if not is_tiled(blob):
        raise ContainerError("blob is not a tiled frame")
    return blob.get_array("tile_index")


def tile_count(blob: CompressedBlob) -> int:
    return int(_tile_index(blob).shape[0])


def tile_entries(blob: CompressedBlob):
    """Yield ``(index, origin, tile_shape)`` for every tile in the frame."""
    idx = _tile_index(blob)
    ndim = len(blob.shape)
    for i in range(idx.shape[0]):
        origin = tuple(int(x) for x in idx[i, :ndim])
        tshape = tuple(int(x) for x in idx[i, ndim : 2 * ndim])
        yield i, origin, tshape


def unpack_tile(blob: CompressedBlob, i: int):
    """Random-access one tile: ``(origin, tile_shape, payload_bytes)``."""
    idx = _tile_index(blob)
    if not 0 <= i < idx.shape[0]:
        raise IndexError(f"tile {i} out of range (frame has {idx.shape[0]} tiles)")
    ndim = len(blob.shape)
    origin = tuple(int(x) for x in idx[i, :ndim])
    tshape = tuple(int(x) for x in idx[i, ndim : 2 * ndim])
    offset = int(idx[i, 2 * ndim])
    length = int(idx[i, 2 * ndim + 1])
    body = blob.segments["tiles"]
    if offset < 0 or length < 0 or offset + length > len(body):
        raise ContainerError(
            f"tile {i} at byte {offset} (+{length}) extends past the tiles "
            f"segment ({len(body)} bytes)"
        )
    return origin, tshape, body[offset : offset + length]

"""cuSZp2-style fixed-length encoding with a nonzero-block bitmap.

cuSZp2 [Huang et al., SC'24] encodes quantized 1-D offsets per 32-element
block: all-zero blocks cost one bitmap bit, nonzero blocks store a per-block
bit width plus ``32 x width`` packed sign-magnitude bits.  This module is the
faithful NumPy port used by the :mod:`repro.baselines.cuszp2` compressor and
by the FZ-GPU dictionary stage.

Layout::

    u64 n | u32 block | bitmap(ceil(nblocks/8)) | widths (nonzero blocks)
    packed payload bits
"""

from __future__ import annotations

import struct

import numpy as np

from .bitio import bits_to_bytes, bytes_to_bits

__all__ = ["FixedLengthCodec"]


class FixedLengthCodec:
    """Per-block fixed-width packing of signed 32-bit integers."""

    name = "fixedlen"

    def __init__(self, block: int = 32):
        if block <= 0:
            raise ValueError("block must be positive")
        self.block = block

    def encode_ints(self, values: np.ndarray) -> bytes:
        """Encode an ``int32`` array (quantization integers)."""
        v = np.asarray(values, dtype=np.int32).ravel()
        n = v.size
        nblocks = (n + self.block - 1) // self.block
        # Zigzag to unsigned so magnitude maps to bit width.
        u = ((v.astype(np.int64) << 1) ^ (v.astype(np.int64) >> 63)).astype(np.uint64)
        padded = np.zeros(nblocks * self.block, dtype=np.uint64)
        padded[:n] = u
        grid = padded.reshape(nblocks, self.block)
        maxv = grid.max(axis=1)
        nonzero = maxv > 0
        widths = np.zeros(nblocks, dtype=np.uint8)
        nzmax = maxv[nonzero]
        if nzmax.size:
            widths[nonzero] = np.floor(np.log2(nzmax.astype(np.float64))).astype(np.uint8) + 1
        # Pack nonzero blocks at their width.
        total_bits = int((widths[nonzero].astype(np.int64) * self.block).sum())
        bits = np.zeros(total_bits, dtype=np.uint8)
        nz_widths = widths[nonzero].astype(np.int64)
        starts = np.zeros(nz_widths.size, dtype=np.int64)
        if nz_widths.size > 1:
            np.cumsum(nz_widths[:-1] * self.block, out=starts[1:])
        nz_grid = grid[nonzero]
        for w in np.unique(nz_widths) if nz_widths.size else []:
            sel = nz_widths == w
            vals = nz_grid[sel]
            st = starts[sel]
            for b in range(int(w)):
                plane = ((vals >> np.uint64(w - 1 - b)) & np.uint64(1)).astype(np.uint8)
                pos = st[:, None] + np.arange(self.block, dtype=np.int64)[None, :] * int(w) + b
                bits[pos.ravel()] = plane.ravel()
        head = struct.pack("<QI", n, self.block)
        bitmap = np.packbits(nonzero.astype(np.uint8)).tobytes() if nblocks else b""
        return head + bitmap + widths[nonzero].tobytes() + bits_to_bytes(bits)

    def decode_ints(self, buf: bytes, count: int | None = None) -> np.ndarray:
        """Decode a stream of :meth:`encode_ints`; with ``count``, the stream
        must declare exactly that many values.

        Every size the header declares is checked against ``count`` and the
        bytes that back it before anything is allocated: only the ``n``
        outputs and the nonzero blocks (at least one payload bit per value)
        are, so a hostile header fails with ``ValueError``.
        """
        off = struct.calcsize("<QI")
        if len(buf) < off:
            raise ValueError(f"fixed-length stream of {len(buf)} bytes has no {off}-byte header")
        n, block = struct.unpack_from("<QI", buf, 0)
        if block == 0:
            raise ValueError("fixed-length stream declares a block of 0 values")
        if count is not None and n != count:
            raise ValueError(f"fixed-length stream declares {n} values, expected {count}")
        nblocks = (n + block - 1) // block
        bmap_len = (nblocks + 7) // 8
        nonzero = np.unpackbits(
            np.frombuffer(buf, dtype=np.uint8, count=bmap_len, offset=off), count=nblocks
        ).astype(bool)
        off += bmap_len
        n_nz = int(nonzero.sum())
        nz_widths = np.frombuffer(buf, dtype=np.uint8, count=n_nz, offset=off).astype(np.int64)
        off += n_nz
        if n_nz and not 1 <= int(nz_widths.min()) <= int(nz_widths.max()) <= 64:
            raise ValueError("fixed-length stream declares a nonzero block of width 0 or over 64")
        total_bits = int((nz_widths * block).sum())
        if total_bits > 8 * (len(buf) - off):
            raise ValueError(
                f"fixed-length stream declares {total_bits} payload bits but carries "
                f"{len(buf) - off} bytes"
            )
        bits = bytes_to_bits(buf[off:], total_bits).astype(np.uint64)
        starts = np.zeros(n_nz, dtype=np.int64)
        if n_nz > 1:
            np.cumsum(nz_widths[:-1] * block, out=starts[1:])
        nz_grid = np.zeros((n_nz, block), dtype=np.uint64)
        for w in np.unique(nz_widths) if n_nz else []:
            sel = nz_widths == w
            st = starts[sel]
            acc = np.zeros((int(sel.sum()), block), dtype=np.uint64)
            for b in range(int(w)):
                pos = st[:, None] + np.arange(block, dtype=np.int64)[None, :] * int(w) + b
                acc = (acc << np.uint64(1)) | bits[pos]
            nz_grid[sel] = acc
        u = np.zeros(n, dtype=np.uint64)
        if n_nz:
            at = np.flatnonzero(nonzero)[:, None] * block + np.arange(block)
            inside = at < n  # the last block's padding
            u[at[inside]] = nz_grid[inside]
        # Un-zigzag.
        v = (u >> np.uint64(1)).astype(np.int64) ^ -(u & np.uint64(1)).astype(np.int64)
        return v.astype(np.int32)

    # Byte-stream interface so the codec can sit in a lossless pipeline.
    def encode(self, buf: bytes) -> bytes:
        arr = np.frombuffer(buf, dtype=np.uint8)
        pad = (-arr.size) % 4
        padded = np.concatenate([arr, np.zeros(pad, dtype=np.uint8)])
        ints = padded.view(np.int32)
        return struct.pack("<B", pad) + self.encode_ints(ints)

    def decode(self, buf: bytes) -> bytes:
        (pad,) = struct.unpack_from("<B", buf, 0)
        ints = self.decode_ints(buf[1:])
        raw = ints.astype(np.int32).tobytes()
        return raw[: len(raw) - pad] if pad else raw

"""GPULZ surrogate: block-local LZ with vectorized word-level matching.

GPULZ [Zhang et al., ICS'23] runs LZSS independently per data block so every
thread block compresses its slice in shared memory.  A literal-faithful
byte-granular LZSS needs a sequential match loop; to keep the NumPy port
whole-array we coarsen the match unit to 8-byte words: within each block,
every word that repeats an *earlier* word in the same block is replaced by a
back-reference (u16 index), discovered with one vectorized hash/unique pass.
This captures the same redundancy class (repeated multi-byte patterns inside
a locality window) that LZSS exploits on quantization-code streams, at the
same metadata granularity (1 flag bit + 2-byte token).

Layout::

    u64 n | u32 block_words
    per block: u16 n_words | flag bitmap | u16 refs | literal words
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["GpuLzCodec"]


class GpuLzCodec:
    """Block-local word-match LZ codec (GPULZ stand-in).

    ``word`` sets the match granularity in bytes: 8 models GPULZ's multi-byte
    symbol matching; 4 approximates byte-LZ codecs without an entropy stage
    (the nvCOMP LZ4 surrogate in :mod:`repro.encoders.deflate`).
    """

    name = "gpulz"

    def __init__(self, block_words: int = 4096, word: int = 8):
        if word not in (4, 8):
            raise ValueError("word must be 4 or 8")
        self.block_words = block_words
        self.word = word

    def encode(self, buf: bytes) -> bytes:
        arr = np.frombuffer(buf, dtype=np.uint8)
        n = arr.size
        wdt = np.uint64 if self.word == 8 else np.uint32
        nwords = n // self.word
        tail = arr[nwords * self.word :].tobytes()
        words = arr[: nwords * self.word].view(wdt)
        out = bytearray(struct.pack("<QI", n, self.block_words))
        for start in range(0, nwords, self.block_words):
            blk = words[start : start + self.block_words]
            m = blk.size
            # First occurrence index of each word value within the block.
            _, first_idx, inv = np.unique(blk, return_index=True, return_inverse=True)
            ref = first_idx[inv]  # earliest position holding the same value
            is_match = ref < np.arange(m)
            flags = np.packbits(is_match.astype(np.uint8)).tobytes()
            refs = ref[is_match].astype(np.uint16).tobytes()
            lits = blk[~is_match].tobytes()
            out += struct.pack("<I", m) + flags + refs + lits
        out += tail
        return bytes(out)

    def decode(self, buf: bytes) -> bytes:
        """Invert :meth:`encode`.  Every size the stream declares is checked
        against the bytes that back it before it is allocated, so a hostile
        header or block fails with ``ValueError``."""
        off = struct.calcsize("<QI")
        if len(buf) < off:
            raise ValueError(f"GPULZ stream of {len(buf)} bytes has no {off}-byte header")
        n, block_words = struct.unpack_from("<QI", buf, 0)
        wdt = np.uint64 if self.word == 8 else np.uint32
        nwords = n // self.word
        # Each word costs at least a 2-byte reference.
        if nwords > (len(buf) - off) // 2:
            raise ValueError(
                f"GPULZ stream declares {n} bytes but carries {len(buf) - off} after its header"
            )
        words = np.zeros(nwords, dtype=wdt)
        pos = 0
        while pos < nwords:
            if off + 4 > len(buf):
                raise ValueError(f"GPULZ block header at byte {off} runs past the stream")
            (m,) = struct.unpack_from("<I", buf, off)
            off += 4
            if not 0 < m <= nwords - pos:
                raise ValueError(f"GPULZ block of {m} words at word {pos} of {nwords}")
            flag_len = (m + 7) // 8
            is_match = np.unpackbits(
                np.frombuffer(buf, dtype=np.uint8, count=flag_len, offset=off), count=m
            ).astype(bool)
            off += flag_len
            n_match = int(is_match.sum())
            refs = np.frombuffer(buf, dtype=np.uint16, count=n_match, offset=off).astype(np.int64)
            off += 2 * n_match
            n_lit = m - n_match
            lits = np.frombuffer(buf, dtype=wdt, count=n_lit, offset=off)
            off += self.word * n_lit
            if n_match and int(refs.max()) >= m:
                raise ValueError(f"GPULZ reference past its block of {m} words")
            blk = np.zeros(m, dtype=wdt)
            blk[~is_match] = lits
            # A reference targets the first occurrence of its value, which is
            # necessarily a literal, so one gather resolves all matches.
            blk[is_match] = blk[refs]
            words[pos : pos + m] = blk
            pos += m
        tail = buf[off:]
        if len(tail) != n - nwords * self.word:
            raise ValueError(f"GPULZ stream ends with {len(tail)} bytes, not a {n % self.word}-byte tail")
        return words.tobytes() + tail

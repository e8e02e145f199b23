"""Deflate-family surrogates for the proprietary nvCOMP batch codecs.

nvCOMP's GDeflate / LZ4 / Zstd appear in the paper only as Fig. 6 comparison
points, so each is approximated by ``zlib`` at a calibrated capability level:

* **Zstd** — full-window level-9 Deflate: the strongest match+entropy codec
  in the line-up (Fig. 6: highest ratio, unusably slow);
* **GDeflate** — level 6 with a reduced 4 KiB window, mirroring GDeflate's
  per-tile independent compression (tiles cap match reach);
* **LZ4** — LZ4 has *no entropy stage*, so any zlib setting (which always
  Huffman-codes) overstates it; the surrogate is instead the entropy-free
  block word matcher from :mod:`repro.encoders.gpulz` at 4-byte granularity,
  which lands LZ4 where the paper shows it (clearly below the LC pipelines).

Throughput positioning comes from the cost model, not from these wrappers.
Substitution recorded in DESIGN.md §4.
"""

from __future__ import annotations

import zlib

__all__ = ["DeflateCodec", "GDEFLATE", "LZ4_SURROGATE", "ZSTD_SURROGATE"]


class DeflateCodec:
    """zlib-backed byte codec with a named capability profile."""

    def __init__(self, name: str, level: int, wbits: int = 15, memlevel: int = 8):
        self.name = name
        self.level = level
        self.wbits = wbits
        self.memlevel = memlevel

    def encode(self, buf: bytes) -> bytes:
        co = zlib.compressobj(self.level, zlib.DEFLATED, -self.wbits, self.memlevel)
        return co.compress(buf) + co.flush()

    def decode(self, buf: bytes) -> bytes:
        try:
            return zlib.decompress(buf, -self.wbits)
        except zlib.error as exc:  # a corrupt stream is bad input, typed as such
            raise ValueError(f"{self.name} stream does not inflate: {exc}") from None


from .gpulz import GpuLzCodec as _GpuLzCodec


class _Lz4Surrogate(_GpuLzCodec):
    """Entropy-free 4-byte word matcher standing in for nvCOMP::LZ4."""

    name = "lz4"

    def __init__(self):
        super().__init__(block_words=4096, word=4)


GDEFLATE = DeflateCodec("gdeflate", 6, wbits=12)
LZ4_SURROGATE = _Lz4Surrogate()
ZSTD_SURROGATE = DeflateCodec("zstd", 9, wbits=15)

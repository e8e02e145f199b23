"""Chunk-interleaved byte-wise rANS entropy coder (nvCOMP::ANS surrogate).

nvCOMP ships a proprietary GPU ANS codec; the paper benchmarks it in Fig. 6 as
one of the candidate lossless stages.  This module provides an open
re-implementation with the same execution shape: the stream is split into
fixed-size chunks, each chunk carries an independent 32-bit rANS state, and
all chunk states advance in lockstep — the NumPy axis plays the role of the
GPU warp lanes.

Coding parameters follow the classic ``ryg_rans`` layout: 12-bit normalized
frequencies (``M = 4096``), byte-wise renormalization with lower bound
``L = 1 << 23``.  Encoding walks each chunk backwards (rANS is LIFO); the
emitted bytes are stored reversed so decode is a forward scan.

Stream layout::

    u64 n | u32 chunk_size | 256 x u16 normalized freqs
    n_chunks x u32 final states
    n_chunks x u64 per-chunk payload byte offsets (exclusive prefix)
    payload
"""

from __future__ import annotations

import struct

import numpy as np

from ..core.cache import CountedTableCache

__all__ = ["RansCodec", "normalize_frequencies", "table_cache_stats", "reset_table_cache"]

PROB_BITS = 12
PROB_SCALE = 1 << PROB_BITS
RANS_L = np.uint32(1 << 23)

#: memoized coding tables, mirroring the Huffman table cache: normalization
#: is a Python settle loop and the decode slot table is a 4096-element
#: expansion — both pure functions of the histogram bytes, so repeated
#: fields in a batch or repeated server requests skip them.  Counters feed the
#: server's GET /stats; key tuples carry a kind tag.
_TABLES = CountedTableCache(capacity=256)


def table_cache_stats() -> dict:
    """Hit/miss counters of the memoized rANS tables (see GET /stats)."""
    return _TABLES.stats()


def reset_table_cache() -> None:
    """Drop all memoized tables and zero the counters (test isolation)."""
    _TABLES.clear()


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def normalize_frequencies(counts: np.ndarray, scale: int = PROB_SCALE) -> np.ndarray:
    """Scale a histogram to sum exactly to ``scale`` with every present symbol
    keeping a nonzero slot (the rANS invariant).

    Memoized by histogram digest; returns a shared read-only array.
    """
    counts = np.asarray(counts, dtype=np.int64)
    key = ("norm", counts.tobytes(), int(scale))
    cached = _TABLES.lookup(key)
    if cached is not None:
        return cached
    return _TABLES.store(key, _readonly(_normalize_uncached(counts, scale)))


def _normalize_uncached(counts: np.ndarray, scale: int) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        raise ValueError("cannot normalize an empty histogram")
    freqs = np.where(counts > 0, np.maximum(1, (counts * scale) // total), 0).astype(np.int64)
    diff = scale - int(freqs.sum())
    # Settle the remainder on the most frequent symbols, never dropping a
    # symbol to zero.
    order = np.argsort(-counts, kind="stable")
    i = 0
    while diff != 0:
        s = order[i % order.size]
        if counts[s] > 0:
            step = 1 if diff > 0 else -1
            if freqs[s] + step >= 1:
                freqs[s] += step
                diff -= step
        i += 1
        if i > 16 * scale:  # pragma: no cover - defensive
            raise RuntimeError("frequency normalization failed to converge")
    return freqs.astype(np.uint16)


class RansCodec:
    """Static-table rANS over byte symbols with chunk-parallel lanes."""

    def __init__(self, chunk_size: int = 4096):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------ enc
    def encode(self, buf: bytes) -> bytes:
        arr = np.frombuffer(buf, dtype=np.uint8)
        n = arr.size
        if n == 0:
            return struct.pack("<QI", 0, self.chunk_size)
        counts = np.bincount(arr, minlength=256)
        freqs = normalize_frequencies(counts).astype(np.uint32)
        cdf = np.zeros(257, dtype=np.uint32)
        np.cumsum(freqs, out=cdf[1:])

        nchunks = (n + self.chunk_size - 1) // self.chunk_size
        padded = np.zeros(nchunks * self.chunk_size, dtype=np.uint8)
        padded[:n] = arr
        grid = padded.reshape(nchunks, self.chunk_size)
        counts_per_chunk = np.full(nchunks, self.chunk_size, dtype=np.int64)
        counts_per_chunk[-1] = n - (nchunks - 1) * self.chunk_size

        state = np.full(nchunks, RANS_L, dtype=np.uint32)
        # Worst case ~2 bytes/symbol of emission per lane.
        out_bytes = np.zeros((nchunks, 2 * self.chunk_size + 8), dtype=np.uint8)
        out_n = np.zeros(nchunks, dtype=np.int64)

        for it in range(self.chunk_size - 1, -1, -1):
            active = it < counts_per_chunk
            syms = grid[:, it].astype(np.int64)
            f = freqs[syms]
            c = cdf[syms]
            # Renormalize: emit low bytes while the state is too large for the
            # upcoming scaling step.  x_max = ((L >> PROB_BITS) << 8) * f
            x_max = ((np.uint64(1 << 23) >> np.uint64(PROB_BITS)) << np.uint64(8)).astype(np.uint64) * f.astype(np.uint64)
            while True:
                need = active & (state.astype(np.uint64) >= x_max)
                if not need.any():
                    break
                idx = np.flatnonzero(need)
                out_bytes[idx, out_n[idx]] = (state[idx] & np.uint32(0xFF)).astype(np.uint8)
                out_n[idx] += 1
                state[idx] >>= np.uint32(8)
            # x' = (x // f) * M + (x mod f) + cdf.  Padding lanes may carry a
            # zero frequency; clamp to avoid a division trap (their result is
            # discarded by the `active` select below).
            f_safe = np.maximum(f, np.uint32(1))
            q = state // f_safe
            r = state - q * f_safe
            new_state = (q << np.uint32(PROB_BITS)) + r + c
            state = np.where(active, new_state, state).astype(np.uint32)

        # Reverse per-lane emission so decode is forward.
        offsets = np.zeros(nchunks + 1, dtype=np.int64)
        np.cumsum(out_n, out=offsets[1:])
        payload = np.zeros(int(offsets[-1]), dtype=np.uint8)
        for ci in range(nchunks):
            k = int(out_n[ci])
            payload[offsets[ci] : offsets[ci + 1]] = out_bytes[ci, :k][::-1]

        head = struct.pack("<QI", n, self.chunk_size)
        return (
            head
            + freqs.astype(np.uint16).tobytes()
            + state.tobytes()
            + offsets[:-1].astype(np.uint64).tobytes()
            + payload.tobytes()
        )

    @staticmethod
    def _decode_tables(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CDF + slot->symbol lookup for one frequency table (memoized)."""
        key = ("decode", np.ascontiguousarray(freqs).tobytes())
        cached = _TABLES.lookup(key)
        if cached is not None:
            return cached
        cdf = np.zeros(257, dtype=np.uint32)
        np.cumsum(freqs, out=cdf[1:])
        slot2sym = np.repeat(np.arange(256, dtype=np.uint8), freqs.astype(np.int64))
        return _TABLES.store(key, (_readonly(cdf), _readonly(slot2sym)))

    # ------------------------------------------------------------------ dec
    def decode(self, buf: bytes) -> bytes:
        off = struct.calcsize("<QI")
        if len(buf) < off:
            raise ValueError(f"rANS stream of {len(buf)} bytes has no {off}-byte header")
        n, chunk_size = struct.unpack_from("<QI", buf, 0)
        if n == 0:
            return b""
        if chunk_size == 0:
            raise ValueError("rANS header declares chunk_size 0")
        freqs = np.frombuffer(buf, dtype=np.uint16, count=256, offset=off).astype(np.uint32)
        off += 512
        if freqs.sum() != PROB_SCALE:
            raise ValueError(f"rANS frequencies sum to {freqs.sum()}, not the {PROB_SCALE} slots")
        nchunks = (n + chunk_size - 1) // chunk_size
        state = np.frombuffer(buf, dtype=np.uint32, count=nchunks, offset=off).copy()
        off += 4 * nchunks
        offsets = np.frombuffer(buf, dtype=np.uint64, count=nchunks, offset=off)
        off += 8 * nchunks
        payload = np.frombuffer(buf, dtype=np.uint8, offset=off)
        past = np.flatnonzero(offsets > payload.size)
        if past.size:
            raise ValueError(
                f"rANS lane {past[0]} starts at byte {offsets[past[0]]}, "
                f"past the end of its {payload.size}-byte payload"
            )
        offsets = offsets.astype(np.int64)

        cdf, slot2sym = self._decode_tables(freqs)

        counts_per_chunk = np.full(nchunks, chunk_size, dtype=np.int64)
        counts_per_chunk[-1] = n - (nchunks - 1) * chunk_size
        cursor = offsets.copy()
        # A lane never holds more than n symbols: iterations past that are
        # inactive in every lane, whatever chunk_size the header declares.
        width = min(chunk_size, n)
        out = np.zeros((nchunks, width), dtype=np.uint8)
        mask_slot = np.uint32(PROB_SCALE - 1)
        padded = np.zeros(payload.size + 1, dtype=np.uint8)
        padded[: payload.size] = payload

        for it in range(width):
            active = it < counts_per_chunk
            slot = state & mask_slot
            syms = slot2sym[slot]
            out[:, it] = np.where(active, syms, 0)
            f = freqs[syms]
            c = cdf[syms]
            new_state = f * (state >> np.uint32(PROB_BITS)) + slot - c
            state = np.where(active, new_state, state).astype(np.uint32)
            # Renormalize: pull bytes while below L.
            while True:
                need = active & (state < RANS_L)
                if not need.any():
                    break
                idx = np.flatnonzero(need)
                try:
                    pulled = padded[cursor[idx]]
                except IndexError:  # a lane that starts in range can still run off the end
                    raise ValueError("rANS lane reads past the end of its payload") from None
                state[idx] = (state[idx] << np.uint32(8)) | pulled.astype(np.uint32)
                cursor[idx] += 1
        return out.reshape(-1)[:n].tobytes()

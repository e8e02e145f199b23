"""Canonical Huffman codec with chunk-parallel encode/decode (paper §5.2).

cuSZ's GPU Huffman stage is *coarse-grained*: the symbol stream is cut into
fixed-size chunks, every thread block encodes/decodes one chunk, and a table
of per-chunk bit offsets makes decode embarrassingly parallel [Rivera et al.,
IPDPS'22].  This implementation reproduces that execution shape in NumPy:

* **encode** — runs in blocks of :data:`ENCODE_BLOCK` symbols, so every
  temporary stays cache-sized.  Per block, one gather from a table over
  symbol *pairs* (indexed by the ``uint16`` of two bytes) yields merged
  codes, and pairs merge again into fields of at most 64 bits: 4 codes
  when every code has at most 16 bits, else 2.  A
  :class:`~repro.encoders.bitio.BitfieldWriter` ORs the fields into
  big-endian 64-bit words, and each chunk's bit offset comes from the
  field prefix sums;
* **decode** — one symbol is decoded *per lane per iteration*, across all
  lanes simultaneously, like the SM-parallel decoder.  A long stream has
  one lane per chunk and iterates once per symbol of a chunk, one window
  peek and one gather from a ``symbol | length << 8`` LUT per step.  A
  short one has few chunks, so that loop would run thousands of times over
  a handful of lanes: it first gathers the LUT entry at every payload bit,
  finds the start of every :data:`SUBCHUNK`-symbol sub-chunk from the code
  boundaries those entries give, then runs SUBCHUNK iterations over all
  sub-chunks, each one gather from the per-bit table.

Code lengths are limited to :data:`MAX_CODE_LEN` bits with the zlib-style
Kraft rebalancing so the decoder can use a flat 2^L lookup table.

Stream layout::

    u64 n_symbols | u32 chunk_size | u64 payload_bits
    256 x u8 code lengths
    (n_chunks-1) x u64 chunk bit offsets   (chunk 0 starts at 0)
    payload bytes
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from ..core.cache import CountedTableCache
from .bitio import BitfieldWriter, extract_bit_windows, pad_stream_for_windows

__all__ = [
    "HuffmanCodec",
    "code_lengths_from_frequencies",
    "canonical_codes",
    "table_cache_stats",
    "reset_table_cache",
]

MAX_CODE_LEN = 16
DEFAULT_CHUNK = 4096
#: symbols per lane of the sub-chunked decode (a power of two)
SUBCHUNK = 16
#: payload bits per lockstep iteration saved below which sub-chunking pays
SUBCHUNK_BREAK_EVEN = 1 << 10
#: payload bytes (8 bit positions each) per block of the jump-table build
_JUMP_BLOCK = 1 << 13
#: symbols per block of the encoder (a multiple of every field group size)
ENCODE_BLOCK = 1 << 16


# --------------------------------------------------------------------------
# Memoized table construction.
#
# Building the tree, canonical codes and the flat decode LUT is pure Python
# over 256 symbols — trivial against one 16M-point field, but the server's
# micro-batcher and the batch runner push *many* fields with recurring
# histograms (tiles of one field, timesteps of one variable), where table
# construction becomes a fixed per-call tax.  All three derivations are pure
# functions of their byte-level inputs, so they memoize by digest: frequency
# tables by the histogram bytes, code/LUT tables by the length-table bytes.
# Counters are exposed (``table_cache_stats``) and surfaced by the server's
# GET /stats so cache behaviour is observable from the outside.
# --------------------------------------------------------------------------

#: one shared table cache — key tuples carry a kind tag, so length tables,
#: canonical codes and decode LUTs coexist without colliding
_TABLES = CountedTableCache(capacity=256)


def table_cache_stats() -> dict:
    """Hit/miss counters of the memoized Huffman tables (see GET /stats)."""
    return _TABLES.stats()


def reset_table_cache() -> None:
    """Drop all memoized tables and zero the counters (test isolation)."""
    _TABLES.clear()


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def code_lengths_from_frequencies(freq: np.ndarray, max_len: int = MAX_CODE_LEN) -> np.ndarray:
    """Optimal prefix-code lengths for ``freq`` (size-256), length-limited.

    Builds the Huffman tree with a heap, then applies the classic Kraft-sum
    rebalancing when any code exceeds ``max_len`` (demote overlong codes to
    ``max_len``, then lengthen the cheapest shorter codes until the Kraft sum
    returns to 1).  Results are memoized by histogram digest (read-only
    arrays); identical histograms skip the tree entirely.
    """
    freq = np.asarray(freq, dtype=np.int64)
    key = ("lengths", freq.tobytes(), int(max_len))
    cached = _TABLES.lookup(key)
    if cached is not None:
        return cached
    return _TABLES.store(key, _readonly(_code_lengths_uncached(freq, max_len)))


def _code_lengths_uncached(freq: np.ndarray, max_len: int) -> np.ndarray:
    symbols = np.flatnonzero(freq)
    lengths = np.zeros(freq.size, dtype=np.uint8)
    if symbols.size == 0:
        return lengths
    if symbols.size == 1:
        lengths[symbols[0]] = 1
        return lengths
    # Heap keys are (weight, tiebreak) packed as weight << 10 | tiebreak,
    # which orders them exactly as the tuples do.  Leaves tie-break by
    # symbol; merged nodes by creation order from 256, which is also their
    # node id.  Each merge records the parent of its two children.
    heap = ((freq[symbols] << 10) | symbols).tolist()
    heapq.heapify(heap)
    parent = [0] * (freq.size + symbols.size - 1)
    node = freq.size
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heap[0]
        parent[a & 1023] = parent[b & 1023] = node
        heapq.heapreplace(heap, ((a >> 10) + (b >> 10)) << 10 | node)
        node += 1
    # Depths from the root (the last node) down, then the leaves'.
    up = [0] * node
    for i in range(node - 2, freq.size - 1, -1):
        up[i] = up[parent[i]] + 1
    depth = np.zeros(freq.size, dtype=np.int64)
    depth[symbols] = [up[parent[s]] + 1 for s in symbols.tolist()]
    if depth.max() > max_len:
        depth = np.minimum(depth, max_len)
        # Kraft sum in units of 2^-max_len.
        unit = 1 << max_len
        kraft = int((np.where(depth > 0, unit >> depth, 0)).sum())
        # Lengthen the shortest over-privileged codes until the sum fits.
        while kraft > unit:
            candidates = np.flatnonzero((depth > 0) & (depth < max_len))
            # Taking the currently longest (< max) code loses the least.
            s = candidates[np.argmax(depth[candidates])]
            kraft -= unit >> int(depth[s])
            depth[s] += 1
            kraft += unit >> int(depth[s])
    return depth.astype(np.uint8)


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values for the given lengths (sorted by length, symbol).

    Memoized by the length-table bytes; returns a shared read-only array.
    """
    lengths = np.asarray(lengths, dtype=np.uint8)
    key = ("codes", lengths.tobytes())
    cached = _TABLES.lookup(key)
    if cached is not None:
        return cached
    return _TABLES.store(key, _readonly(_canonical_codes_uncached(lengths)))


def _canonical_codes_uncached(lengths: np.ndarray) -> np.ndarray:
    codes = np.zeros(lengths.size, dtype=np.uint64)
    order = np.lexsort((np.arange(lengths.size), lengths))
    order = order[lengths[order] > 0]
    code = 0
    prev_len = 0
    for s in order:
        l = int(lengths[s])
        code <<= l - prev_len
        codes[s] = code
        code += 1
        prev_len = l
    return codes


def _histogram(arr: np.ndarray) -> np.ndarray:
    """Byte counts of ``arr``, from a 65,536-bin count of its ``uint16``
    pairs folded into 256 bins: ``bincount`` converts its input to
    ``intp``, and half as many elements halve that pass."""
    even = arr.size & ~1
    pairs = np.bincount(arr[:even].view("<u2"), minlength=1 << 16).reshape(256, 256)
    freq = pairs.sum(axis=0) + pairs.sum(axis=1)
    if even < arr.size:
        freq[arr[-1]] += 1
    return freq


#: the length of a pair-table entry sits above bit 56, its code below
_PAIR_SHIFT = np.uint64(56)
_PAIR_CODE = np.uint64((1 << 56) - 1)


def _pair_table(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Encode table over symbol pairs, indexed by the little-endian ``uint16``
    of two consecutive bytes ``a, b`` (``a | b << 8``).

    Entry: the merged code ``code[a] << len[b] | code[b]`` (at most 48 bits)
    plus ``(len[a] + len[b]) << 56``.  65,536 ``uint64`` entries (512 KB),
    built per call: row ``b`` is the row of ``code[a] << len[b] + len[a] <<
    56`` for its length (one of 25), plus ``code[b] + len[b] << 56``.
    """
    top = lengths.astype(np.uint64) << _PAIR_SHIFT
    shifted = np.left_shift(codes, np.arange(25, dtype=np.uint64)[:, None])
    shifted += top
    pairs = np.take(shifted, lengths, axis=0)  # [b, a]
    pairs += (codes | top)[:, None]
    return pairs.reshape(-1)


def _fields(
    x: np.ndarray, group: int, codes: np.ndarray, lengths: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merged codes of ``group`` consecutive symbols of ``x``: ``(values
    uint64, lengths int64)``, one field per group.  ``x.size`` is a
    multiple of ``group``; groups of 2 and 4 gather from the pair table."""
    if group == 1:
        return np.take(codes, x), np.take(lengths, x).astype(np.int64)
    pair = np.take(pairs, x.view("<u2"))
    if group == 2:
        return pair & _PAIR_CODE, (pair >> _PAIR_SHIFT).view(np.int64)
    a, b = pair[0::2], pair[1::2]
    width = b >> _PAIR_SHIFT
    values = (a & _PAIR_CODE) << width
    values |= b & _PAIR_CODE
    width += a >> _PAIR_SHIFT
    return values, width.view(np.int64)


class HuffmanCodec:
    """Byte-symbol canonical Huffman with chunked parallel decode."""

    def __init__(self, chunk_size: int = DEFAULT_CHUNK, max_len: int = MAX_CODE_LEN):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if not 1 <= max_len <= 24:
            raise ValueError("max_len must be in [1, 24]")
        self.chunk_size = chunk_size
        self.max_len = max_len

    # ------------------------------------------------------------------ enc
    def encode(self, buf: bytes) -> bytes:
        arr = np.frombuffer(buf, dtype=np.uint8)
        n = arr.size
        if n == 0:
            return struct.pack("<QIQ", 0, self.chunk_size, 0) + bytes(256)
        freq = _histogram(arr)
        lengths = code_lengths_from_frequencies(freq, self.max_len)
        nbits = int(freq @ lengths.astype(np.int64))
        codes = canonical_codes(lengths)
        pairs = _pair_table(codes, lengths)
        # Merge consecutive codes into fields of at most 64 bits.
        group = 4 if int(lengths.max()) <= 16 else 2
        body = n - n % group
        blocks = [(lo, min(lo + ENCODE_BLOCK, body), group) for lo in range(0, body, ENCODE_BLOCK)]
        if body < n:
            blocks.append((body, n, 1))  # the last n % group codes, one field each
        writer = BitfieldWriter(nbits)
        cs = self.chunk_size
        offsets = np.zeros(-(-n // cs), dtype=np.uint64)
        for lo, hi, g in blocks:
            x = arr[lo:hi]
            values, widths = _fields(x, g, codes, lengths, pairs)
            ends = writer.write(values, widths)
            # A chunk starts where the field holding its first symbol
            # starts, after the codes that precede that symbol in the field.
            chunks = np.arange(-(-lo // cs), -(-hi // cs))
            at = chunks * cs - lo
            field = at // g
            lead = at - field * g
            start = ends[field] - widths[field]
            for j in range(1, g):
                has = lead >= j
                start[has] += lengths[x[at[has] - j]]
            offsets[chunks] = start
        header = struct.pack("<QIQ", n, cs, nbits)
        return header + lengths.tobytes() + offsets[1:].tobytes() + writer.tobytes()

    # ------------------------------------------------------------------ dec
    def decode(self, buf: bytes) -> bytes:
        n, chunk_size, nbits = struct.unpack_from("<QIQ", buf, 0)
        off = struct.calcsize("<QIQ")
        lengths = np.frombuffer(buf, dtype=np.uint8, count=256, offset=off)
        off += 256
        if n == 0:
            return b""
        if chunk_size == 0:
            raise ValueError("Huffman header has a zero chunk size")
        total_bits = int(nbits)
        if n > total_bits:  # every code is at least one bit long
            raise ValueError(f"Huffman header claims {n} symbols in {total_bits} bits")
        nchunks = (n + chunk_size - 1) // chunk_size
        chunk_size = min(chunk_size, n)  # a lone chunk may be short
        offsets64 = np.frombuffer(buf, dtype=np.uint64, count=nchunks - 1, offset=off)
        off += offsets64.nbytes
        payload = np.frombuffer(buf, dtype=np.uint8, offset=off)
        if total_bits > 8 * payload.size:
            raise ValueError(
                f"Huffman header claims {total_bits} payload bits, "
                f"but the payload holds {8 * payload.size}"
            )
        if offsets64.size and (
            int(offsets64.max()) > total_bits or bool((offsets64[1:] < offsets64[:-1]).any())
        ):
            raise ValueError(
                f"Huffman chunk offsets must be non-decreasing and at most {total_bits}"
            )

        L = int(lengths.max())
        if not 1 <= L <= 24:
            raise ValueError(f"Huffman code lengths must be in [1, 24], got a maximum of {L}")
        lut = self._build_lut(lengths, L)
        # Pad the payload once: the window peek runs per decoded symbol, and
        # the defensive per-call copy used to dominate the whole decode.
        padded = pad_stream_for_windows(payload)
        pos = np.zeros(nchunks, dtype=np.int64)
        pos[1:] = offsets64
        # Sub-chunking saves chunk_size - SUBCHUNK lockstep iterations of
        # ~15 us and costs a jump table of ~13 ns per payload bit (2-vCPU
        # Xeon VM, numpy 2.4).  Forcing each path on the same streams, it
        # broke even at ~1.2k bits per saved iteration with 4096-symbol
        # chunks and ~1k with 64-symbol ones.  The cut-over, 1k, is 4.2M
        # bits (~1 bit/symbol at 1,000 chunks, ~5 at 200) for the default
        # chunk; the chunk count alone cannot place it.
        if total_bits < (chunk_size - SUBCHUNK) * SUBCHUNK_BREAK_EVEN:
            tab, pos = _subchunk_table(padded, pos, total_bits, L, lut, -(-chunk_size // SUBCHUNK))
            out = np.empty((pos.size, SUBCHUNK), dtype=np.uint8)
            # One table entry per step: the entry at every payload bit
            # already holds the symbol and the (clamped) code length.
            for it in range(SUBCHUNK):
                v = np.take(tab, pos)
                out[:, it] = v
                pos += v >> 8
        else:
            out = np.empty((nchunks, chunk_size), dtype=np.uint8)
            for it in range(chunk_size):
                v = lut[extract_bit_windows(padded, pos, L, prepadded=True)]
                out[:, it] = v
                pos += v >> 8
                np.minimum(pos, total_bits, out=pos)
        # Lanes that run past their (sub-)chunk decode harmless padding or
        # their neighbour's symbols, which are sliced away here.
        return out.reshape(nchunks, -1)[:, :chunk_size].reshape(-1)[:n].tobytes()

    @staticmethod
    def _build_lut(lengths: np.ndarray, L: int) -> np.ndarray:
        """Flat 2^L decode table: every L-bit window -> ``symbol | length << 8``.

        One ``uint16`` entry, so the decoder gathers once per symbol.
        Memoized by ``(length-table bytes, L)`` — repeated decodes of streams
        sharing one code table (tiles, timesteps) skip the 2^L fill.
        """
        lengths = np.asarray(lengths, dtype=np.uint8)
        key = ("lut", lengths.tobytes(), int(L))
        cached = _TABLES.lookup(key)
        if cached is not None:
            return cached
        codes = canonical_codes(lengths)
        lut = np.full(1 << L, 1 << 8, dtype=np.uint16)  # len>=1 guarantees progress
        for s in range(256):
            l = int(lengths[s])
            if l == 0:
                continue
            base = int(codes[s]) << (L - l)
            lut[base : base + (1 << (L - l))] = s | l << 8
        return _TABLES.store(key, _readonly(lut))


def _subchunk_table(
    padded: np.ndarray, chunk_starts: np.ndarray, total_bits: int, L: int,
    lut: np.ndarray, per_chunk: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode table at every payload bit, and every sub-chunk's start.

    ``tab[p]`` is the LUT entry of the L-bit window at bit ``p`` (symbol in
    the low byte, code length in the high byte), its length clamped so that
    ``p + length <= total_bits``.  The lockstep loop then decodes a symbol
    with one gather.  ``jump[p] = p + length`` is the start of the next
    code; it is squared ``log2(SUBCHUNK)`` times into a SUBCHUNK-symbol
    jump that is walked ``per_chunk`` times from each chunk's stored
    offset.  Both are built in fixed-size blocks; together they take 6
    bytes per payload bit (int32 jump, uint16 entry).  Returns ``(tab,
    starts)``, the starts chunk-major in the table's index dtype.
    """
    dtype = np.int32 if total_bits < 1 << 30 else np.int64  # headroom for pos + L
    # The big-endian word at every byte offset, as an overlapping strided
    # view of the padded payload: the window at bit 8*b + k is word b
    # shifted left by k, keeping its top L bits.
    nbytes = total_bits // 8 + 1
    words = np.ndarray((nbytes,), dtype=">u4", buffer=padded, strides=(1,))
    shifts = np.arange(8, dtype=np.uint32)
    tab = np.empty(8 * nbytes, dtype=np.uint16)
    jump = np.empty(8 * nbytes, dtype=dtype)
    for lo in range(0, nbytes, _JUMP_BLOCK):
        win = words[lo : lo + _JUMP_BLOCK].astype(np.uint32)[:, None] << shifts
        win >>= np.uint32(32 - L)
        entry = tab[8 * lo : 8 * lo + win.size]
        np.take(lut, win.reshape(-1), out=entry)
        at = np.arange(8 * lo, 8 * lo + entry.size, dtype=dtype)
        np.add(at, entry >> 8, out=jump[8 * lo : 8 * lo + entry.size])
    # Only a window starting within L bits of the end can reach past it
    # (codes are at most L bits): clamp those jumps, and their lengths too,
    # so a lane never steps past total_bits (the entry there, a zero-length
    # step, is where finished lanes park).
    near = max(0, total_bits - L)
    np.minimum(jump[near:], total_bits, out=jump[near:])
    tail = slice(near, total_bits + 1)
    tab[tail] = (tab[tail] & 0xFF) | ((jump[tail] - np.arange(near, total_bits + 1)) << 8)
    # Square in place, block by block upwards.  No jump points backwards,
    # except past total_bits to that fixed point, so every entry a block
    # reads is still unsquared, inside the block (gathered before the
    # write) or the fixed point: one table, no second copy.
    block = 8 * _JUMP_BLOCK
    for _ in range(SUBCHUNK.bit_length() - 1):
        for lo in range(0, jump.size, block):
            # np.take gathers int32 ~2x faster than fancy indexing
            jump[lo : lo + block] = np.take(jump, jump[lo : lo + block])
    starts = np.empty((chunk_starts.size, per_chunk), dtype=dtype)
    p = chunk_starts.astype(dtype)
    for j in range(per_chunk):
        starts[:, j] = p
        p = jump[p]
    return tab, starts.reshape(-1)

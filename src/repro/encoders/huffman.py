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
* **decode** — reads the payload a byte per step.  The states of the
  decoder are the internal nodes of the code tree (at most 255 for a
  complete code), and a memoized table over ``(state, nibble)`` gives the
  next state, the codes completed and their symbols; each decode composes
  it into byte rows.  The payload is cut into :data:`LANE`-byte lanes that
  all step from the root at once.  A decode that starts mid-code usually
  falls into step with the true one within a few codes, so fix-up rounds
  re-run only the lanes whose predecessor ended in a different state, until
  none does.  Codes that never fall into step (every code 3 bits long, say)
  stop the rounds early, and the chunks still out of step are walked
  exactly from their stored bit offsets: no decode steps more bytes in
  sequence than one chunk holds.  The symbols are written at the prefix sum
  of the per-byte code counts.

Code lengths are limited to :data:`MAX_CODE_LEN` bits by default (at most
24) with the zlib-style Kraft rebalancing.

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
from .bitio import BitfieldWriter
from .bitio import extract_bit_windows  # noqa: F401  (perfbench/spans.py counts its calls)

__all__ = [
    "HuffmanCodec",
    "code_lengths_from_frequencies",
    "canonical_codes",
    "table_cache_stats",
    "reset_table_cache",
]

MAX_CODE_LEN = 16
DEFAULT_CHUNK = 4096
#: symbols per block of the encoder (a multiple of every field group size)
ENCODE_BLOCK = 1 << 16
#: symbol pairs per ``bincount`` of the encoder's histogram
_HISTOGRAM_BLOCK = 1 << 17


# --------------------------------------------------------------------------
# Memoized table construction.
#
# Building the tree, canonical codes and the decode state tables is Python
# over 256 symbols — trivial against one 16M-point field, but the server
# and the batch runner push *many* fields with recurring
# histograms (tiles of one field, timesteps of one variable), where table
# construction becomes a fixed per-call tax.  All three derivations are pure
# functions of their byte-level inputs, so they memoize by digest: frequency
# tables by the histogram bytes, code/state tables by the length-table bytes.
# Counters are exposed (``table_cache_stats``) and surfaced by the server's
# GET /stats so cache behaviour is observable from the outside.
# --------------------------------------------------------------------------

#: one shared table cache — key tuples carry a kind tag, so length tables,
#: canonical codes and decode state tables coexist without colliding
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
    ``intp``, and half as many elements halve that pass.  The pairs are
    counted :data:`_HISTOGRAM_BLOCK` at a time, so that conversion stays
    cache-sized (a whole 256^3 stream at once took 67 MB)."""
    even = arr.size & ~1
    u2 = arr[:even].view("<u2")
    pairs = np.bincount(u2[:_HISTOGRAM_BLOCK], minlength=1 << 16)
    for lo in range(_HISTOGRAM_BLOCK, u2.size, _HISTOGRAM_BLOCK):
        pairs += np.bincount(u2[lo : lo + _HISTOGRAM_BLOCK], minlength=1 << 16)
    pairs = pairs.reshape(256, 256)
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
        anchors = np.zeros(nchunks, dtype=np.int64)
        anchors[1:] = offsets64
        out = _decode_payload(_state_machine(lengths), payload, total_bits, anchors)
        if out.size < n:
            raise ValueError(
                f"Huffman payload holds {out.size} codes, but the header claims {n} symbols"
            )
        return out[:n].tobytes()


# --------------------------------------------------------------------------
# Decode: a byte-stepped state machine over the canonical code tree.
# --------------------------------------------------------------------------

#: child-table flag of a leaf; the low byte holds its symbol
_LEAF = 1 << 9
#: payload bytes per speculative lane
LANE = 8
#: fix-up rounds (the first included) before unsettled chunks are walked
#: exactly from their stored offsets; real CR streams took up to 11
MAX_ROUNDS = 16
#: stale lanes few enough that a round costs about its fixed overhead:
#: rounds go on while they halve the stale lanes or leave at most this many
_FEW_LANES = 64
#: bytes stepped per block of an exact walk in lockstep
_WALK_BLOCK = 64
#: exact walks few enough to step one at a time in Python (~0.13 us a byte)
#: rather than in NumPy lockstep (~2 us a step, however many walks)
_PYTHON_WALKS = 16


def _code_tree(lengths: np.ndarray) -> np.ndarray:
    """Children of the internal nodes of the canonical code tree, ``(S, 2)``
    ``uint16``: an internal node's id, or ``_LEAF | symbol``.

    Node 0 is the root, and ids run breadth-first.  Canonical codes give the
    leaves at each depth the lowest code values, so a depth is laid out as
    its leaves in (length, symbol) order, then the internal nodes that still
    hold deeper codes, then code space no code uses, which decodes as
    symbol 0.  A complete code over ``k`` symbols has ``k - 1`` internal
    nodes; an incomplete one at most one unused node per depth more.
    """
    L = int(lengths.max())
    count = np.bincount(lengths, minlength=L + 1).tolist()
    symbols = np.argsort(lengths, kind="stable")[256 - sum(count[1:]) :].tolist()
    # below[d]: Kraft sum of the codes longer than d, in units of 2^-L
    below = [0] * (L + 1)
    for d in range(L - 1, -1, -1):
        below[d] = below[d + 1] + (count[d + 1] << (L - d - 1))
    if below[0] > 1 << L:
        raise ValueError("Huffman code lengths oversubscribe the code space (Kraft sum above 1)")
    children: list[int] = []
    first, live, k = 0, 1, 0  # ids of the internal nodes one depth up
    for d in range(1, L + 1):
        internal = -(-below[d] >> (L - d))
        row = [_LEAF | s for s in symbols[k : k + count[d]]]
        k += count[d]
        row += range(first + live, first + live + internal)
        row += [_LEAF] * (2 * live - len(row))
        children += row
        first, live = first + live, internal
    return np.array(children, dtype=np.uint16).reshape(-1, 2)


def _compose(nxt: np.ndarray, count: np.ndarray, syms: np.ndarray, dtype) -> tuple:
    """Square a step table: steps over ``k`` bits into steps over ``2k``.

    Row ``s`` of each ``(S, W)`` table (``W = 2**k``) belongs to state
    ``s``, and entry ``v`` to reading the ``k`` bits ``v`` from it: the next
    state, how many codes they complete, and those codes' symbols packed
    first in the low byte.  Entry ``v * W + u`` of the result reads ``v``
    then ``u``; its symbols come packed as ``dtype``.
    """
    S, W = nxt.shape
    mid = nxt.astype(np.intp)
    first = count[:, :, None]
    count2 = count[mid] + first
    syms2 = syms.astype(dtype)[mid]
    syms2 <<= first.astype(dtype) << dtype(3)
    syms2 |= syms[:, :, None]
    return nxt[mid].reshape(S, W * W), count2.reshape(S, W * W), syms2.reshape(S, W * W)


def _state_machine(lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Decode state machine of a code-length table, memoized by its bytes.

    States are the internal nodes of the code tree, the root being 0.
    Returns the tree and its step table over nibbles (see :func:`_compose`):
    ``(children, nxt, count, syms)``, the last three ``(S, 16)`` of
    ``uint16``, ``uint8`` and ``uint32``.  At most 279 states take 116 bytes
    each.
    """
    lengths = np.asarray(lengths, dtype=np.uint8)
    key = ("states", lengths.tobytes())
    cached = _TABLES.lookup(key)
    if cached is not None:
        return cached
    children = _code_tree(lengths)
    leaf = children >= _LEAF
    step = (np.where(leaf, 0, children).astype(np.uint16), leaf.astype(np.uint8),
            (children & 0xFF).astype(np.uint8) * leaf)
    step = _compose(*_compose(*step, np.uint16), np.uint32)
    return _TABLES.store(key, tuple(_readonly(a) for a in (children, *step)))


def _settle_lanes(nxt: np.ndarray, data: np.ndarray, nlanes: int):
    """Entry row of every payload byte from speculative lanes.

    Every ``LANE``-byte lane first steps from the root.  Each round then
    re-runs the lanes whose entry differs from their predecessor's exit,
    from that exit, until none does.  A Huffman decode that starts mid-code
    usually falls into step with the true one within a few codes, so most
    lanes settle in the second round.  Codes that never do (every code 3
    bits long, say) settle one lane per round: the rounds stop after
    ``MAX_ROUNDS``, or as soon as a round leaves more than half of the lanes
    it re-ran stale, unless those are at most ``_FEW_LANES``.  Returns the
    rows in byte order and the lanes still out of step.
    """
    cols = data[: LANE * nlanes].reshape(nlanes, LANE).T.copy()

    def run(rows, cols):
        st = np.empty(cols.shape, dtype=nxt.dtype)
        for j in range(LANE):
            st[j] = rows
            rows = np.take(nxt, rows + cols[j])
        return st, rows

    entry = np.zeros(nlanes, dtype=nxt.dtype)
    st, exits = run(entry, cols)
    stale = np.flatnonzero(entry[1:] != exits[:-1])
    for _ in range(MAX_ROUNDS - 1):
        if not stale.size:
            break
        stale += 1
        entry[stale] = exits[stale - 1]
        if 2 * stale.size > nlanes:  # skip the gather and scatter
            st, exits = run(entry, cols)
        else:
            st[:, stale], exits[stale] = run(entry[stale], cols[:, stale])
        prev = stale.size
        stale = np.flatnonzero(entry[1:] != exits[:-1])
        if stale.size > max(prev // 2, _FEW_LANES):
            break  # not settling, and too many lanes left to re-run cheaply
    return st.T.reshape(-1), stale + 1


def _suffix_rows(children: np.ndarray) -> np.ndarray:
    """Row after the last ``r`` bits of byte ``v``, stepped from the root,
    at entry ``256 * r + v`` (``r < 8``): the exact row at the first byte
    boundary after a code that starts ``r`` bits before it."""
    r = np.arange(8)[:, None]
    v = np.arange(256)
    node = np.zeros((8, 256), dtype=np.intp)
    for t in range(7):
        c = children[node, (v >> np.maximum(r - 1 - t, 0)) & 1]
        node = np.where(t < r, np.where(c >= _LEAF, 0, c), node)
    return (node << 8).reshape(-1)


def _walk(st: np.ndarray, data: np.ndarray, nxt: np.ndarray, start: np.ndarray,
          end: np.ndarray, rows: np.ndarray) -> None:
    """Step the byte spans ``[start, end)`` exactly from entry ``rows``,
    writing every byte's entry row into ``st``: one span at a time in Python
    when there are at most ``_PYTHON_WALKS``, else all in lockstep."""
    if start.size <= _PYTHON_WALKS:
        table, payload = memoryview(nxt), memoryview(data)
        for lo, hi, row in zip(start.tolist(), end.tolist(), rows.tolist()):
            rec = []
            for byte in payload[lo:hi]:
                rec.append(row)
                row = table[row + byte]
            st[lo:hi] = rec
        return
    nxt = nxt.astype(np.intp)
    steps = int((end - start).max())
    for lo in range(0, steps, _WALK_BLOCK):
        pos = start + np.arange(lo, min(lo + _WALK_BLOCK, steps))[:, None]
        cols = data[np.minimum(pos, data.size - 1)].astype(np.intp)
        rec = np.empty((cols.shape[0] + 1, rows.size), dtype=np.intp)
        rec[0] = rows
        for j in range(cols.shape[0]):
            rec[j + 1] = nxt[rec[j] + cols[j]]
        rows = rec[-1]
        keep = pos < end
        st[pos[keep]] = rec[:-1][keep]


def _emit(counts: np.ndarray, syms: np.ndarray) -> np.ndarray:
    """Concatenate the first ``counts[i]`` bytes of every ``syms[i]``
    (``uint64``, first byte lowest).

    Each word is written at its output offset through a byte-strided,
    overlapping ``uint64`` view.  NumPy assigns in index order, so each
    word's unused high bytes are overwritten by the next words
    (``test_huffman.py`` pins that order).
    """
    ends = counts.astype(np.intp)
    np.cumsum(ends, out=ends)  # in place: a fresh result array costs more than the sum
    total = int(ends[-1]) if ends.size else 0
    ends -= counts
    out = np.empty(total + 8, dtype=np.uint8)
    np.ndarray((total + 1,), dtype="<u8", buffer=out, strides=(1,))[ends] = syms
    return out[:total]


def _decode_payload(machine: tuple, payload: np.ndarray, nbits: int,
                    anchors: np.ndarray) -> np.ndarray:
    """Every code in the first ``nbits`` bits of ``payload``, given the code
    starts ``anchors`` (one per chunk, the first at bit 0)."""
    children = machine[0]
    nxt, count, syms = _compose(*machine[1:], np.uint64)
    # Step rows 256 * state, so that a row plus a byte indexes the tables.
    nxt = nxt.astype(np.uint16 if nxt.shape[0] <= 256 else np.uint32, copy=False)
    nxt <<= 8
    nxt, count, syms = nxt.reshape(-1), count.reshape(-1), syms.reshape(-1)
    nfull = nbits >> 3
    nlanes = -(-nfull // LANE)
    # Zero padding past the whole bytes: the last lane and the exact walks
    # read up to a lane past them.
    data = np.zeros(LANE * (nlanes + 1), dtype=nxt.dtype)
    data[:nfull] = payload[:nfull]
    st, stale = _settle_lanes(nxt, data, nlanes)
    if stale.size:
        # Rows are exact from a chunk's first whole byte on if they agree
        # with its anchor there and no lane inside the chunk is out of step.
        # Walk every other chunk exactly from its anchor: no walk is longer
        # than one chunk's bytes, however slowly the lanes settle.
        start = np.minimum((anchors + 7) >> 3, nfull)
        end = np.append(start[1:], nfull)
        ks = np.flatnonzero(start < end)
        start, end = start[ks], end[ks]
        r = 8 * start - anchors[ks]
        rows = _suffix_rows(children)[256 * r + data[start - (r > 0)]].astype(nxt.dtype)
        breaks = LANE * stale
        inner = np.searchsorted(breaks, end) > np.searchsorted(breaks, start, side="right")
        redo = inner | (st[start] != rows)
        if redo.any():
            _walk(st, data, nxt, start[redo], end[redo], rows[redo])
    at = st[:nfull].astype(np.intp)
    at += data[:nfull]
    out = _emit(np.take(count, at), np.take(syms, at))
    # The last, partial byte: step its bits through the tree.
    node = int(nxt[at[-1]]) >> 8 if nfull else 0
    tail = []
    for p in range(8 * nfull, nbits):
        c = int(children[node, (int(payload[p >> 3]) >> (7 - (p & 7))) & 1])
        if c >= _LEAF:
            tail.append(c & 0xFF)
            node = 0
        else:
            node = c
    return np.concatenate((out, np.array(tail, dtype=np.uint8))) if tail else out

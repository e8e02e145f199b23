"""Byte-layout oracles for the BIT shuffle, the RRE/RZE fills and the
Huffman encoder.

A round trip cannot pin a layout: any bijection round-trips.  These tests
keep the whole-bit-array implementations that the word-level kernels
replaced, and assert byte equality with them: encoded bytes against the
oracle's encoder, decoded bytes against the oracle's decoder on the same
stream.
"""

import heapq
import struct

import numpy as np
import pytest

from repro.encoders import huffman
from repro.encoders.bitio import pack_bitfields, unpack_bitfields
from repro.encoders.components import (
    BIT,
    RRE,
    RZE,
    _compress_bitmap,
    _decompress_bitmap,
)
from repro.encoders.huffman import HuffmanCodec, canonical_codes, code_lengths_from_frequencies

_UINT = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


# ------------------------------------------------------------------ oracles
def oracle_bit_encode(buf: bytes, width: int) -> bytes:
    """Unpack every bit, transpose the (nsym, 8*width) bit matrix, repack."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    nsym = arr.size // width
    body = arr[: nsym * width]
    tail = arr[nsym * width :]
    if nsym:
        bits = np.unpackbits(body).reshape(nsym, 8 * width)
        shuffled = np.packbits(bits.T)
    else:
        shuffled = np.zeros(0, dtype=np.uint8)
    return struct.pack("<QI", nsym, len(tail)) + shuffled.tobytes() + tail.tobytes()


def oracle_bit_decode(buf: bytes, width: int) -> bytes:
    nsym, ntail = struct.unpack_from("<QI", buf, 0)
    off = struct.calcsize("<QI")
    nbits = nsym * 8 * width
    nbody = (nbits + 7) // 8
    body = np.frombuffer(buf, dtype=np.uint8, count=nbody, offset=off)
    tail = buf[off + nbody : off + nbody + ntail]
    if nsym:
        planes = np.unpackbits(body, count=nbits).reshape(8 * width, nsym)
        out = np.packbits(planes.T)
    else:
        out = np.zeros(0, dtype=np.uint8)
    return out.tobytes() + tail


def oracle_rre_bytes_decode(buf: bytes) -> bytes:
    """One byte-level RRE round, filled through ``cumsum(keep) - 1``."""
    n, nkept = struct.unpack_from("<QQ", buf, 0)
    if n == 0:
        return b""
    bmap_len = (n + 7) // 8
    keep = np.unpackbits(np.frombuffer(buf, dtype=np.uint8, count=bmap_len, offset=16), count=n)
    kept = np.frombuffer(buf, dtype=np.uint8, count=nkept, offset=16 + bmap_len)
    return kept[np.cumsum(keep) - 1].tobytes()


def oracle_bitmap_decode(buf: bytes) -> np.ndarray:
    nbits, depth = struct.unpack_from("<QB", buf, 0)
    payload = buf[struct.calcsize("<QB") :]
    for _ in range(depth):
        payload = oracle_rre_bytes_decode(payload)
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits)


def oracle_mask_decode(buf: bytes, width: int, kind: str) -> bytes:
    """RRE/RZE decode: RRE gathers through ``cumsum(mask) - 1``."""
    (ntail,) = struct.unpack_from("<I", buf, 0)
    bits, consumed = _decompress_bitmap(buf[4:])
    assert np.array_equal(bits, oracle_bitmap_decode(buf[4 : 4 + consumed]))
    kept_end = len(buf) - ntail
    kept = np.frombuffer(buf[4 + consumed : kept_end], dtype=_UINT[width])
    out = np.zeros(bits.size, dtype=_UINT[width])
    mask = bits.astype(bool)
    if kind == "RRE":
        if out.size:
            out[:] = kept[np.cumsum(mask) - 1]
    else:
        out[mask] = kept
    return out.tobytes() + buf[kept_end:]


# -------------------------------------------------------------------- BIT
@pytest.fixture
def gen():
    return np.random.default_rng(20241018)


@pytest.mark.parametrize("width", [1, 2, 4, 8])
@pytest.mark.parametrize("mod", range(8))
def test_bit_layout_matches_oracle(width, mod, gen):
    """Every nsym % 8, with and without tail bytes, from 0 or 1 symbol up."""
    for groups in (0, 1, 3, 130):
        nsym = 8 * groups + mod
        for ntail in sorted({0, width - 1}):
            data = gen.integers(0, 256, nsym * width + ntail).astype(np.uint8).tobytes()
            enc = BIT(width).encode(data)
            assert enc == oracle_bit_encode(data, width), (nsym, ntail)
            assert BIT(width).decode(enc) == oracle_bit_decode(enc, width) == data


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_bit_layout_on_skewed_symbols(width, gen):
    """Near-constant high planes, as after TCMS: runs of equal bytes."""
    vals = np.clip(np.rint(gen.standard_normal(4099) * 3), -60, 60).astype(np.int64)
    data = vals.astype(_UINT[width]).tobytes()[: 4099 * width - 1]
    enc = BIT(width).encode(data)
    assert enc == oracle_bit_encode(data, width)
    assert BIT(width).decode(enc) == data


def test_bit_empty_and_tail_only():
    for width in (1, 2, 4, 8):
        for data in (b"", b"\x01\x02\x03"[: width - 1]):
            enc = BIT(width).encode(data)
            assert enc == oracle_bit_encode(data, width)
            assert BIT(width).decode(enc) == data


# -------------------------------------------------------------- RRE / RZE
def _two_runs(n: int) -> np.ndarray:
    syms = np.zeros(n, dtype=np.uint8)
    syms[n // 3 :] = 7
    return syms


#: two-run streams whose RRE bitmaps compress to each depth 0-4
_DEPTHS = {0: 500, 1: 1000, 2: 5000, 3: 40_000, 4: 300_000}


@pytest.mark.parametrize("depth", sorted(_DEPTHS))
def test_bitmap_depths_match_oracle(depth):
    data = _two_runs(_DEPTHS[depth]).tobytes()
    enc = RRE(1).encode(data)
    assert struct.unpack_from("<QB", enc, 4)[1] == depth
    assert RRE(1).decode(enc) == oracle_mask_decode(enc, 1, "RRE") == data


@pytest.mark.parametrize("kind", ["RRE", "RZE"])
@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_mask_fill_matches_oracle(kind, width, gen):
    runs = gen.geometric(0.2, size=3000)
    syms = np.repeat(gen.integers(0, 3, runs.size), runs).astype(_UINT[width])
    comp = RRE(width) if kind == "RRE" else RZE(width)
    for data in (syms.tobytes() + b"\x09" * (width - 1), syms[:1].tobytes(), b""):
        enc = comp.encode(data)
        assert comp.decode(enc) == oracle_mask_decode(enc, width, kind) == data


def test_bitmap_roundtrip_matches_oracle(gen):
    for bits in (gen.integers(0, 2, 777), np.ones(4096), np.zeros(70_000), np.zeros(0)):
        blob = _compress_bitmap(bits.astype(np.uint8))
        back, consumed = _decompress_bitmap(blob)
        assert consumed == len(blob)
        assert np.array_equal(back, oracle_bitmap_decode(blob))
        assert np.array_equal(back, bits)


def test_rre_kept_count_mismatch_raises():
    enc = bytearray(RRE(1).encode(_two_runs(500).tobytes()))
    with pytest.raises(ValueError, match="kept symbols"):
        RRE(1).decode(bytes(enc[:-1]))


# ---------------------------------------------------------------- Huffman
def oracle_pack_bitfields(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """One byte per payload bit, written one bit plane at a time, then
    ``packbits``."""
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    bits = np.zeros(total, dtype=np.uint8)
    for plane in range(int(lengths.max(initial=0))):
        idx = np.flatnonzero(lengths > plane)
        shift = (lengths[idx] - 1 - plane).astype(np.uint64)
        bits[starts[idx] + plane] = (values[idx] >> shift) & np.uint64(1)
    return np.packbits(bits).tobytes(), total


def oracle_code_lengths(freq: np.ndarray, max_len: int) -> np.ndarray:
    """Huffman tree that concatenates the symbol lists of the two subtrees at
    every merge, with the Kraft limiter in symbol-index order."""
    freq = np.asarray(freq, dtype=np.int64)
    symbols = np.flatnonzero(freq)
    depth = np.zeros(freq.size, dtype=np.int64)
    if symbols.size == 1:
        depth[symbols[0]] = 1
    heap = [(int(freq[s]), int(s), [int(s)]) for s in symbols]
    heapq.heapify(heap)
    tie = 256
    while len(heap) > 1:
        w1, _, s1 = heapq.heappop(heap)
        w2, _, s2 = heapq.heappop(heap)
        for s in s1 + s2:
            depth[s] += 1
        heapq.heappush(heap, (w1 + w2, tie, s1 + s2))
        tie += 1
    if depth.max() > max_len:
        depth = np.minimum(depth, max_len)
        unit = 1 << max_len
        kraft = int(np.where(depth > 0, unit >> depth, 0).sum())
        while kraft > unit:
            candidates = np.flatnonzero((depth > 0) & (depth < max_len))
            s = candidates[np.argmax(depth[candidates])]
            kraft -= unit >> int(depth[s])
            depth[s] += 1
            kraft += unit >> int(depth[s])
    return depth.astype(np.uint8)


def oracle_huffman_encode(buf: bytes, chunk_size: int, max_len: int) -> bytes:
    """Gather each symbol's code, pack them bit plane by bit plane, and read
    the chunk offsets from the per-symbol exclusive prefix sum."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    n = arr.size
    if n == 0:
        return struct.pack("<QIQ", 0, chunk_size, 0) + bytes(256)
    lengths = oracle_code_lengths(np.bincount(arr, minlength=256), max_len)
    sym_lens = lengths[arr].astype(np.int64)
    payload, nbits = oracle_pack_bitfields(canonical_codes(lengths)[arr], sym_lens)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(sym_lens[:-1], out=starts[1:])
    offsets = starts[chunk_size::chunk_size].astype(np.uint64)
    header = struct.pack("<QIQ", n, chunk_size, nbits)
    return header + lengths.tobytes() + offsets.tobytes() + payload


def _fibonacci_counts(nsym: int) -> np.ndarray:
    counts, a, b = [], 1, 1
    for _ in range(nsym):
        counts.append(a)
        a, b = b, a + b
    return np.array(counts[::-1], dtype=np.int64)


def _skewed(gen, n: int, nsym: int = 30) -> bytes:
    """``n`` symbols drawn with Fibonacci weights: deep trees, so that
    ``max_len`` binds (the limiter fires) once ``n`` is large enough."""
    p = _fibonacci_counts(nsym).astype(np.float64)
    return gen.choice(nsym, size=n, p=p / p.sum()).astype(np.uint8).tobytes()


def _check_encode(data: bytes, chunk_size: int = 4096, max_len: int = 16) -> bytes:
    enc = HuffmanCodec(chunk_size=chunk_size, max_len=max_len).encode(data)
    assert enc == oracle_huffman_encode(data, chunk_size, max_len)
    assert HuffmanCodec().decode(enc) == data
    return enc


def _code_lengths(enc: bytes) -> bytes:
    off = struct.calcsize("<QIQ")
    return enc[off : off + 256]


def _payload_bits(enc: bytes) -> int:
    return struct.unpack_from("<QIQ", enc, 0)[2]


@pytest.mark.parametrize("max_len", [8, 12, 16, 17, 24])
@pytest.mark.parametrize("chunk_size", [1, 3, 6, 4097])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 4095, 4096, 4097])
def test_huffman_encode_matches_oracle(n, chunk_size, max_len, gen):
    _check_encode(_skewed(gen, n), chunk_size, max_len)


def _fibonacci_stream(gen, n: int, nsym: int) -> bytes:
    """Exact Fibonacci counts over ``nsym`` symbols (a tree ``nsym - 1``
    levels deep), resized to ``n`` symbols and shuffled."""
    data = np.repeat(np.arange(nsym, dtype=np.uint8), _fibonacci_counts(nsym))
    return gen.permutation(np.resize(data, n)).tobytes()


@pytest.fixture
def groups(monkeypatch):
    """The field group sizes the encoder runs with, as it calls them."""
    seen = set()
    fields = huffman._fields

    def spy(x, group, *tables):
        seen.add(group)
        return fields(x, group, *tables)

    monkeypatch.setattr(huffman, "_fields", spy)
    return seen


@pytest.mark.parametrize("max_len", [12, 16, 17, 24])
def test_huffman_group_sizes_across_blocks(max_len, gen, groups):
    """Three full encode blocks and a partial one, with 4097-symbol chunks
    straddling every block edge.  Codes reach ``max_len``, so both field
    group sizes run: 4 codes up to 16 bits, 2 above."""
    n = 3 * huffman.ENCODE_BLOCK + 4099
    enc = _check_encode(_fibonacci_stream(gen, n, 25), 4097, max_len)
    assert max(_code_lengths(enc)) == max_len
    assert groups == {4 if max_len <= 16 else 2, 1}  # 1: the n % group tail


@pytest.mark.parametrize("chunk_size", [1, 3, 6, 4096, 4097])
def test_huffman_small_blocks(chunk_size, gen, groups, monkeypatch):
    """Blocks of 8 symbols: most chunks and fields meet a block edge."""
    monkeypatch.setattr(huffman, "ENCODE_BLOCK", 8)
    for n in (1, 7, 8, 9, 7001):
        _check_encode(_skewed(gen, n), chunk_size)
        _check_encode(_fibonacci_stream(gen, n, 18), chunk_size, max_len=24)
    assert groups == {1, 2, 4}


@pytest.mark.parametrize("chunk_size", [1, 3, 4097])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 70_001])
def test_huffman_single_symbol_streams(n, chunk_size):
    enc = _check_encode(b"\x07" * n, chunk_size)
    assert _payload_bits(enc) == n


@pytest.mark.parametrize("n, whole_words", [(4096, True), (4098, False), (4097, False)])
def test_huffman_all_symbols(n, whole_words, gen):
    """All 256 symbols equally often: 8-bit codes, so 4096 symbols fill
    exactly 512 words and the others end mid-word."""
    data = gen.permutation(np.resize(np.arange(256, dtype=np.uint8), n)).tobytes()
    enc = _check_encode(data, 6)
    assert set(_code_lengths(enc)) == {8}
    assert (_payload_bits(enc) % 64 == 0) == whole_words


@pytest.mark.parametrize("max_len", [16, 24])
def test_huffman_payload_ending_on_a_word(max_len, gen):
    """Mixed code lengths, fields of 4 codes (``max_len`` 16) or 2 (24),
    and a payload that ends exactly on a word."""
    base = _fibonacci_stream(gen, 7001, 18)
    # Symbol 0 is the most frequent, with a 1-bit code: each one appended
    # adds one payload bit.
    for extra in range(64):
        data = base + b"\x00" * extra
        if _payload_bits(HuffmanCodec(max_len=max_len).encode(data)) % 64 == 0:
            break
    enc = _check_encode(data, 3, max_len)
    assert _payload_bits(enc) % 64 == 0
    assert (max(_code_lengths(enc)) > 16) == (max_len > 16)


@pytest.mark.parametrize(
    "name, shape, eb",
    [("nyx", (64, 64, 64), 1e-4), ("miranda", (64, 64, 64), 1e-2),
     ("jhtdb", (32, 32, 32), 1e-3), ("cesm-atm", (96, 192), 1e-3)],
)
def test_huffman_cr_quant_code_streams(name, shape, eb, cr_quant_codes):
    data = cr_quant_codes(name, shape, eb)
    for chunk_size in (3, 4096):
        _check_encode(data, chunk_size)


def test_code_lengths_match_oracle_with_ties(gen):
    """Few distinct weights, so most merges break ties by symbol or by
    node creation order; absent symbols included."""
    for _ in range(60):
        freq = gen.integers(0, int(gen.choice([3, 8, 1000])), 256)
        for max_len in (8, 16, 24):
            expect = oracle_code_lengths(freq, max_len)
            assert np.array_equal(huffman._code_lengths_uncached(freq, max_len), expect)


@pytest.mark.parametrize("max_len", [12, 16, 24])
def test_code_lengths_match_oracle_when_the_limiter_fires(max_len):
    freq = np.zeros(256, np.int64)
    freq[:40] = _fibonacci_counts(40)
    expect = oracle_code_lengths(freq, max_len)
    assert int(expect.max()) == max_len
    assert np.array_equal(code_lengths_from_frequencies(freq, max_len), expect)


def test_pack_bitfields_matches_oracle(gen):
    """Fields of 0 to 64 bits, with bits set above each field's length."""
    for n in (1, 5, 1000, 40_000):
        lengths = gen.integers(0, 65, n)
        raw = gen.integers(0, 1 << 63, n, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        payload, nbits = pack_bitfields(raw, lengths)
        mask = (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)
        assert (payload, nbits) == oracle_pack_bitfields(raw & mask, lengths)
        assert np.array_equal(unpack_bitfields(payload, lengths), raw & mask)

"""Chunk-parallel canonical Huffman codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoders import huffman
from repro.encoders.bitio import extract_bit_windows, pack_bitfields, pad_stream_for_windows
from repro.encoders.huffman import (
    HuffmanCodec,
    canonical_codes,
    code_lengths_from_frequencies,
)

_HEADER = struct.calcsize("<QIQ")


def _two_table_lut(lengths: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's own flat 2^L tables: window -> symbol, window -> length
    (the codec's separate symbol and length tables before they merged)."""
    codes = canonical_codes(lengths)
    lut_sym = np.zeros(1 << L, dtype=np.uint8)
    lut_len = np.ones(1 << L, dtype=np.uint8)
    for s in range(256):
        l = int(lengths[s])
        if l == 0:
            continue
        base = int(codes[s]) << (L - l)
        span = 1 << (L - l)
        lut_sym[base : base + span] = s
        lut_len[base : base + span] = l
    return lut_sym, lut_len


def _lockstep_decode(buf: bytes) -> bytes:
    """Reference decoder: one symbol per chunk per iteration, for
    ``chunk_size`` iterations (the codec's decoder before sub-chunking)."""
    n, chunk_size, nbits = struct.unpack_from("<QIQ", buf, 0)
    lengths = np.frombuffer(buf, dtype=np.uint8, count=256, offset=_HEADER)
    if n == 0:
        return b""
    nchunks = (n + chunk_size - 1) // chunk_size
    offsets = np.frombuffer(buf, dtype=np.uint64, count=nchunks - 1, offset=_HEADER + 256)
    payload = np.frombuffer(buf, dtype=np.uint8, offset=_HEADER + 256 + offsets.nbytes)
    L = int(lengths.max())
    lut_sym, lut_len = _two_table_lut(lengths, L)
    pos = np.zeros(nchunks, dtype=np.int64)
    pos[1:] = offsets.astype(np.int64)
    out = np.zeros((nchunks, chunk_size), dtype=np.uint8)
    padded = pad_stream_for_windows(payload)
    for it in range(min(chunk_size, n)):
        win = extract_bit_windows(padded, pos, L, prepadded=True)
        out[:, it] = lut_sym[win]
        pos += lut_len[win]
        np.minimum(pos, int(nbits), out=pos)
    return out.reshape(-1)[:n].tobytes()


class TestCodeLengths:
    def test_empty_histogram(self):
        lengths = code_lengths_from_frequencies(np.zeros(256, np.int64))
        assert (lengths == 0).all()

    def test_single_symbol_gets_one_bit(self):
        freq = np.zeros(256, np.int64)
        freq[42] = 1000
        lengths = code_lengths_from_frequencies(freq)
        assert lengths[42] == 1
        assert lengths.sum() == 1

    def test_kraft_inequality(self, rng):
        freq = rng.integers(0, 1000, 256)
        lengths = code_lengths_from_frequencies(freq)
        kraft = sum(2.0 ** -int(l) for l in lengths if l > 0)
        assert kraft <= 1.0 + 1e-12

    def test_length_limit_enforced(self):
        # Fibonacci-like frequencies force very deep trees without limiting.
        freq = np.zeros(256, np.int64)
        a, b = 1, 1
        for i in range(40):
            freq[i] = a
            a, b = b, a + b
        lengths = code_lengths_from_frequencies(freq, max_len=16)
        assert lengths.max() <= 16
        kraft = sum(2.0 ** -int(l) for l in lengths if l > 0)
        assert kraft <= 1.0 + 1e-12

    def test_more_frequent_not_longer(self, rng):
        freq = rng.integers(1, 10_000, 256)
        lengths = code_lengths_from_frequencies(freq).astype(int)
        # A strictly more frequent symbol never gets a longer code; equally
        # frequent ones may differ by the tree's tie-breaking.
        more = freq[:, None] > freq[None, :]
        assert (lengths[:, None] <= lengths[None, :])[more].all()


class TestCanonicalCodes:
    def test_prefix_free(self):
        freq = np.zeros(256, np.int64)
        freq[:8] = [50, 30, 10, 5, 3, 1, 1, 1]
        lengths = code_lengths_from_frequencies(freq)
        codes = canonical_codes(lengths)
        entries = [
            (format(int(codes[s]), f"0{int(lengths[s])}b"))
            for s in range(256)
            if lengths[s] > 0
        ]
        for i, a in enumerate(entries):
            for j, b in enumerate(entries):
                if i != j:
                    assert not b.startswith(a), f"{a} prefixes {b}"


class TestCodecRoundtrip:
    @pytest.mark.parametrize("n", [0, 1, 7, 4096, 4097, 50_000])
    def test_sizes_and_chunk_boundaries(self, n, rng):
        data = rng.integers(0, 32, n).astype(np.uint8).tobytes()
        codec = HuffmanCodec(chunk_size=4096)
        assert codec.decode(codec.encode(data)) == data

    def test_single_symbol_stream(self):
        data = b"\x80" * 10_000
        codec = HuffmanCodec()
        enc = codec.encode(data)
        assert codec.decode(enc) == data
        # 1 bit/symbol + table: ~1250 bytes of payload.
        assert len(enc) < 2000

    def test_skewed_stream_compresses(self, quantcode_bytes):
        codec = HuffmanCodec()
        enc = codec.encode(quantcode_bytes)
        assert len(enc) < len(quantcode_bytes) / 2
        assert codec.decode(enc) == quantcode_bytes

    def test_incompressible_stream(self, rng):
        data = rng.integers(0, 256, 20_000).astype(np.uint8).tobytes()
        codec = HuffmanCodec()
        enc = codec.encode(data)
        assert codec.decode(enc) == data
        assert len(enc) < len(data) * 1.2

    def test_small_chunks(self, rng):
        data = rng.integers(0, 5, 1000).astype(np.uint8).tobytes()
        codec = HuffmanCodec(chunk_size=64)
        assert codec.decode(codec.encode(data)) == data

    def test_all_256_symbols(self):
        data = bytes(range(256)) * 20
        codec = HuffmanCodec()
        assert codec.decode(codec.encode(data)) == data

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=5000))
    def test_property_roundtrip(self, data):
        codec = HuffmanCodec(chunk_size=512)
        assert codec.decode(codec.encode(data)) == data


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            HuffmanCodec(chunk_size=0)
        with pytest.raises(ValueError):
            HuffmanCodec(max_len=30)


def _sixteen_bit_stream(gen) -> bytes:
    """All 256 symbols, with frequencies skewed enough for 16-bit codes."""
    counts = np.ones(256, np.int64)
    counts[:15] = [2 ** (15 - i) for i in range(15)]
    data = gen.permutation(np.repeat(np.arange(256, dtype=np.uint8), counts))
    return data.tobytes()


@pytest.fixture
def gen():
    """A private generator, so these tests leave the shared ``rng`` alone."""
    return np.random.default_rng(20240613)


class TestDecodeMatchesLockstepOracle:
    """The decoder must return exactly what the lockstep reference does."""

    @staticmethod
    def check(data: bytes, chunk_size: int = 4096) -> None:
        enc = HuffmanCodec(chunk_size=chunk_size).encode(data)
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == data

    @pytest.mark.parametrize("chunk_size", [64, 4096])
    @pytest.mark.parametrize("nchunks", [1, 2, 255, 256, 257])
    def test_chunk_counts(self, nchunks, chunk_size, gen):
        n = nchunks * chunk_size - chunk_size // 3
        self.check(gen.integers(0, 24, n).astype(np.uint8).tobytes(), chunk_size)

    @pytest.mark.parametrize("chunk_size", [8, 64, 4096])
    @pytest.mark.parametrize("n", [1, 5, 15, 16, 17])
    def test_fewer_symbols_than_a_subchunk(self, n, chunk_size, gen):
        self.check(gen.integers(0, 7, n).astype(np.uint8).tobytes(), chunk_size)

    @pytest.mark.parametrize("chunk_size", [64, 4096])
    @pytest.mark.parametrize("chunks", [1, 3])
    def test_one_symbol_past_a_chunk_boundary(self, chunks, chunk_size, gen):
        n = chunks * chunk_size + 1
        self.check(gen.integers(0, 40, n).astype(np.uint8).tobytes(), chunk_size)

    @pytest.mark.parametrize("chunk_size", [64, 4096])
    @pytest.mark.parametrize("n", [1, 100, 9000])
    def test_single_symbol_stream(self, n, chunk_size):
        self.check(b"\xa5" * n, chunk_size)

    def test_all_symbols_with_16_bit_codes(self, gen):
        data = _sixteen_bit_stream(gen)
        lengths = HuffmanCodec().encode(data)[_HEADER : _HEADER + 256]
        assert max(lengths) == 16 and min(lengths) >= 1
        self.check(data)

    @pytest.mark.parametrize(
        "name, shape, eb",
        [("jhtdb", (32, 32, 32), 1e-3), ("cesm-atm", (96, 192), 1e-3), ("rtm", (64, 64, 64), 1e-4)],
    )
    def test_cr_quant_code_streams(self, name, shape, eb, cr_quant_codes):
        self.check(cr_quant_codes(name, shape, eb))

    def test_quantcode_fixture(self, quantcode_bytes):
        self.check(quantcode_bytes)


class TestChunkWalksMatchLockstepOracle(TestDecodeMatchesLockstepOracle):
    """The same streams with the fix-up rounds capped at the first: every
    chunk whose lanes start out of step is restored by an exact walk from
    its stored offset alone."""

    @pytest.fixture(autouse=True)
    def one_round(self, monkeypatch):
        monkeypatch.setattr(huffman, "MAX_ROUNDS", 1)


def _fibonacci_stream(gen, nsym: int) -> bytes:
    """``nsym`` symbols with Fibonacci frequencies: code lengths 1..nsym-1."""
    counts, a, b = [], 1, 1
    for _ in range(nsym):
        counts.append(a)
        a, b = b, a + b
    data = np.repeat(np.arange(nsym, dtype=np.uint8), counts[::-1])
    return gen.permutation(data).tobytes()


class TestLongCodesAndSingleSymbols:
    """The decoder must match the lockstep oracle at every code length the
    header allows, and on one-symbol streams of every size."""

    @pytest.mark.parametrize("max_len", [17, 20, 24])
    def test_long_codes(self, max_len, gen):
        data = _fibonacci_stream(gen, max_len + 1)
        enc = HuffmanCodec(max_len=24).encode(data)
        assert max(enc[_HEADER : _HEADER + 256]) == max_len
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == data

    @pytest.mark.parametrize("chunk_size", [8, 64, 4096])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 4096, 4097, 20_000])
    def test_single_symbol_streams(self, n, chunk_size):
        data = b"\x00" * n
        enc = HuffmanCodec(chunk_size=chunk_size).encode(data)
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == data


def test_decode_makes_no_window_calls(gen, monkeypatch):
    """Decoding steps a byte table per payload byte; no step extracts bit
    windows, whatever the stream size."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return extract_bit_windows(*args, **kwargs)

    monkeypatch.setattr(huffman, "extract_bit_windows", counting)
    for n in (32**3, 300_000):
        data = gen.integers(0, 12, n).astype(np.uint8).tobytes()
        assert HuffmanCodec().decode(HuffmanCodec().encode(data)) == data
    assert not calls


def _stream(lengths, symbols, chunk_size: int = 4096) -> bytes:
    """A stream of ``symbols`` under any code-length table, complete or not
    (the encoder only ever writes the tables its histograms give)."""
    lengths = np.asarray(lengths, dtype=np.uint8)
    symbols = np.asarray(symbols, dtype=np.uint8)
    widths = lengths[symbols].astype(np.int64)
    payload, nbits = pack_bitfields(canonical_codes(lengths)[symbols], widths)
    starts = np.concatenate(([0], np.cumsum(widths)))[chunk_size:-1:chunk_size]
    header = struct.pack("<QIQ", symbols.size, chunk_size, nbits)
    return header + lengths.tobytes() + starts.astype(np.uint64).tobytes() + payload


def _uniform(gen, k: int, n: int) -> bytes:
    """``n`` symbols, each of ``k`` as often as the others (within one)."""
    return gen.permutation(np.arange(n) % k).astype(np.uint8).tobytes()


class TestUnsettledLanes:
    """Lanes step from the root and settle in fix-up rounds; codes that
    never fall into step are finished from the chunk offsets."""

    @staticmethod
    def check(enc: bytes, data: bytes) -> None:
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == data

    @pytest.mark.parametrize("k", [8, 128])
    @pytest.mark.parametrize("n", [1, 4097, 200_000])
    def test_uniform_alphabets_never_settle(self, k, n, gen):
        data = _uniform(gen, k, n)
        enc = HuffmanCodec().encode(data)
        if n > 1:  # every code is log2(k) bits long
            assert set(enc[_HEADER : _HEADER + 256]) == {0, k.bit_length() - 1}
        self.check(enc, data)

    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    def test_uniform_alphabet_in_small_chunks(self, chunk_size, gen):
        data = _uniform(gen, 8, 5000)
        self.check(HuffmanCodec(chunk_size=chunk_size).encode(data), data)

    def test_most_lanes_need_a_second_round(self, gen, monkeypatch):
        # Codes of 1 to ~20 bits: a lane rarely starts on a code boundary,
        # but falls into step within a few codes.
        data = np.minimum(gen.geometric(0.3, 60_000), 40).astype(np.uint8).tobytes()
        enc = HuffmanCodec().encode(data)
        n, chunk_size, nbits = struct.unpack_from("<QIQ", enc, 0)
        lengths = np.frombuffer(enc, np.uint8, 256, _HEADER)
        payload = np.frombuffer(enc, np.uint8, offset=_HEADER + 256 + 8 * ((n - 1) // chunk_size))
        nxt, _, _ = huffman._compose(*huffman._state_machine(lengths)[1:], np.uint64)
        rows = (nxt.astype(np.uint16) << 8).reshape(-1)
        nlanes = -(-(nbits // 8) // huffman.LANE)
        padded = np.zeros(huffman.LANE * (nlanes + 1), np.uint16)
        padded[: nbits // 8] = payload[: nbits // 8]
        assert not huffman._settle_lanes(rows, padded, nlanes)[1].size
        monkeypatch.setattr(huffman, "MAX_ROUNDS", 1)
        assert huffman._settle_lanes(rows, padded, nlanes)[1].size > nlanes // 2
        monkeypatch.undo()
        self.check(enc, data)

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_round_cap_leaves_chunks_to_walk(self, rounds, monkeypatch, cr_quant_codes):
        """With the rounds capped, the chunk walks alone must restore every
        chunk the lanes left out of step."""
        monkeypatch.setattr(huffman, "MAX_ROUNDS", rounds)
        data = cr_quant_codes("nyx", (32, 32, 32), 1e-4)
        self.check(HuffmanCodec().encode(data), data)

    def test_payload_with_too_few_codes(self, gen):
        data = _uniform(gen, 20, 10_000)
        enc = bytearray(HuffmanCodec().encode(data))
        nbits = struct.unpack_from("<Q", enc, 12)[0]
        struct.pack_into("<Q", enc, 0, 10_000 + 3)  # still at most nbits
        assert 10_003 <= nbits
        with pytest.raises(ValueError, match="holds 10000 codes"):
            HuffmanCodec().decode(bytes(enc))

    def test_truncated_payload(self, gen):
        data = _uniform(gen, 20, 10_000)
        enc = bytearray(HuffmanCodec().encode(data))
        nbits = struct.unpack_from("<Q", enc, 12)[0]
        struct.pack_into("<Q", enc, 12, nbits - 100)
        cut = (nbits + 7) // 8 - (nbits - 100 + 7) // 8
        with pytest.raises(ValueError, match="codes, but the header claims 10000"):
            HuffmanCodec().decode(bytes(enc[:-cut]))

    @staticmethod
    def shift_offsets(enc: bytes, by: int) -> bytes:
        buf = bytearray(enc)
        nbits = struct.unpack_from("<Q", buf, 12)[0]
        nchunks = -(-struct.unpack_from("<Q", buf, 0)[0] // 4096)
        at = _HEADER + 256
        offs = np.frombuffer(buf, np.uint64, nchunks - 1, at).astype(np.int64)
        offs = np.clip(offs + by, 0, nbits).astype(np.uint64)
        buf[at : at + offs.nbytes] = offs.tobytes()
        return bytes(buf)

    @pytest.mark.parametrize("by", [-5, 1, 3])
    def test_corrupt_monotonic_offsets_of_a_settling_stream(self, by, cr_quant_codes):
        """Lanes that settle never read the offsets."""
        data = cr_quant_codes("rtm", (64, 64, 64), 1e-3)
        enc = self.shift_offsets(HuffmanCodec().encode(data), by)
        assert HuffmanCodec().decode(enc) == data

    @pytest.mark.parametrize("by", [-5, 1, 3])
    def test_corrupt_monotonic_offsets_of_an_unsettled_stream(self, by, gen):
        """Walks from wrong anchors give wrong symbols, but never an error
        other than ValueError, nor output of the wrong size."""
        data = _uniform(gen, 8, 30_000)
        enc = self.shift_offsets(HuffmanCodec().encode(data), by)
        try:
            out = HuffmanCodec().decode(enc)
        except ValueError:
            return
        assert len(out) == len(data)


class TestCodeTables:
    """Length tables the encoder never writes but a header may hold."""

    @pytest.mark.parametrize("max_len", [17, 20, 24])
    def test_frequent_long_codes(self, max_len, gen):
        # Codes of 1, 2, ..., max_len - 1 bits and two of max_len, drawn
        # equally often: most of the payload is long codes.
        lengths = np.zeros(256, np.uint8)
        lengths[: max_len - 1] = np.arange(1, max_len)
        lengths[max_len - 1 : max_len + 1] = max_len
        symbols = gen.integers(0, max_len + 1, 20_000)
        enc = _stream(lengths, symbols)
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == symbols.astype(np.uint8).tobytes()

    def test_incomplete_code(self, gen):
        # Codes 0, 100 and 101: a lane starting inside "101" "100" reads the
        # unused prefix 11.
        lengths = np.zeros(256, np.uint8)
        lengths[[7, 8, 9]] = [1, 3, 3]
        symbols = gen.choice([7, 8, 9], 30_000, p=[0.1, 0.45, 0.45])
        enc = _stream(lengths, symbols, chunk_size=500)
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == symbols.astype(np.uint8).tobytes()

    def test_more_than_256_states(self, gen):
        # 254 codes of 8 bits, one of 9 and one of 10: the unused space at
        # depths 8 and 10 makes 257 internal nodes.
        lengths = np.full(256, 8, np.uint8)
        lengths[254:] = [9, 10]
        assert huffman._code_tree(lengths).shape == (257, 2)
        symbols = gen.integers(0, 256, 20_000)
        enc = _stream(lengths, symbols, chunk_size=700)
        out = HuffmanCodec().decode(enc)
        assert out == _lockstep_decode(enc)
        assert out == symbols.astype(np.uint8).tobytes()

    @pytest.mark.parametrize("k", [2, 3, 40, 256])
    def test_a_complete_code_has_one_state_per_internal_node(self, k, gen):
        data = bytes(range(k)) + _uniform(gen, k, 1000)
        lengths = np.frombuffer(HuffmanCodec().encode(data), np.uint8, 256, _HEADER)
        assert huffman._code_tree(lengths).shape == (k - 1, 2)

    def test_oversubscribed_lengths(self, gen):
        enc = bytearray(HuffmanCodec().encode(_uniform(gen, 4, 1000)))
        enc[_HEADER + 4] = 1  # a fifth code beside four of 2 bits
        with pytest.raises(ValueError, match="oversubscribe"):
            HuffmanCodec().decode(bytes(enc))


class TestEmission:
    """Per-byte symbol words land at their prefix-sum offsets."""

    def test_numpy_assigns_an_overlapping_view_in_index_order(self):
        # _emit relies on it: a later word overwrites an earlier one's tail.
        out = np.zeros(16, np.uint8)
        view = np.ndarray((9,), dtype="<u8", buffer=out, strides=(1,))
        view[np.array([0, 1, 1, 3])] = np.array([0x1111111111111111, 0x2222222222222222,
                                                 0x3333333333333333, 0x4444444444444444],
                                                dtype=np.uint64)
        assert out.tolist() == [0x11, 0x33, 0x33] + [0x44] * 8 + [0] * 5

    @pytest.mark.parametrize("n", [1, 7, 1000, 100_000])
    def test_emit_matches_concatenation(self, n, gen):
        counts = gen.integers(0, 9, n).astype(np.uint8)
        counts[gen.random(n) < 0.3] = 0
        syms = gen.integers(0, 1 << 63, n, dtype=np.uint64)
        words = syms.view(np.uint8).reshape(n, 8)
        expect = b"".join(words[i, : counts[i]].tobytes() for i in range(n))
        assert huffman._emit(counts, syms).tobytes() == expect

    def test_emit_of_nothing(self):
        out = huffman._emit(np.zeros(0, np.uint8), np.zeros(0, np.uint64))
        assert out.size == 0


class TestMalformedHeaders:
    """Bad headers raise ValueError, never IndexError or garbage output."""

    @pytest.fixture
    def stream(self, gen):
        data = gen.integers(0, 20, 3 * 4096 + 7).astype(np.uint8).tobytes()
        return bytearray(HuffmanCodec().encode(data))

    @staticmethod
    def set_offset(buf: bytearray, i: int, value: int) -> None:
        struct.pack_into("<Q", buf, _HEADER + 256 + 8 * i, value)

    def test_decreasing_offsets(self, stream):
        first = struct.unpack_from("<Q", stream, _HEADER + 256)[0]
        self.set_offset(stream, 1, first - 1)
        with pytest.raises(ValueError, match="non-decreasing"):
            HuffmanCodec().decode(bytes(stream))

    @pytest.mark.parametrize("past", [1, 1 << 40, (1 << 64) - 1])
    def test_offset_past_nbits(self, stream, past):
        nbits = struct.unpack_from("<Q", stream, 12)[0]
        self.set_offset(stream, 2, min(nbits + past, (1 << 64) - 1))
        with pytest.raises(ValueError, match="at most"):
            HuffmanCodec().decode(bytes(stream))

    def test_nbits_beyond_payload(self, stream):
        payload_bytes = len(stream) - (_HEADER + 256 + 3 * 8)
        struct.pack_into("<Q", stream, 12, 8 * payload_bytes + 1)
        with pytest.raises(ValueError, match="payload"):
            HuffmanCodec().decode(bytes(stream))

    def test_more_symbols_than_bits(self, stream):
        struct.pack_into("<Q", stream, 0, 1 << 40)
        with pytest.raises(ValueError, match="symbols"):
            HuffmanCodec().decode(bytes(stream))

    def test_code_length_past_the_limit(self, stream):
        stream[_HEADER] = 40
        with pytest.raises(ValueError, match="code lengths"):
            HuffmanCodec().decode(bytes(stream))

    def test_zero_chunk_size(self, stream):
        struct.pack_into("<I", stream, 8, 0)
        with pytest.raises(ValueError, match="chunk size"):
            HuffmanCodec().decode(bytes(stream))


@pytest.mark.parametrize("extra", [-1, 0, 1, 2 * huffman._HISTOGRAM_BLOCK + 1])
def test_histogram_counts_in_blocks(extra, gen):
    n = 2 * huffman._HISTOGRAM_BLOCK + extra
    arr = gen.integers(0, 256, n).astype(np.uint8)
    arr[: n // 3] = 17
    assert np.array_equal(huffman._histogram(arr), np.bincount(arr, minlength=256))


def test_compression_tracks_entropy(rng):
    """Huffman rate must sit within ~1 bit/symbol of the source entropy."""
    probs = np.array([0.7, 0.15, 0.1, 0.04, 0.01])
    n = 100_000
    data = rng.choice(5, size=n, p=probs).astype(np.uint8).tobytes()
    entropy = -(probs * np.log2(probs)).sum()
    enc = HuffmanCodec().encode(data)
    rate = 8 * len(enc) / n
    assert entropy - 0.01 <= rate <= entropy + 1.1
